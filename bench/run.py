"""hermquad benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from the root of a checkout.  Each workload runs in a fresh interpreter
(bench/worker.py), one closed-loop client, one op at a time.  --trace 0
reports the end-to-end metrics; --trace 1 runs the workload untraced and
then traced, each in its own process, and reports the per-layer metrics
with the tracing overhead.  --workload all runs every workload and prints
a table of every metric with units and sample counts.

Human-readable lines go first; the last stdout line is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Records of every run, and the spans of traced runs, go to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("rank-sweep", "forms-bigentry", "forms-highdim", "cli-mix")
SETUP_SAMPLES = 7
# A run must end within 180 s even on a much slower commit: past these
# budgets a worker stops and counts the ops it did not run as failed.
STOP_AFTER_S = {0: 120, 1: 70}
PROCESS_TIMEOUT_S = 170
# After an idle spell the vCPU of a small VM runs up to ~30% slow for about a
# second; spinning this long before any measurement keeps that out of the numbers.
WARM_UP_S = 1.5

END_TO_END_UNITS = {
    "throughput_ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

LAYER_UNITS = {
    "poly.calls": "count", "poly.busy_s": "s", "poly.coeffs_out": "count",
    "poly.cache_hits": "count", "poly.cache_misses": "count", "poly.cache_entries": "count",
    "motives.calls": "count", "motives.busy_s": "s", "motives.ranks_checked": "count",
    "motives.summands_realized": "count", "motives.core_cache_entries": "count",
    "motives.identity_failures": "count",
    "rost.calls": "count", "rost.busy_s": "s", "rost.ranks_swept": "count",
    "quadforms.calls": "count", "quadforms.busy_s": "s", "quadforms.normalize_busy_s": "s",
    "quadforms.hasse_busy_s": "s", "quadforms.witt_busy_s": "s", "quadforms.mh_busy_s": "s",
    "quadforms.entries_normalized": "count", "quadforms.entry_bits": "bits",
    "quadforms.places_examined": "count", "quadforms.symbol_pairs": "count",
    "cli.invocations": "count", "cli.process_s": "s", "cli.inproc_s": "s", "cli.spawn_s": "s",
    "cli.import_s": "s", "cli.parser_build_s": "s", "cli.bytes_out": "bytes",
    "cli.exit_mismatches": "count",
    "trace.overhead_ratio": "1",
}


def warm_up():
    end = time.perf_counter() + WARM_UP_S
    while time.perf_counter() < end:
        sum(i * i for i in range(10_000))


class BenchError(Exception):
    """The benchmark could not produce a result."""


def worker(workload, seed, seconds, trace, setup_only=False, spans=None):
    """Run bench/worker.py once: (seconds from spawn to READY, its summary or None)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--stop-after", str(STOP_AFTER_S[trace])]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", str(spans)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} worker passed {PROCESS_TIMEOUT_S} s")
    if ready.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"{workload} worker failed with exit code {proc.returncode}")
    if setup_only:
        return setup, None
    return setup, json.loads(rest.strip().splitlines()[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, seed, seconds):
    """Untraced run plus extra set-ups: the end-to-end metrics and the run summary."""
    setups = [worker(workload, seed, seconds, 0, setup_only=True)[0] for _ in range(SETUP_SAMPLES - 1)]
    setup, run = worker(workload, seed, seconds, 0)
    setups.append(setup)
    lat = run["latencies_s"]
    values = {
        "throughput_ops_per_s": run["completed"] / run["wall_s"],
        "latency_p50_ms": 1000 * statistics.median(lat),
        "latency_p90_ms": 1000 * statistics.quantiles(lat, n=10)[8],
        "peak_rss_mb": run["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }
    run["setup_samples_s"] = setups
    return {k: metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}, run


def per_layer(workload, seed, seconds):
    """Untraced then traced run: the per-layer metrics and both summaries."""
    _, plain = worker(workload, seed, seconds, 0)
    spans = OUT / f"{workload}-seed{seed}-spans.jsonl"
    _, traced = worker(workload, seed, seconds, 1, spans=spans)
    values = dict(traced["layers"])
    plain_rate = plain["completed"] / plain["wall_s"]
    traced_rate = traced["completed"] / traced["measured_wall_s"]
    values["trace.overhead_ratio"] = plain_rate / traced_rate
    metrics = {k: metric(values[k], unit) for k, unit in LAYER_UNITS.items()}
    traced["failed"] += plain["failed"]
    traced["attempted"] += plain["attempted"]
    traced["failures"] += plain["failures"]
    traced["shares"] = layer_shares(values, traced["measured_wall_s"])
    return metrics, traced


def layer_shares(values, wall):
    """Each layer's self time as a share of the traced run's measured wall time."""
    shares = {layer: values[f"{layer}.busy_s"] / wall for layer in ("poly", "motives", "rost", "quadforms")}
    shares["cli.spawn"] = values["cli.spawn_s"] / wall
    shares["cli.command"] = values["cli.inproc_s"] / wall
    return shares


def git_commit():
    """The checkout's commit from .git, without running git; 'unknown' outside a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed, seconds, trace):
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def run_one(workload, seed, seconds, trace):
    metrics, run = (per_layer if trace else end_to_end)(workload, seed, seconds)
    record = {"workload": workload, **environment(seed, seconds, trace), "ops": run["attempted"],
              "failed": run["failed"], "failed_ratio": run["failed"] / run["attempted"],
              "input_ranges": run["ranges"], "metrics": metrics, "failures": run["failures"]}
    if trace:
        record["layer_shares"] = run["shares"]
    else:
        record["setup_samples_s"] = run["setup_samples_s"]
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print_table(record, len(run["latencies_s"]))
    return record


def print_table(record, samples):
    print(f"== {record['workload']}  seed {record['seed']}  ops {record['ops']}  "
          f"python {record['python']}  nproc {record['nproc']}  commit {record['commit'][:12]}")
    print(f"   {'failed_ratio':<30} {record['failed_ratio']:<14.6g} 1       "
          f"({record['failed']} of {record['ops']} ops)")
    for name, m in record["metrics"].items():
        if record["trace"]:
            count = f"traced run of {samples} ops"
        elif name == "setup_s":
            count = f"median of {len(record['setup_samples_s'])} set-ups"
        elif name == "peak_rss_mb":
            count = "1 process" if record["workload"] != "cli-mix" else "largest child"
        else:
            count = f"{samples} ops"
        print(f"   {name:<30} {m['value']:<14.6g} {m['unit']:<7} ({count})")
    for layer, share in record.get("layer_shares", {}).items():
        print(f"   share of traced time in {layer:<12} {share:.1%}")
    for failure in record["failures"][:5]:
        print(f"   FAILED op {failure['op']}: {'; '.join(failure['problems'])}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "hermquad" / "__init__.py").is_file():
        print(f"bench: no hermquad sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    warm_up()
    try:
        records = [run_one(name, args.seed, args.seconds, args.trace) for name in names]
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 1
    if len(records) == 1:
        metrics = {k: m for k, m in records[0]["metrics"].items()}
    else:
        metrics = {f"{r['workload']}.{k}": m for r in records for k, m in r["metrics"].items()}
    attempted = sum(r["ops"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
