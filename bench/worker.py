"""One workload in a fresh interpreter: set up, say READY, run, report.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
        [--setup-only] [--spans PATH] [--stop-after S]

bench/run.py starts this process and times it from spawn to the READY line;
that interval is the set-up time (interpreter start, import, seeded input
generation and oracle precomputation).  The timed region follows READY.  The
last stdout line is a JSON summary that run.py turns into metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

from workloads import WORKLOADS  # noqa: E402

# Counters every traced run reports, zero where a workload never touches them.
COUNTERS = (
    "poly.coeffs_out",
    "motives.ranks_checked", "motives.summands_realized", "motives.identity_failures",
    "rost.ranks_swept",
    "quadforms.entries_normalized", "quadforms.entry_bits",
    "quadforms.places_examined", "quadforms.symbol_pairs",
    "cli.invocations", "cli.bytes_out", "cli.exit_mismatches",
)

# quadforms spans by the part of the layer they time
QUADFORMS_PARTS = {
    "from_rationals": "normalize", "normalize_square_class": "normalize",
    "relevant_places": "hasse", "hasse_invariant": "hasse",
    "global_witt_index": "witt",
    "milnor_husemoller_check": "mh", "is_hyperbolic_over_extension": "mh",
}


class Tracer:
    """Spans and counters kept in memory, one run, one thread.

    A span is opened by the benchmark around one call into a public
    function: (id, parent id, op id, layer, name, start, end, extra).
    extra marks calls the traced run makes only to measure, which the
    overhead ratio leaves out.
    """

    enabled = True

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.op = None

    def span(self, layer, name, extra=False):
        return _Span(self, layer, name, extra)

    def count(self, key, value):
        self.counts[key] += value

    def self_times(self):
        """Each span's duration minus the time its child spans cover."""
        covered = {}
        for sid, parent, _, _, _, start, end, _ in self.spans:
            if parent is not None:
                covered[parent] = covered.get(parent, 0.0) + (end - start)
        return {s[0]: (s[6] - s[5]) - covered.get(s[0], 0.0) for s in self.spans}

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "parent", "op", "layer", "name", "start", "end", "extra")
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")


class _Span:
    __slots__ = ("tr", "layer", "name", "extra", "start", "sid")

    def __init__(self, tr, layer, name, extra):
        self.tr, self.layer, self.name, self.extra = tr, layer, name, extra

    def __enter__(self):
        self.sid = len(self.tr.spans) + len(self.tr.stack)
        self.tr.stack.append(self.sid)
        self.start = time.perf_counter()

    def __exit__(self, *exc):
        end = time.perf_counter()
        tr = self.tr
        tr.stack.pop()
        parent = tr.stack[-1] if tr.stack else None
        tr.spans.append((self.sid, parent, tr.op, self.layer, self.name, self.start, end, self.extra))
        return False


class NullTracer:
    """The untraced run: same call sites, nothing recorded."""

    enabled = False
    _null = nullcontext()

    def span(self, layer, name, extra=False):
        return self._null

    def count(self, key, value):
        pass


def library(workload, traced):
    """What execute() calls: hermquad itself, or the pieces cli-mix needs."""
    if workload.name != "cli-mix":
        import hermquad

        return hermquad
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    lib = SimpleNamespace(python=sys.executable, cwd=str(ROOT), env=env)
    if traced:
        import hermquad
        import hermquad.cli

        lib.hermquad, lib.cli = hermquad, hermquad.cli
    return lib


def op_count(workload, seconds):
    """Ops in one run: sized to take about `seconds` at the parent commit.

    The count depends only on the workload and --seconds, so two commits
    run the same seeded op list and a faster one finishes sooner.
    """
    count = max(100, round(seconds * workload.rate))
    return -(-count // workload.block) * workload.block


def import_seconds(lib):
    """Median wall time of a fresh `import hermquad.cli`, over three processes."""
    code = "import time; t = time.perf_counter(); import hermquad.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(3):
        out = subprocess.run([lib.python, "-c", code], cwd=lib.cwd, env=lib.env,
                             capture_output=True, text=True, timeout=60, check=True)
        times.append(float(out.stdout))
    return statistics.median(times)


def layer_metrics(tr, lib):
    """Per-layer metrics of a traced run, from its spans and counters."""
    selfs = tr.self_times()
    m = {}
    for layer in ("poly", "motives", "rost", "quadforms"):
        ids = [s[0] for s in tr.spans if s[3] == layer]
        m[f"{layer}.calls"] = len(ids)
        m[f"{layer}.busy_s"] = sum(selfs[i] for i in ids)
    for part in ("normalize", "hasse", "witt", "mh"):
        m[f"quadforms.{part}_busy_s"] = sum(
            selfs[s[0]] for s in tr.spans if s[3] == "quadforms" and QUADFORMS_PARTS[s[4]] == part
        )
    m.update(tr.counts)
    durations = {}
    for s in tr.spans:
        if s[3] == "cli":
            durations.setdefault(s[4], []).append(s[6] - s[5])
    m["cli.process_s"] = sum(durations.get("process", []))
    m["cli.inproc_s"] = sum(durations.get("main", []))
    m["cli.spawn_s"] = m["cli.process_s"] - m["cli.inproc_s"]
    m["cli.parser_build_s"] = statistics.median(durations["build_parser"]) if "build_parser" in durations else 0.0
    m["cli.import_s"] = import_seconds(lib) if "process" in durations else 0.0
    pkg = getattr(lib, "hermquad", lib)
    infos = [f.cache_info() for f in (pkg.poincare_split_quadric, pkg.poincare_split_hermitian,
                                      pkg.poincare_projective)]
    m["poly.cache_hits"] = sum(i.hits for i in infos)
    m["poly.cache_misses"] = sum(i.misses for i in infos)
    m["poly.cache_entries"] = sum(i.currsize for i in infos)
    m["motives.core_cache_entries"] = pkg.solve_core.cache_info().currsize
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--stop-after", type=float, default=120.0,
                        help="seconds after which the ops not yet run count as failed")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    traced = bool(args.trace)
    lib = library(workload, traced)
    ops = workload.make_ops(random.Random(args.seed), op_count(workload, args.seconds))
    expected = [workload.oracle(op) for op in ops]
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tr = Tracer() if traced else NullTracer()
    latencies, failures = [], []
    start = time.perf_counter()
    for i, (op, exp) in enumerate(zip(ops, expected)):
        tr.op = i
        with tr.span("bench", "op"):
            t0 = time.perf_counter()
            try:
                result = workload.execute(op, lib, tr)
            except Exception as err:  # an op that raises counts as failed, the run goes on
                result, problems = None, [f"raised {err!r}"]
            elapsed = time.perf_counter() - t0
            if result is not None:
                try:
                    problems = workload.check(op, exp, result)
                except Exception as err:  # a result of the wrong shape is a wrong answer
                    problems = [f"result could not be checked: {err!r}"]
        latencies.append(elapsed)
        if elapsed > workload.limit_s:
            problems.append(f"took {elapsed:.1f} s, over the {workload.limit_s} s limit")
        if problems:
            failures.append({"op": i, "problems": problems})
        if time.perf_counter() - start > args.stop_after and i + 1 < len(ops):
            failures += [{"op": j, "problems": ["not run: hard stop"]} for j in range(i + 1, len(ops))]
            break
    wall = time.perf_counter() - start

    usage = resource.getrusage(resource.RUSAGE_CHILDREN if workload.name == "cli-mix" else resource.RUSAGE_SELF)
    summary = {
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures[:20],
        "completed": len(latencies),
        "wall_s": wall,
        "latencies_s": latencies,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "ranges": workload.ranges(),
    }
    if traced:
        extra = sum(s[6] - s[5] for s in tr.spans if s[7])
        summary["measured_wall_s"] = wall - extra
        summary["layers"] = layer_metrics(tr, lib)
        if args.spans:
            tr.write(args.spans)
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
