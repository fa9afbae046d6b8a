"""Self-tests of the benchmark: seeded inputs, strict oracles, tracer.

    python3 -m pytest bench -q

Every oracle is fed results from the real library, which it must accept,
and then each single corruption of them (a flipped coefficient, a wrong
Witt index, a wrong exit code, ...), which it must reject, so no check is
vacuous.  These tests live beside the benchmark, outside the library's
test suite.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import worker  # noqa: E402
from workloads import WORKLOADS, CLI_BLOCK  # noqa: E402

SAMPLE_OPS = {"rank-sweep": 6, "forms-bigentry": 16, "forms-highdim": 8, "cli-mix": 2 * len(CLI_BLOCK)}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_ops_other_seed_other_ops(name):
    wl = WORKLOADS[name]
    count = SAMPLE_OPS[name]
    first = wl.make_ops(random.Random(7), count)
    again = wl.make_ops(random.Random(7), count)
    other = wl.make_ops(random.Random(8), count)
    assert first == again
    assert [wl.oracle(op) for op in first] == [wl.oracle(op) for op in again]
    assert first != other


def test_oracles_need_only_the_standard_library():
    code = (
        "import random, sys; sys.path.insert(0, 'bench'); import workloads\n"
        "for wl in workloads.WORKLOADS.values():\n"
        "    [wl.oracle(op) for op in wl.make_ops(random.Random(1), 40)]\n"
        "assert not any(m.startswith('hermquad') for m in sys.modules), sys.modules\n"
    )
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)


def variants(value):
    """Every single corruption of a plain result value."""
    if isinstance(value, bool):
        yield not value
    elif isinstance(value, int):
        yield value + 1
    elif isinstance(value, str):
        yield ""
        yield None
    elif value is None:
        yield 0
    elif isinstance(value, (tuple, list)):
        if not value:
            yield type(value)([0])
        for i in sorted({0, len(value) // 2, len(value) - 1} if value else ()):
            for bad in variants(value[i]):
                out = list(value)
                out[i] = bad
                yield type(value)(out)
            if isinstance(value[i], int) and not isinstance(value[i], bool) and value[i]:
                out = list(value)
                out[i] = -value[i]
                yield type(value)(out)
    elif isinstance(value, dict):
        for key in value:
            for bad in variants(value[key]):
                yield {**value, key: bad}
            yield {k: v for k, v in value.items() if k != key}
    else:
        raise TypeError(f"no corruption for {value!r}")


def cli_variants(res):
    """Corrupted copies of one cli result: exit code, envelope, text, stderr."""
    yield {**res, "exit": res["exit"] + 1}
    try:
        envelope = json.loads(res["out"])
    except ValueError:
        envelope = None
    if envelope is not None:
        for bad in variants(envelope):
            yield {**res, "out": json.dumps(bad, sort_keys=True, separators=(",", ":")) + "\n"}
    elif res["out"]:
        lines = res["out"].splitlines()
        for i in range(len(lines)):
            changed = lines[:i] + [lines[i] + "0"] + lines[i + 1:]
            yield {**res, "out": "\n".join(changed) + "\n"}
    else:
        yield {**res, "out": "{}\n"}
        yield {**res, "err": ""}


def result_variants(res):
    """Corrupted copies of a library result, one field at a time."""
    for key, value in res.items():
        for bad in variants(value):
            yield {**res, key: bad}


def library_for(name):
    return worker.library(WORKLOADS[name], traced=False)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_oracle_rejects_every_corruption(name):
    wl = WORKLOADS[name]
    lib = library_for(name)
    ops = wl.make_ops(random.Random(3), SAMPLE_OPS[name])
    if name == "rank-sweep":
        ops = [2, 3, 8, 17, 40, 101]  # odd and even, powers of two plus one
    tried = 0
    for op in ops:
        exp = wl.oracle(op)
        res = wl.execute(op, lib, worker.NullTracer())
        assert wl.check(op, exp, res) == [], op
        for bad in (cli_variants(res) if name == "cli-mix" else result_variants(res)):
            tried += 1
            assert wl.check(op, exp, bad), f"{name} accepted a corrupted result: {bad!r:.300}"
    assert tried > 10 * len(ops)


def test_cli_mix_covers_every_exit_code_and_the_human_form():
    wl = WORKLOADS["cli-mix"]
    ops = wl.make_ops(random.Random(5), 2 * len(CLI_BLOCK))
    assert {op["exit"] for op in ops} == {0, 1, 2}
    assert sum("--json" not in op["argv"] for op in ops) >= 4
    groups = {op["argv"][0] for op in ops}
    assert {"poincare", "motive", "rost", "form", "essdim"} <= groups


def test_forms_have_the_planned_kinds_and_sizes():
    for name, (lo, hi) in (("forms-bigentry", (4, 8)), ("forms-highdim", (24, 64))):
        ops = WORKLOADS[name].make_ops(random.Random(2), 64)
        assert sorted({op["kind"] for op in ops}) == ["drop", "pad", "split", "trace"]
        assert all(lo <= len(op["values"]) <= hi for op in ops)


def test_self_time_subtracts_child_spans():
    tr = worker.Tracer()
    with tr.span("bench", "op"):
        with tr.span("motives", "a"):
            time.sleep(0.02)
        with tr.span("poly", "b"):
            time.sleep(0.01)
        time.sleep(0.01)
    selfs = tr.self_times()
    by_name = {s[4]: s for s in tr.spans}
    op = by_name["op"]
    assert by_name["a"][1] == op[0] and by_name["b"][1] == op[0] and op[1] is None
    children = sum(by_name[k][6] - by_name[k][5] for k in ("a", "b"))
    assert selfs[op[0]] == pytest.approx((op[6] - op[5]) - children)
    assert 0.005 < selfs[op[0]] < 0.05


def test_traced_run_reports_every_layer_metric(tmp_path):
    import run

    tr = worker.Tracer()
    lib = library_for("forms-highdim")
    wl = WORKLOADS["forms-highdim"]
    for i, op in enumerate(wl.make_ops(random.Random(1), 8)):
        tr.op = i
        with tr.span("bench", "op"):
            wl.execute(op, lib, tr)
    layers = worker.layer_metrics(tr, lib)
    assert set(layers) | {"trace.overhead_ratio"} == set(run.LAYER_UNITS)
    assert layers["quadforms.calls"] > 0 and layers["quadforms.hasse_busy_s"] > 0
    assert layers["quadforms.symbol_pairs"] > 0 and layers["poly.calls"] == 0
    path = tmp_path / "spans.jsonl"
    tr.write(path)
    assert len(path.read_text().splitlines()) == len(tr.spans)


def test_benchmark_json_matches_the_runner():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert sorted(WORKLOADS) == sorted(run.WORKLOAD_NAMES)


def test_ops_past_the_stop_budget_count_as_failed():
    out = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", "rank-sweep", "--seed", "1",
         "--seconds", "1", "--stop-after", "0.2"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    lines = out.stdout.splitlines()
    summary = json.loads(lines[-1])
    assert lines[0] == "READY"
    assert 0 < summary["completed"] < summary["attempted"] == 100
    assert summary["failed"] == summary["attempted"] - summary["completed"]
