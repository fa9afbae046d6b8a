import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hermquad.cli import main


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_json(*argv):
    code, out, _ = run_cli(*argv, "--json")
    return code, json.loads(out)


CANONICAL_CASES = [
    ("poincare", "--variety", "hermitian", "--n", "3"),
    ("poincare", "--variety", "projective", "--m", "4", "--point-factor", "1"),
    ("motive", "decompose", "--variety", "quadric", "--n", "4"),
    ("motive", "nh", "--n", "5"),
    ("motive", "verify-krashen", "--n", "3"),
    ("motive", "verify-krashen", "--range", "2..30"),
    ("motive", "vishik", "--m", "2", "--k", "3"),
    ("rost", "eta2", "--n", "9"),
    ("rost", "eta2", "--range", "2..100"),
    ("rost", "incompressible", "--n", "5"),
    ("rost", "degree-filter", "--n", "6"),
    ("form", "trace", "--a", "2", "--b", "1,1"),
    ("form", "det", "--qdiag", "2,8"),
    ("form", "hilbert", "--x", "2", "--y", "-3", "--place", "2"),
    ("form", "hasse", "--qdiag", "2,-3", "--place", "2"),
    ("form", "witt-index", "--qdiag", "1,1,-1,-1"),
    ("form", "isotropic", "--qdiag", "1,2,-3"),
    ("form", "isotropic", "--a", "-1", "--b", "1,1"),
    ("form", "hyperbolic-over", "--qdiag", "1,-5", "--a", "205"),
    ("form", "check-mh", "--qdiag", "1,1,1,1,1,1", "--a", "2"),
    ("essdim", "--n", "3", "--i1", "2"),
    ("first-witt-special", "--dim-q", "10"),
    ("first-witt-special", "--dim-q", "8"),
]


# Exact exit code, stdout and stderr per argv, recorded from the CLI before
# its command table was introduced: every CANONICAL_CASES argv in human and
# --json form, --help for every group and leaf, and a set of usage and
# domain errors.
GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_golden_output(case, monkeypatch):
    # argparse wraps help and usage text to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli(*case["argv"]) == (case["exit"], case["stdout"], case["stderr"])


def test_golden_covers_canonical_cases():
    pinned = {tuple(case["argv"]) for case in GOLDEN}
    for argv in CANONICAL_CASES:
        assert argv in pinned
        assert (*argv, "--json") in pinned


class TestEnvelope:
    @pytest.mark.parametrize("argv", CANONICAL_CASES, ids=lambda a: " ".join(a))
    def test_canonical_json_round_trips(self, argv):
        code, out, err = run_cli(*argv, "--json")
        assert out.endswith("\n")
        parsed = json.loads(out)
        assert out == json.dumps(parsed, sort_keys=True, separators=(",", ":")) + "\n"
        assert set(parsed) == {"command", "status", "payload", "version"}
        assert parsed["version"] == "1"
        assert code == {"ok": 0, "violated": 1, "error": 2}[parsed["status"]]

    @pytest.mark.parametrize("argv", CANONICAL_CASES, ids=lambda a: " ".join(a))
    def test_deterministic(self, argv):
        first = run_cli(*argv, "--json")
        second = run_cli(*argv, "--json")
        assert first == second

    def test_command_name_reflects_subcommand(self):
        _, parsed = run_json("motive", "verify-krashen", "--n", "3")
        assert parsed["command"] == "motive verify-krashen"
        _, parsed = run_json("essdim", "--n", "3", "--i1", "2")
        assert parsed["command"] == "essdim"


class TestPoincare:
    def test_hermitian_golden(self):
        code, parsed = run_json("poincare", "--variety", "hermitian", "--n", "3")
        assert code == 0
        assert parsed["payload"] == {
            "variety": "hermitian",
            "n": 3,
            "polynomial": [1, 2, 2, 1],
            "degree": 3,
            "value_at_1": 6,
        }

    def test_quadric_golden(self):
        _, parsed = run_json("poincare", "--variety", "quadric", "--n", "2")
        assert parsed["payload"]["polynomial"] == [1, 2, 1]
        assert parsed["payload"]["value_at_1"] == 4

    def test_projective_point_factor_default(self):
        _, parsed = run_json("poincare", "--variety", "projective", "--m", "2")
        assert parsed["payload"]["polynomial"] == [2, 2, 2]
        _, single = run_json(
            "poincare", "--variety", "projective", "--m", "2", "--point-factor", "1"
        )
        assert single["payload"]["polynomial"] == [1, 1, 1]

    def test_missing_parameter_is_usage_error(self):
        code, _, err = run_cli("poincare", "--variety", "projective")
        assert code == 2
        assert "--m" in err
        code, _, _ = run_cli("poincare", "--variety", "quadric")
        assert code == 2


class TestMotiveCommands:
    def test_nh_payload(self):
        code, parsed = run_json("motive", "nh", "--n", "5")
        assert code == 0
        assert parsed["payload"] == {"n": 5, "core": [1, 0, 1, 0, 0, 1, 0, 1], "degree": 7}

    def test_decompose_quadric(self):
        code, parsed = run_json("motive", "decompose", "--variety", "quadric", "--n", "4")
        payload = parsed["payload"]
        assert code == 0
        assert parsed["status"] == "ok"
        assert payload["matches"] is True
        assert payload["realization"] == [1, 1, 1, 2, 1, 1, 1]
        assert payload["realization"] == payload["closed_form"]
        assert payload["summands"] == [
            {"base": "core", "params": [4], "shift": 0},
            {"base": "core", "params": [4], "shift": 1},
        ]

    def test_decompose_hermitian_summands(self):
        _, parsed = run_json("motive", "decompose", "--variety", "hermitian", "--n", "3")
        assert parsed["payload"]["summands"] == [
            {"base": "core", "params": [3], "shift": 0},
            {"base": "proj_l", "params": [1], "shift": 1},
        ]

    def test_verify_krashen_single(self):
        code, parsed = run_json("motive", "verify-krashen", "--n", "3")
        assert code == 0
        assert parsed["payload"] == {
            "n": 3,
            "holds": True,
            "lhs": [1, 3, 4, 3, 1],
            "rhs": [1, 3, 4, 3, 1],
        }

    def test_verify_krashen_range(self):
        code, parsed = run_json("motive", "verify-krashen", "--range", "2..50")
        payload = parsed["payload"]
        assert code == 0
        assert payload["range"] == [2, 50]
        assert payload["checked"] == 49
        assert payload["holds"] is True
        assert payload["first_counterexample"] is None

    def test_vishik_golden(self):
        code, parsed = run_json("motive", "vishik", "--m", "2", "--k", "2")
        payload = parsed["payload"]
        assert code == 0
        assert payload["core"] == [1, 0, 0, 1]
        assert payload["holds"] is True
        assert payload["degenerate"] is False
        assert payload["matches_core"] is None

    def test_vishik_m1_reports_core_match(self):
        _, parsed = run_json("motive", "vishik", "--m", "1", "--k", "4")
        assert parsed["payload"]["matches_core"] is True

    def test_vishik_degenerate(self):
        code, parsed = run_json("motive", "vishik", "--m", "2", "--k", "1")
        assert code == 0
        assert parsed["payload"]["degenerate"] is True
        assert parsed["payload"]["core"] == []


class TestRostCommands:
    def test_eta2_single(self):
        code, parsed = run_json("rost", "eta2", "--n", "5")
        assert code == 0
        assert parsed["payload"] == {
            "n": 5,
            "eta2_parity": 1,
            "central_binom_valuation": 1,
            "is_power_case": True,
            "congruence_holds": True,
        }

    def test_eta2_range(self):
        code, parsed = run_json("rost", "eta2", "--range", "2..1000")
        payload = parsed["payload"]
        assert code == 0
        assert payload["congruence_holds"] is True
        assert payload["checked"] == 999
        assert payload["first_counterexample"] is None

    def test_eta2_range_answered_without_a_sweep(self):
        code, parsed = run_json("rost", "eta2", "--range", "2..1000000000000")
        assert code == 0
        assert parsed["payload"]["checked"] == 10**12 - 1
        assert parsed["payload"]["congruence_holds"] is True

    def test_eta2_rejects_both_selectors(self):
        code, _, _ = run_cli("rost", "eta2", "--n", "5", "--range", "2..10")
        assert code == 2

    def test_incompressible(self):
        _, parsed = run_json("rost", "incompressible", "--n", "5")
        assert parsed["payload"]["verdict"] == "incompressible"
        assert parsed["payload"]["dim_vh"] == 7
        assert parsed["payload"]["point_gcd"] == 2
        _, isotropic = run_json("rost", "incompressible", "--n", "5", "--isotropic")
        assert isotropic["payload"]["verdict"] == "unknown"
        assert isotropic["payload"]["anisotropic"] is False

    def test_degree_filter(self):
        _, parsed = run_json("rost", "degree-filter", "--n", "5")
        assert parsed["payload"]["residues"] == [1]
        assert parsed["payload"]["forced_odd"] is True
        _, parsed = run_json("rost", "degree-filter", "--n", "6")
        assert parsed["payload"]["residues"] == [0, 1]
        assert parsed["payload"]["forced_odd"] is False


class TestFormCommands:
    def test_trace(self):
        code, parsed = run_json("form", "trace", "--a", "2", "--b", "1,1")
        assert code == 0
        assert parsed["payload"] == {
            "a": 2,
            "b": ["1", "1"],
            "trace_form": [1, -2, 1, -2],
            "dim": 4,
        }

    def test_trace_accepts_fractions(self):
        _, parsed = run_json("form", "trace", "--a", "1/2", "--b", "1/3")
        assert parsed["payload"]["a"] == 2
        assert parsed["payload"]["trace_form"] == [3, -6]

    def test_det(self):
        _, parsed = run_json("form", "det", "--qdiag", "2,8")
        assert parsed["payload"]["determinant_class"] == 1
        assert parsed["payload"]["entries"] == [2, 2]

    def test_hilbert(self):
        _, parsed = run_json("form", "hilbert", "--x", "2", "--y", "-3", "--place", "2")
        assert parsed["payload"]["symbol"] == -1
        _, real = run_json("form", "hilbert", "--x", "-1", "--y", "-1", "--place", "real")
        assert real["payload"]["symbol"] == -1
        assert real["payload"]["place"] == "real"

    def test_hasse(self):
        _, parsed = run_json("form", "hasse", "--qdiag", "2,-3", "--place", "2")
        assert parsed["payload"]["hasse_invariant"] == -1

    def test_witt_index_global_with_breakdown(self):
        _, parsed = run_json("form", "witt-index", "--qdiag", "1,1,-1,-1")
        payload = parsed["payload"]
        assert payload["witt_index"] == 2
        places = {item["place"]: item["witt_index"] for item in payload["local_indices"]}
        assert places["real"] == 2
        assert places["2"] == 2

    def test_witt_index_at_place(self):
        _, parsed = run_json(
            "form", "witt-index", "--qdiag", "1,1,1,1,1", "--place", "3"
        )
        assert parsed["payload"]["witt_index"] == 2

    def test_isotropic_form_mode(self):
        _, parsed = run_json("form", "isotropic", "--qdiag", "1,2,-3")
        assert parsed["payload"]["isotropic"] is True
        assert parsed["payload"]["witt_index"] == 1

    def test_isotropic_hermitian_mode(self):
        _, parsed = run_json("form", "isotropic", "--a", "-1", "--b", "1,1")
        assert parsed["payload"]["anisotropic"] is True
        assert parsed["payload"]["trace_form"] == [1, 1, 1, 1]

    def test_isotropic_rejects_mixed_selectors(self):
        code, _, err = run_cli(
            "form", "isotropic", "--qdiag", "1,-1", "--a", "2", "--b", "1"
        )
        assert code == 2
        assert "not both" in err
        code, _, _ = run_cli("form", "isotropic")
        assert code == 2

    def test_hyperbolic_over(self):
        code, parsed = run_json("form", "hyperbolic-over", "--qdiag", "1,-5", "--a", "205")
        assert code == 0
        assert parsed["payload"]["hyperbolic"] is False
        _, good = run_json("form", "hyperbolic-over", "--qdiag", "1,-5", "--a", "5")
        assert good["payload"]["hyperbolic"] is True

    def test_check_mh_violation(self):
        code, parsed = run_json("form", "check-mh", "--qdiag", "1,1,1,1,1,1", "--a", "2")
        assert code == 1
        assert parsed["status"] == "violated"
        payload = parsed["payload"]
        assert payload["passes"] is False
        assert payload["hyperbolic_over_L"] is False
        assert {"place": "global", "clause": "determinant_mismatch"} in payload["witnesses"]

    def test_check_mh_pass(self):
        code, parsed = run_json("form", "check-mh", "--qdiag", "1,-2,1,-2", "--a", "2")
        assert code == 0
        assert parsed["payload"]["passes"] is True
        assert parsed["payload"]["witnesses"] == []


class TestScalarCommands:
    def test_essdim(self):
        code, parsed = run_json("essdim", "--n", "3", "--i1", "2")
        assert code == 0
        assert parsed["payload"] == {
            "n": 3,
            "i1": 2,
            "dim_vh": 3,
            "essential_dimension": 3,
        }

    def test_first_witt_special(self):
        code, parsed = run_json("first-witt-special", "--dim-q", "10")
        assert code == 0
        assert parsed["payload"] == {"dim_q": 10, "first_witt_index": 2}


class TestErrorPaths:
    def test_domain_error_envelope(self):
        code, parsed = run_json("first-witt-special", "--dim-q", "8")
        assert code == 2
        assert parsed["status"] == "error"
        assert parsed["payload"]["error"] == "UnsupportedDimension"
        assert "2^r + 2" in parsed["payload"]["message"]

    def test_trivial_extension_is_domain_error(self):
        code, parsed = run_json("form", "trace", "--a", "1", "--b", "1")
        assert code == 2
        assert parsed["payload"]["error"] == "InvalidExtension"

    def test_arithmetic_overflow_is_error_envelope(self):
        code, out, err = run_cli("motive", "vishik", "--m", "100", "--k", "2", "--json")
        parsed = json.loads(out)
        assert code == 2
        assert parsed["status"] == "error"
        assert parsed["payload"]["error"] == "OverflowError"
        assert err == ""

    def test_witt_index_above_rank_is_domain_error(self):
        code, parsed = run_json("essdim", "--n", "2", "--i1", "5")
        assert code == 2
        assert parsed["payload"]["error"] == "InvalidRank"

    def test_usage_errors_exit_2(self):
        assert run_cli()[0] == 2
        assert run_cli("poincare", "--variety", "hermitian", "--n", "1")[0] == 2
        assert run_cli("motive", "verify-krashen", "--range", "5..2")[0] == 2
        assert run_cli("motive", "verify-krashen", "--range", "1..5")[0] == 2
        assert run_cli("form", "hilbert", "--x", "0", "--y", "1", "--place", "2")[0] == 2
        assert run_cli("form", "trace", "--a", "2", "--b", "1,,2")[0] == 2
        assert run_cli("form", "hasse", "--qdiag", "1,2", "--place", "6")[0] == 2

    def test_unknown_command(self):
        assert run_cli("frobnicate")[0] == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("form", "hilbert", "--x", "2", "--y", "3", "--place", str(10**18 + 3)),
            ("form", "witt-index", "--qdiag", f"1,{(10**9 + 7) * (10**9 + 9)}"),
            ("motive", "decompose", "--variety", "projective", "--m", str(10**20)),
            ("motive", "nh", "--n", "100000"),
            ("motive", "decompose", "--variety", "hermitian", "--n", "100000"),
            ("motive", "verify-krashen", "--n", "100000"),
            ("motive", "verify-krashen", "--range", "2..100000"),
            ("poincare", "--variety", "hermitian", "--n", "10000000"),
            ("poincare", "--variety", "quadric", "--n", "10000000"),
            ("poincare", "--variety", "projective", "--m", "10000000"),
        ],
    )
    def test_size_limits_refuse_at_once(self, argv):
        # each argv is past a size limit, so it must be refused before any long work
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-m", "hermquad", *argv, "--json"],
            capture_output=True, text=True, timeout=10, env=env,
        )
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert "InputTooLarge" in done.stdout or "no prime factor" in done.stderr


class TestHumanOutput:
    def test_header_lines(self):
        code, out, _ = run_cli("motive", "nh", "--n", "5")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "command: motive nh"
        assert lines[1] == "status: ok"
        assert "core: 1 + t^2 + t^5 + t^7" in lines

    def test_boolean_and_null_rendering(self):
        _, out, _ = run_cli("motive", "vishik", "--m", "2", "--k", "2")
        assert "holds: true" in out.splitlines()
        assert "degenerate: false" in out.splitlines()
        assert "matches_core: null" in out.splitlines()
