"""Command line front end: one subcommand per library operation.

Every command prints an envelope {command, status, payload, version}.  With
--json the envelope is canonical single-line JSON (sorted keys, compact
separators), so parsing and reserializing it is byte-identical.  Exit codes:
0 for ok, 1 when a verified identity fails, 2 for usage or domain errors,
where an argument too large to compute with (OverflowError, MemoryError)
counts as a domain error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import is_dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import HermquadError, InputTooLarge
from .motives import (
    decompose_hermitian,
    decompose_quadric,
    expand_projective_bundle,
    realize_split,
    solve_core,
    verify_krashen,
    vishik_solve,
)
from .poly import (
    IntPolynomial,
    poincare_projective,
    poincare_split_hermitian,
    poincare_split_quadric,
)
from .quadforms import (
    DiagonalQuadraticForm,
    HermitianSpace,
    Place,
    SquareClass,
    determinant_class,
    essential_dimension,
    first_witt_index_special,
    global_witt_index,
    hasse_invariant,
    hilbert_symbol,
    is_anisotropic_hermitian,
    is_hyperbolic_over_extension,
    is_isotropic_global,
    local_witt_index,
    milnor_husemoller_check,
    normalize_square_class,
    relevant_places,
    trace_form,
)
from .rost import (
    central_binom_valuation,
    congrel_equivalence,
    congruence_counterexample,
    degree_formula_filter,
    eta2_parity,
    incompressibility_verdict,
    is_power_case,
)

VERSION = "1"

_EXIT = {"ok": 0, "violated": 1, "error": 2}


def _plain_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")


def _int_at_least(lo: int):
    def parse(text: str) -> int:
        value = _plain_int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be an integer >= {lo}")
        return value

    return parse


def _rational(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a rational number")
    if value == 0:
        raise argparse.ArgumentTypeError("must be nonzero")
    return value


def _entry_list(text: str) -> tuple[Fraction, ...]:
    parts = [part.strip() for part in text.split(",")]
    if not parts or any(not part for part in parts):
        raise argparse.ArgumentTypeError("expected comma-separated nonzero rationals")
    return tuple(_rational(part) for part in parts)


def _normalized(value: Fraction) -> SquareClass:
    try:
        return normalize_square_class(value)
    except InputTooLarge as err:
        raise argparse.ArgumentTypeError(str(err))


def _square_class(text: str) -> SquareClass:
    return _normalized(_rational(text))


def _diagonal_form(text: str) -> DiagonalQuadraticForm:
    return DiagonalQuadraticForm(tuple(map(_normalized, _entry_list(text))))


def _place(text: str) -> Place:
    if text == "real":
        return Place()
    try:
        prime = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is neither 'real' nor a prime")
    try:
        return Place(prime)
    except (ValueError, InputTooLarge) as err:
        raise argparse.ArgumentTypeError(str(err))


def _span(text: str) -> tuple[int, int]:
    parts = text.split("..")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("ranges are written A..B")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError("range bounds must be integers")
    if lo < 2:
        raise argparse.ArgumentTypeError("range must start at 2 or above")
    if hi < lo:
        raise argparse.ArgumentTypeError("range is empty")
    return lo, hi


def _jsonable(value):
    if isinstance(value, IntPolynomial):
        return list(value.coefficients)
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, SquareClass):
        return value.value
    if isinstance(value, Place):
        return str(value)
    if is_dataclass(value):
        return _jsonable(vars(value))
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


def _human_value(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (dict, list, tuple)):
        return json.dumps(_jsonable(value))
    return str(value)


class _Arg:
    """One add_argument call; calling it copies it with keywords replaced."""

    def __init__(self, *flags: str, **kwargs):
        self.flags, self.kwargs = flags, kwargs

    def __call__(self, **kwargs) -> "_Arg":
        return _Arg(*self.flags, **{**self.kwargs, **kwargs})


# options more than one leaf takes, in the form most leaves require them
RANK = _Arg("--n", type=_int_at_least(2), required=True)
QDIAG = _Arg(
    "--qdiag", dest="form", type=_diagonal_form, required=True, metavar="A1,A2,..."
)
HERMITIAN_DIAG = _Arg("--b", type=_entry_list, required=True, metavar="B1,B2,...")
PLACE = _Arg("--place", type=_place, required=True, metavar="real|P")
EXTENSION = _Arg("--a", type=_square_class, required=True)
# a list among a leaf's specs is an either-or group, exactly one required
RANK_OR_RANGE = [RANK(required=False), _Arg("--range", type=_span, metavar="A..B")]


# variety -> (the parameter it takes, its decomposition, its closed form)
_VARIETIES = {
    "quadric": ("n", decompose_quadric, poincare_split_quadric),
    "hermitian": ("n", decompose_hermitian, poincare_split_hermitian),
    "projective": ("m", expand_projective_bundle, lambda m: poincare_projective(m, 1)),
}


def _variety_args(n_help: Optional[str] = None, m_help: Optional[str] = None):
    return [
        _Arg("--variety", choices=list(_VARIETIES), required=True),
        RANK(required=False, help=n_help),
        _Arg("--m", type=_int_at_least(0), help=m_help),
    ]


def _variety(args):
    """Payload head, parameter, decomposition and closed form of the variety."""
    key, decompose, closed = _VARIETIES[args.variety]
    value = getattr(args, key)
    if value is None:
        args.leaf.error(f"--{key} is required for --variety {args.variety}")
    return {"variety": args.variety, key: value}, value, decompose, closed


_GROUPS = {
    "motive": "motivic decompositions and identities",
    "rost": "Rost numbers and incompressibility",
    "form": "quadratic form arithmetic over Q",
}

# "[group ]leaf" -> (help, argument specs, handler returning (payload, holds)),
# in the order help lists them; holds=False marks a violated identity
_COMMANDS: dict[str, tuple] = {}


def _command(name: str, summary: str, *specs):
    def register(handler):
        _COMMANDS[name] = (summary, specs, handler)
        return handler

    return register


def _hermitian_payload(space: HermitianSpace) -> dict:
    return {"a": space.a, "b": space.entries, "trace_form": trace_form(space).entries}


@_command(
    "poincare",
    "split Poincare polynomial of a variety",
    *_variety_args("rank, at least 2", "projective dimension"),
    _Arg(
        "--point-factor",
        type=int,
        choices=[1, 2],
        default=2,
        help="cell multiplicity for projective space (default 2)",
    ),
)
def _poincare(args):
    payload, value, _, closed = _variety(args)
    if args.variety == "projective":
        payload["point_factor"] = args.point_factor
        poly = poincare_projective(value, args.point_factor)
    else:
        poly = closed(value)
    payload.update(polynomial=poly, degree=poly.degree, value_at_1=poly.evaluate(1))
    return payload, True


@_command(
    "motive decompose",
    "direct-sum decomposition with its realization",
    *_variety_args(),
)
def _motive_decompose(args):
    payload, value, decompose, closed_form = _variety(args)
    expr, closed = decompose(value), closed_form(value)
    realization = realize_split(expr)
    payload.update(
        summands=[
            {"base": base.kind, "params": list(base.params), "shift": shift}
            for base, shift in expr
        ],
        realization=realization,
        closed_form=closed,
        matches=realization == closed,
    )
    return payload, payload["matches"]


@_command("motive nh", "Poincare polynomial of the shared core summand", RANK)
def _motive_nh(args):
    poly = solve_core(args.n)
    return {"n": args.n, "core": poly, "degree": poly.degree}, True


@_command(
    "motive verify-krashen",
    "check the quadric / hermitian quadric identity",
    RANK_OR_RANGE,
)
def _verify_krashen(args):
    if args.range is None:
        report = verify_krashen(args.n)
        return vars(report), report.holds
    lo, hi = args.range
    for n in range(lo, hi + 1):
        report = verify_krashen(n)
        if not report.holds:
            break
    counterexample = {k: v for k, v in vars(report).items() if k != "holds"}
    payload = {
        "range": [lo, hi],
        "checked": n - lo + 1,
        "holds": report.holds,
        "first_counterexample": None if report.holds else counterexample,
    }
    return payload, report.holds


@_command(
    "motive vishik",
    "solve for the tensor factor of a Pfister multiple",
    _Arg("--m", type=_int_at_least(1), required=True),
    _Arg("--k", type=_int_at_least(1), required=True),
)
def _vishik(args):
    report = vishik_solve(args.m, args.k)
    return vars(report), report.holds


@_command(
    "rost eta2",
    "parity of the Rost number, with the dimension congruence",
    RANK_OR_RANGE,
)
def _rost_eta2(args):
    if args.range is None:
        payload = {
            "n": args.n,
            "eta2_parity": eta2_parity(args.n),
            "central_binom_valuation": central_binom_valuation(args.n - 1),
            "is_power_case": is_power_case(args.n),
            "congruence_holds": congrel_equivalence(args.n),
        }
        return payload, payload["congruence_holds"]
    lo, hi = args.range
    bad = congruence_counterexample(lo, hi)
    payload = {
        "range": [lo, hi],
        "checked": (hi if bad is None else bad) - lo + 1,
        "congruence_holds": bad is None,
        "first_counterexample": bad,
    }
    return payload, bad is None


@_command(
    "rost incompressible",
    "incompressibility verdict for a hermitian quadric",
    RANK,
    _Arg(
        "--isotropic",
        action="store_true",
        help="treat the space as isotropic (default anisotropic)",
    ),
)
def _rost_incompressible(args):
    report = incompressibility_verdict(args.n, not args.isotropic)
    items = list(vars(report).items())
    items.insert(2, ("anisotropic", not args.isotropic))  # right after dim_vh
    return dict(items), True


@_command("rost degree-filter", "degrees mod 2 allowed by the degree formula", RANK)
def _rost_degree_filter(args):
    residues = degree_formula_filter(args.n)
    forced_odd = residues == frozenset({1})
    return {"n": args.n, "residues": sorted(residues), "forced_odd": forced_odd}, True


@_command(
    "form trace",
    "quadratic form underlying a hermitian space",
    EXTENSION,
    HERMITIAN_DIAG,
)
def _form_trace(args):
    payload = _hermitian_payload(HermitianSpace(args.a, args.b))
    payload["dim"] = len(payload["trace_form"])
    return payload, True


@_command("form det", "determinant square class", QDIAG)
def _form_det(args):
    det = determinant_class(args.form)
    return {"entries": args.form.entries, "determinant_class": det}, True


@_command(
    "form hilbert",
    "Hilbert symbol at one place",
    _Arg("--x", type=_square_class, required=True),
    _Arg("--y", type=_square_class, required=True),
    PLACE,
)
def _form_hilbert(args):
    symbol = hilbert_symbol(args.x, args.y, args.place)
    return {"x": args.x, "y": args.y, "place": args.place, "symbol": symbol}, True


@_command("form hasse", "Hasse invariant at one place", QDIAG, PLACE)
def _form_hasse(args):
    payload = {
        "entries": args.form.entries,
        "place": args.place,
        "hasse_invariant": hasse_invariant(args.form, args.place),
    }
    return payload, True


@_command(
    "form witt-index",
    "Witt index, global or at one place",
    QDIAG,
    PLACE(required=False),
)
def _form_witt_index(args):
    form = args.form
    if args.place is not None:
        index = local_witt_index(form, args.place)
        return {"entries": form.entries, "place": args.place, "witt_index": index}, True
    payload = {
        "entries": form.entries,
        "witt_index": global_witt_index(form),
        "local_indices": [
            {"place": v, "witt_index": local_witt_index(form, v)}
            for v in relevant_places(form)
        ],
    }
    return payload, True


@_command(
    "form isotropic",
    "rational isotropy of a form, or anisotropy of a hermitian space",
    QDIAG(required=False),
    EXTENSION(required=False),
    HERMITIAN_DIAG(required=False),
)
def _form_isotropic(args):
    if args.form is not None:
        if args.a is not None or args.b is not None:
            args.leaf.error("give either --qdiag or --a with --b, not both")
        payload = {
            "entries": args.form.entries,
            "isotropic": is_isotropic_global(args.form),
            "witt_index": global_witt_index(args.form),
        }
        return payload, True
    if args.a is None or args.b is None:
        args.leaf.error("give either --qdiag or --a with --b")
    space = HermitianSpace(args.a, args.b)
    payload = _hermitian_payload(space)
    payload["anisotropic"] = is_anisotropic_hermitian(space)
    return payload, True


@_command(
    "form hyperbolic-over",
    "does the form become hyperbolic over Q(sqrt a)",
    QDIAG,
    EXTENSION,
)
def _form_hyperbolic_over(args):
    hyperbolic = is_hyperbolic_over_extension(args.form, args.a)
    return {"entries": args.form.entries, "a": args.a, "hyperbolic": hyperbolic}, True


@_command(
    "form check-mh",
    "criterion for underlying a hermitian form over Q(sqrt a)",
    QDIAG,
    EXTENSION,
)
def _form_check_mh(args):
    report = milnor_husemoller_check(args.form, args.a)
    payload = {"entries": args.form.entries, "a": args.a}
    for key, value in vars(report).items():
        # the payload names the extension L in upper case
        payload["hyperbolic_over_L" if key == "hyperbolic_over_l" else key] = value
    return payload, report.passes


@_command(
    "essdim",
    "essential dimension from rank and first Witt index",
    RANK,
    _Arg("--i1", type=_int_at_least(1), required=True),
)
def _essdim(args):
    payload = {
        "n": args.n,
        "i1": args.i1,
        "dim_vh": 2 * args.n - 3,
        "essential_dimension": essential_dimension(args.n, args.i1),
    }
    return payload, True


@_command(
    "first-witt-special",
    "first Witt index for dimensions of the shape 2^r + 2",
    _Arg("--dim-q", type=_plain_int, required=True),
)
def _first_witt_special(args):
    value = first_witt_index_special(args.dim_q)
    return {"dim_q": args.dim_q, "first_witt_index": value}, True


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="emit the envelope as canonical JSON"
    )

    parser = argparse.ArgumentParser(
        prog="hermquad",
        description="Exact invariants of quadrics, hermitian quadrics and rational quadratic forms.",
    )
    top = parser.add_subparsers(dest="group", required=True, metavar="command")
    subparsers = {"": top}
    for name, (summary, specs, handler) in _COMMANDS.items():
        group, _, leaf_name = name.rpartition(" ")
        if group not in subparsers:
            group_parser = top.add_parser(group, help=_GROUPS[group])
            subparsers[group] = group_parser.add_subparsers(
                dest="subcommand", required=True, metavar="subcommand"
            )
        leaf = subparsers[group].add_parser(leaf_name, parents=[common], help=summary)
        leaf.set_defaults(handler=handler, command_name=name, leaf=leaf)
        for spec in specs:
            if isinstance(spec, list):
                either = leaf.add_mutually_exclusive_group(required=True)
                for option in spec:
                    either.add_argument(*option.flags, **option.kwargs)
            else:
                leaf.add_argument(*spec.flags, **spec.kwargs)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, holds = args.handler(args)
        status = "ok" if holds else "violated"
    except (HermquadError, OverflowError, MemoryError) as err:
        payload = {"error": type(err).__name__, "message": str(err)}
        status = "error"
    envelope = {
        "command": args.command_name,
        "status": status,
        "payload": payload,
        "version": VERSION,
    }
    if args.json:
        print(json.dumps(_jsonable(envelope), sort_keys=True, separators=(",", ":")))
    else:
        print(f"command: {args.command_name}")
        print(f"status: {status}")
        for key, value in payload.items():
            print(f"{key}: {_human_value(value)}")
    return _EXIT[status]


if __name__ == "__main__":
    sys.exit(main())
