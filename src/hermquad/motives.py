"""Formal motivic direct sums and their split Poincare realizations.

A decomposition is a multiset of (base, shift) summands, where a shift by k
multiplies the realization by t^k.  Identities between decompositions are
checked by realizing both sides as integer polynomials.  The distinguished
indecomposable summand shared by the quadric and the hermitian quadric is
called the core here; its realization is not given in closed form but is
solved for from the hermitian decomposition and cross-checked against the
quadric one.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, groupby
from math import gcd
from operator import itemgetter
from typing import Optional

from .errors import (
    InconsistentDecomposition,
    InputTooLarge,
    InvalidRank,
    NonExactDivision,
)
from .poly import (
    RANK_MEMO_SIZE,
    IntPolynomial,
    exact_div,
    poincare_projective,
    poincare_quadric_of_dim,
    poincare_split_hermitian,
    poincare_split_quadric,
)

# the highest ladder shift; realize_split is linear in it, and at the limit
# verify_krashen(10002) takes ~50 ms on one Xeon core
BUNDLE_LIMIT = 10**4

# kind -> (least value of each parameter, realizer taking those parameters);
# solve_core and vishik_solve are looked up at call time, further down
_KINDS = {
    "tate": ((), lambda: IntPolynomial([1])),
    "spec_l": ((), lambda: IntPolynomial([2])),
    "proj_l": ((0,), lambda m: poincare_projective(m, 2)),
    "proj_f": ((0,), lambda m: poincare_projective(m, 1)),
    "split_quadric": ((2,), poincare_split_quadric),
    "hermitian_quadric": ((2,), poincare_split_hermitian),
    "core": ((2,), lambda n: solve_core(n)),
    "vishik_core": ((1, 1), lambda m, k: _realize_vishik_core(m, k)),
    "pfister_quadric": ((1,), lambda m: poincare_quadric_of_dim(2**m - 2)),
}


@dataclass(frozen=True, order=True)
class MotiveBase:
    """An unshifted direct summand, identified by kind and parameters."""

    kind: str
    params: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown motive kind {self.kind!r}")
        least = _KINDS[self.kind][0]
        if len(self.params) != len(least):
            raise ValueError(
                f"{self.kind} takes {len(least)} parameter(s), got {self.params!r}"
            )
        if any(value < lo for value, lo in zip(self.params, least)):
            raise InvalidRank(
                f"{self.kind} parameters must be at least {least}, got {self.params}"
            )


def tate() -> MotiveBase:
    """The unit summand over the base field."""
    return MotiveBase("tate")


def spec_l() -> MotiveBase:
    """The quadratic point, realized as the constant 2."""
    return MotiveBase("spec_l")


def proj_l(m: int) -> MotiveBase:
    """Projective m-space with cells doubled by the quadratic extension."""
    return MotiveBase("proj_l", (m,))


def proj_f(m: int) -> MotiveBase:
    """Ordinary projective m-space over the base field."""
    return MotiveBase("proj_f", (m,))


def split_quadric(n: int) -> MotiveBase:
    """The 2n-dimensional quadric hypersurface, split case."""
    return MotiveBase("split_quadric", (n,))


def hermitian_quadric(n: int) -> MotiveBase:
    """The hermitian quadric of rank n, split case."""
    return MotiveBase("hermitian_quadric", (n,))


def core(n: int) -> MotiveBase:
    """The indecomposable summand shared by both quadric decompositions."""
    return MotiveBase("core", (n,))


def vishik_core(m: int, k: int) -> MotiveBase:
    """The tensor factor in Vishik's splitting for multiples of a Pfister form."""
    return MotiveBase("vishik_core", (m, k))


def pfister_quadric(m: int) -> MotiveBase:
    """The quadric of an m-fold Pfister form, of variety dimension 2^m - 2."""
    return MotiveBase("pfister_quadric", (m,))


@dataclass(frozen=True)
class MotiveExpression:
    """A finite multiset of shifted summands, kept in canonical order."""

    summands: tuple[tuple[MotiveBase, int], ...]

    @staticmethod
    def of(*summands: tuple[MotiveBase, int]) -> "MotiveExpression":
        items = []
        for base, shift in summands:
            if not isinstance(base, MotiveBase):
                raise TypeError(f"expected a MotiveBase, got {base!r}")
            if shift < 0:
                raise ValueError(f"negative shift {shift}")
            items.append((base, shift))
        items.sort()
        return MotiveExpression(tuple(items))

    def __iter__(self):
        return iter(self.summands)

    def __len__(self) -> int:
        return len(self.summands)


def realize_base(base: MotiveBase) -> IntPolynomial:
    """Split Poincare polynomial of a single summand."""
    return _KINDS[base.kind][1](*base.params)


def _realize_vishik_core(m: int, k: int) -> IntPolynomial:
    report = vishik_solve(m, k)
    if report.core is None:
        raise InconsistentDecomposition(f"vishik core ({m}, {k}) has no realization")
    return report.core


def realize_split(expr: MotiveExpression) -> IntPolynomial:
    """Sum of the shifted realizations of every summand.

    Each distinct base is realized once, as P, and multiplied by its shift
    multiset S = sum of t^shift.  With s the gcd of the gaps between shifts,
    S(1 - t^s) is sparse (two terms for a ladder), so P is multiplied by that
    and then divided by 1 - t^s through a prefix sum with stride s.  A base
    costs O(len(P) * r + span), r the number of nonzero terms of S(1 - t^s).
    """
    total = IntPolynomial()
    for base, group in groupby(expr, key=itemgetter(0)):
        shifts = sorted(shift for _, shift in group)
        step = gcd(*(b - a for a, b in zip(shifts, shifts[1:]))) or 1
        diff = Counter(shifts)  # coefficients of S(1 - t^s); cancelled ones stay 0
        diff.subtract(shift + step for shift in shifts)
        p = realize_base(base).coefficients
        acc = [0] * (len(p) + shifts[-1] + step)
        for shift, count in diff.items():
            if count:
                end = shift + len(p)
                acc[shift:end] = [a + count * c for a, c in zip(acc[shift:end], p)]
        for r in range(step):
            acc[r::step] = accumulate(acc[r::step])
        if any(acc[-step:]):
            raise NonExactDivision(
                f"{base.kind} shifts left a remainder dividing by 1 - t^{step}"
            )
        total = total + IntPolynomial(acc)
    return total


def _ladder(base: MotiveBase, shifts: range) -> list[tuple[MotiveBase, int]]:
    # one copy of base per shift; len() would overflow on a range past sys.maxsize
    if shifts and shifts[-1] > BUNDLE_LIMIT:
        raise InputTooLarge(
            f"{base.kind} ladder reaches shift {shifts[-1]}, above {BUNDLE_LIMIT}"
        )
    return [(base, shift) for shift in shifts]


def _quadric_tail(n: int) -> list[tuple[MotiveBase, int]]:
    # everything in the quadric decomposition except the two copies of the core
    return [(spec_l(), n - 1)] if n % 2 == 1 else []


def decompose_quadric(n: int) -> MotiveExpression:
    """Direct-sum decomposition of the 2n-dimensional quadric.

    Two copies of the core, shifted by 0 and 1, plus a quadratic point in
    the middle degree when n is odd.
    """
    return MotiveExpression.of(*_ladder(core(n), range(2)), *_quadric_tail(n))


def _hermitian_tail(n: int) -> list[tuple[MotiveBase, int]]:
    # everything in the hermitian decomposition except the core
    return _ladder(proj_l(n - 1 - n % 2), range(1, n - 1, 2))


def decompose_hermitian(n: int) -> MotiveExpression:
    """Direct-sum decomposition of the hermitian quadric of rank n.

    The core plus a ladder of shifted projective spaces in odd shifts.
    """
    return MotiveExpression.of((core(n), 0), *_hermitian_tail(n))


def expand_projective_bundle(m: int) -> MotiveExpression:
    """Projective m-space as a sum of shifted unit summands."""
    proj_f(m)  # the range check: m >= 0
    return MotiveExpression.of(*_ladder(tate(), range(m + 1)))


@lru_cache(maxsize=RANK_MEMO_SIZE)
def solve_core(n: int) -> IntPolynomial:
    """Poincare polynomial of the core summand of rank n.

    Subtracts the projective tail from the hermitian polynomial, then
    cross-checks the result against the quadric decomposition.  Either check
    failing would mean the two decompositions are inconsistent, so it raises
    rather than returning a wrong value.
    """
    p = poincare_split_hermitian(n) - realize_split(
        MotiveExpression.of(*_hermitian_tail(n))
    )
    if any(c < 0 for c in p.coefficients):
        raise InconsistentDecomposition(
            f"core of rank {n} would need negative cell counts: {p!r}"
        )
    tail = realize_split(MotiveExpression.of(*_quadric_tail(n)))
    if p + p.shift(1) + tail != poincare_split_quadric(n):
        raise InconsistentDecomposition(
            f"core of rank {n} fails the quadric cross-check"
        )
    return p


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of realizing both sides of a direct-sum identity."""

    n: int
    holds: bool
    lhs: IntPolynomial
    rhs: IntPolynomial


def krashen_sides(n: int) -> tuple[MotiveExpression, MotiveExpression]:
    """Both sides of Krashen's identity at rank n, unrealized.

    The quadric plus a ladder of shifted quadratic projective spaces, and two
    shifted copies of the hermitian quadric.  Building them is cheap and
    applies the ladder limit, so a rank past it raises InputTooLarge here.
    """
    lhs = MotiveExpression.of(
        (split_quadric(n), 0), *_ladder(proj_l(n - 1), range(1, n - 1))
    )
    return lhs, MotiveExpression.of(*_ladder(hermitian_quadric(n), range(2)))


def verify_krashen(n: int) -> VerificationReport:
    """Check Krashen's identity linking the quadric to the hermitian quadric.

    Both sides of krashen_sides(n) must realize to the same polynomial.
    """
    lhs, rhs = map(realize_split, krashen_sides(n))
    return VerificationReport(n, lhs == rhs, lhs, rhs)


@dataclass(frozen=True)
class VishikReport:
    """Outcome of solving for the tensor factor of a Pfister multiple."""

    m: int
    k: int
    core: Optional[IntPolynomial]
    holds: bool
    degenerate: bool
    matches_core: Optional[bool]


def vishik_solve(m: int, k: int) -> VishikReport:
    """Solve for the factor N with Q = N x P^(2^m - 1) on Poincare level.

    The quadric of a k * 2^m dimensional form, minus a shifted Pfister
    quadric correction when k is odd, must be exactly divisible by the
    projective polynomial; holds is False on any inexact division or
    negative coefficient.  k = 1 makes the correction cancel everything and
    is reported as degenerate.  For m = 1 the factor is compared with the
    core of the same rank.
    """
    vishik_core(m, k)  # the range check: m >= 1 and k >= 1
    total = poincare_quadric_of_dim(k * 2**m - 2)
    if k % 2 == 1:
        total = total - realize_base(pfister_quadric(m)).shift((k - 1) * 2 ** (m - 1))
    holds = all(c >= 0 for c in total.coefficients)
    factor: Optional[IntPolynomial] = None
    if holds:
        try:
            factor = exact_div(total, realize_base(proj_f(2**m - 1)))
        except NonExactDivision:
            holds = False
        else:
            holds = all(c >= 0 for c in factor.coefficients)
    matches: Optional[bool] = None
    if m == 1 and k >= 2 and factor is not None:
        matches = factor == solve_core(k)
    return VishikReport(m, k, factor, holds, k == 1, matches)
