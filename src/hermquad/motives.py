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

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .errors import InconsistentDecomposition, InvalidRank, NonExactDivision
from .poly import (
    IntPolynomial,
    exact_div,
    poincare_projective,
    poincare_quadric_of_dim,
    poincare_split_hermitian,
    poincare_split_quadric,
)

# kind -> (number of integer parameters, realizer taking those parameters);
# solve_core and vishik_solve are looked up at call time, further down
_KINDS = {
    "tate": (0, lambda: IntPolynomial([1])),
    "spec_l": (0, lambda: IntPolynomial([2])),
    "proj_l": (1, lambda m: poincare_projective(m, 2)),
    "proj_f": (1, lambda m: poincare_projective(m, 1)),
    "split_quadric": (1, poincare_split_quadric),
    "hermitian_quadric": (1, poincare_split_hermitian),
    "core": (1, lambda n: solve_core(n)),
    "vishik_core": (2, lambda m, k: _realize_vishik_core(m, k)),
    "pfister_quadric": (1, lambda m: poincare_quadric_of_dim(2**m - 2)),
}


@dataclass(frozen=True, order=True)
class MotiveBase:
    """An unshifted direct summand, identified by kind and parameters."""

    kind: str
    params: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown motive kind {self.kind!r}")
        arity = _KINDS[self.kind][0]
        if len(self.params) != arity:
            raise ValueError(
                f"{self.kind} takes {arity} parameter(s), got {self.params!r}"
            )


def tate() -> MotiveBase:
    """The unit summand over the base field."""
    return MotiveBase("tate")


def spec_l() -> MotiveBase:
    """The quadratic point, realized as the constant 2."""
    return MotiveBase("spec_l")


def proj_l(m: int) -> MotiveBase:
    """Projective m-space with cells doubled by the quadratic extension."""
    if m < 0:
        raise InvalidRank(f"projective dimension must be nonnegative, got {m}")
    return MotiveBase("proj_l", (m,))


def proj_f(m: int) -> MotiveBase:
    """Ordinary projective m-space over the base field."""
    if m < 0:
        raise InvalidRank(f"projective dimension must be nonnegative, got {m}")
    return MotiveBase("proj_f", (m,))


def split_quadric(n: int) -> MotiveBase:
    """The 2n-dimensional quadric hypersurface, split case."""
    if n < 2:
        raise InvalidRank(f"rank n must be at least 2, got {n}")
    return MotiveBase("split_quadric", (n,))


def hermitian_quadric(n: int) -> MotiveBase:
    """The hermitian quadric of rank n, split case."""
    if n < 2:
        raise InvalidRank(f"rank n must be at least 2, got {n}")
    return MotiveBase("hermitian_quadric", (n,))


def core(n: int) -> MotiveBase:
    """The indecomposable summand shared by both quadric decompositions."""
    if n < 2:
        raise InvalidRank(f"rank n must be at least 2, got {n}")
    return MotiveBase("core", (n,))


def vishik_core(m: int, k: int) -> MotiveBase:
    """The tensor factor in Vishik's splitting for multiples of a Pfister form."""
    if m < 1:
        raise InvalidRank(f"Pfister exponent m must be at least 1, got {m}")
    if k < 1:
        raise InvalidRank(f"multiplier dimension k must be at least 1, got {k}")
    return MotiveBase("vishik_core", (m, k))


def pfister_quadric(m: int) -> MotiveBase:
    """The quadric of an m-fold Pfister form, of variety dimension 2^m - 2."""
    if m < 1:
        raise InvalidRank(f"Pfister exponent m must be at least 1, got {m}")
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
        items.sort(key=lambda s: (s[0].kind, s[0].params, s[1]))
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
    """Sum of the shifted realizations of every summand."""
    total = IntPolynomial()
    for base, shift in expr:
        total = total + realize_base(base).shift(shift)
    return total


def decompose_quadric(n: int) -> MotiveExpression:
    """Direct-sum decomposition of the 2n-dimensional quadric.

    Two copies of the core, shifted by 0 and 1, plus a quadratic point in
    the middle degree when n is odd.
    """
    if n < 2:
        raise InvalidRank(f"rank n must be at least 2, got {n}")
    summands = [(core(n), 0), (core(n), 1)]
    if n % 2 == 1:
        summands.append((spec_l(), n - 1))
    return MotiveExpression.of(*summands)


def _hermitian_tail(n: int) -> list[tuple[MotiveBase, int]]:
    # everything in the hermitian decomposition except the core
    if n % 2 == 0:
        return [(proj_l(n - 1), 2 * i + 1) for i in range((n - 2) // 2)]
    return [(proj_l(n - 2), 2 * i + 1) for i in range((n - 1) // 2)]


def decompose_hermitian(n: int) -> MotiveExpression:
    """Direct-sum decomposition of the hermitian quadric of rank n.

    The core plus a ladder of shifted projective spaces in odd shifts.
    """
    if n < 2:
        raise InvalidRank(f"rank n must be at least 2, got {n}")
    return MotiveExpression.of((core(n), 0), *_hermitian_tail(n))


def expand_projective_bundle(m: int) -> MotiveExpression:
    """Projective m-space as a sum of shifted unit summands."""
    if m < 0:
        raise InvalidRank(f"projective dimension must be nonnegative, got {m}")
    return MotiveExpression.of(*(((tate(), i)) for i in range(m + 1)))


@lru_cache(maxsize=None)
def solve_core(n: int) -> IntPolynomial:
    """Poincare polynomial of the core summand of rank n.

    Subtracts the projective tail from the hermitian polynomial, then
    cross-checks the result against the quadric decomposition.  Either check
    failing would mean the two decompositions are inconsistent, so it raises
    rather than returning a wrong value.
    """
    if n < 2:
        raise InvalidRank(f"rank n must be at least 2, got {n}")
    p = poincare_split_hermitian(n)
    for base, shift in _hermitian_tail(n):
        p = p - realize_base(base).shift(shift)
    if any(c < 0 for c in p.coefficients):
        raise InconsistentDecomposition(
            f"core of rank {n} would need negative cell counts: {p!r}"
        )
    cross = p * IntPolynomial([1, 1])
    if n % 2 == 1:
        cross = cross + IntPolynomial([0] * (n - 1) + [2])
    if cross != poincare_split_quadric(n):
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


def verify_krashen(n: int) -> VerificationReport:
    """Check Krashen's identity linking the quadric to the hermitian quadric.

    The quadric plus a ladder of shifted quadratic projective spaces must
    realize to the same polynomial as two shifted copies of the hermitian
    quadric.
    """
    if n < 2:
        raise InvalidRank(f"rank n must be at least 2, got {n}")
    lhs_expr = MotiveExpression.of(
        (split_quadric(n), 0),
        *(((proj_l(n - 1), i)) for i in range(1, n - 1)),
    )
    rhs_expr = MotiveExpression.of(
        (hermitian_quadric(n), 0), (hermitian_quadric(n), 1)
    )
    lhs = realize_split(lhs_expr)
    rhs = realize_split(rhs_expr)
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
    if m < 1:
        raise InvalidRank(f"Pfister exponent m must be at least 1, got {m}")
    if k < 1:
        raise InvalidRank(f"multiplier dimension k must be at least 1, got {k}")
    total = poincare_quadric_of_dim(k * 2**m - 2)
    if k % 2 == 1:
        correction = poincare_quadric_of_dim(2**m - 2)
        total = total - correction.shift((k - 1) * 2 ** (m - 1))
    holds = all(c >= 0 for c in total.coefficients)
    factor: Optional[IntPolynomial] = None
    if holds:
        try:
            factor = exact_div(total, poincare_projective(2**m - 1, 1))
        except NonExactDivision:
            holds = False
        else:
            holds = all(c >= 0 for c in factor.coefficients)
    matches: Optional[bool] = None
    if m == 1 and k >= 2 and factor is not None:
        matches = factor == solve_core(k)
    return VishikReport(m, k, factor, holds, k == 1, matches)
