"""Rost characteristic numbers and the incompressibility criterion.

The target is a hermitian quadric of rank n, a projective variety of
dimension 2n - 3 whose closed points all have even degree.  Its Rost number
eta2 is half a central binomial coefficient, so everything reduces to
Kummer's count of the 2-adic valuation as a popcount.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidRank

INCOMPRESSIBLE = "incompressible"
UNKNOWN = "unknown"


def central_binom_valuation(m: int) -> int:
    """2-adic valuation of binomial(2m, m): the number of set bits of m."""
    if m < 0:
        raise InvalidRank(f"m must be nonnegative, got {m}")
    return m.bit_count()


def eta2_parity(n: int) -> int:
    """Parity of the Rost number binomial(2(n-1), n-1) / 2.

    Odd exactly when the valuation is 1, i.e. when n - 1 is a power of two.
    """
    if n < 2:
        raise InvalidRank(f"rank n must be at least 2, got {n}")
    return 1 if (n - 1).bit_count() == 1 else 0


def is_power_case(n: int) -> bool:
    """Whether dim 2n - 3 has the shape 2^r - 1 with r >= 1."""
    if n < 2:
        raise InvalidRank(f"rank n must be at least 2, got {n}")
    dim = 2 * n - 3
    return dim & (dim + 1) == 0


def congrel_equivalence(n: int) -> bool:
    """Check that eta2 is odd exactly in the power-of-two dimension case.

    The two sides are computed by different bit tests, one on n - 1 and one
    on 2n - 3, so this is a genuine equality of predicates.
    """
    return (eta2_parity(n) == 1) == is_power_case(n)


def congruence_counterexample(lo: int, hi: int) -> int | None:
    """First n in [lo, hi] violating congrel_equivalence, or None.

    Lists each side's solutions by its own route, n - 1 = 2^s and
    2n - 3 = 2^r - 1, and compares the sets: O(log hi) steps for any range.
    """
    if lo < 2:
        raise InvalidRank(f"sweep must start at 2 or above, got {lo}")
    odd_eta2 = {2**s + 1 for s in range(hi.bit_length())}
    power_dim = {(2**r + 2) // 2 for r in range(1, hi.bit_length() + 1)}
    return min((n for n in odd_eta2 ^ power_dim if lo <= n <= hi), default=None)


@dataclass(frozen=True)
class RostReport:
    """Everything the degree-formula argument sees about one rank."""

    n: int
    dim_vh: int
    eta2_parity: int
    is_power_case: bool
    point_gcd: int
    verdict: str


def incompressibility_verdict(n: int, anisotropic: bool) -> RostReport:
    """Verdict for the hermitian quadric of rank n.

    Incompressible needs both anisotropy and an odd Rost number; every point
    has degree divisible by 2, so an odd eta2 forces any rational self-map
    to be dominant.  Everything else is Unknown, not compressible: the
    criterion only ever argues one way.
    """
    parity = eta2_parity(n)
    power = is_power_case(n)
    verdict = INCOMPRESSIBLE if (anisotropic and parity == 1) else UNKNOWN
    return RostReport(
        n=n,
        dim_vh=2 * n - 3,
        eta2_parity=parity,
        is_power_case=power,
        point_gcd=2,
        verdict=verdict,
    )


def degree_formula_filter(n: int) -> frozenset[int]:
    """Residues mod 2 allowed for deg(f) n_M / n_N in the degree formula.

    With an odd eta2 only odd degrees survive; otherwise both residues are
    possible and the formula gives no information.
    """
    return frozenset({1}) if eta2_parity(n) == 1 else frozenset({0, 1})
