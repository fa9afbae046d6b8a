"""Exact univariate polynomial arithmetic over the integers.

Coefficients are stored densely, lowest degree first, with no trailing
zeros; the zero polynomial is the empty tuple.  Everything is computed with
arbitrary-precision ints, and division either succeeds without remainder or
raises, which the closed-form constructors below rely on as a self-check.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Union

from .errors import DivisionByZero, InputTooLarge, InvalidRank, NonExactDivision


class IntPolynomial:
    """A dense integer polynomial in one variable t.

    >>> p = IntPolynomial([1, 1])
    >>> p * p
    IntPolynomial([1, 2, 1])
    >>> print(p * p - IntPolynomial([1]))
    2t + t^2
    >>> IntPolynomial([0, 0]).is_zero()
    True
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable[int] = ()):
        coeffs = list(coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self._coeffs = tuple(coeffs)

    @property
    def coefficients(self) -> tuple[int, ...]:
        return self._coeffs

    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has none.

        >>> IntPolynomial([1, 0, 3]).degree
        2
        """
        if not self._coeffs:
            raise ValueError("the zero polynomial has no degree")
        return len(self._coeffs) - 1

    def coefficient(self, i: int) -> int:
        """Coefficient of t^i, zero beyond the stored range."""
        if i < 0:
            raise ValueError("negative exponent")
        return self._coeffs[i] if i < len(self._coeffs) else 0

    def shift(self, k: int) -> "IntPolynomial":
        """Multiply by t^k.

        >>> IntPolynomial([2]).shift(2)
        IntPolynomial([0, 0, 2])
        """
        if k < 0:
            raise ValueError("negative shift")
        if not self._coeffs:
            return self
        return IntPolynomial((0,) * k + self._coeffs)

    def evaluate(self, x: int) -> int:
        """Exact value at an integer point, by Horner's rule."""
        acc = 0
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self._coeffs))

    def __mul__(self, other: Union["IntPolynomial", int]) -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial(tuple(c * other for c in self._coeffs))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return IntPolynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self._coeffs)!r})"

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self._coeffs):
            if c == 0:
                continue
            if i == 0:
                body = str(abs(c))
            else:
                var = "t" if i == 1 else f"t^{i}"
                body = var if abs(c) == 1 else f"{abs(c)}{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


def exact_div(num: IntPolynomial, den: IntPolynomial) -> IntPolynomial:
    """Quotient num / den in Z[t] when the division is exact.

    Raises NonExactDivision as soon as a leading coefficient fails to divide
    or a nonzero remainder is left over, and DivisionByZero for a zero
    divisor.

    >>> exact_div(IntPolynomial([1, 2, 1]), IntPolynomial([1, 1]))
    IntPolynomial([1, 1])
    """
    if den.is_zero():
        raise DivisionByZero("division by the zero polynomial")
    if num.is_zero():
        return IntPolynomial()
    rem = list(num.coefficients)
    d = den.coefficients
    lead = d[-1]
    if len(rem) < len(d):
        raise NonExactDivision(f"{num!r} is not divisible by {den!r}")
    out = [0] * (len(rem) - len(d) + 1)
    for k in range(len(out) - 1, -1, -1):
        top = rem[k + len(d) - 1]
        q, r = divmod(top, lead)
        if r:
            raise NonExactDivision(
                f"leading coefficient {top} not divisible by {lead}"
            )
        out[k] = q
        if q:
            for j, c in enumerate(d):
                rem[k + j] -= q * c
    if any(rem):
        raise NonExactDivision(f"remainder {IntPolynomial(rem)!r} is nonzero")
    return IntPolynomial(out)


_ONE_MINUS_T = IntPolynomial([1, -1])
RANK_MEMO_SIZE = 8  # one call chain reuses <= 3 keys; a sweep never revisits one
# the highest power of t a closed form expands densely; at the limit the hermitian
# form takes ~3 s on one Xeon core
CLOSED_FORM_LIMIT = 10**6


def _one_minus_power(k: int) -> IntPolynomial:
    """1 - t^k for 1 <= k <= CLOSED_FORM_LIMIT."""
    if k > CLOSED_FORM_LIMIT:
        raise InputTooLarge(f"closed form needs t^{k}, above t^{CLOSED_FORM_LIMIT}")
    return IntPolynomial([1] + [0] * (k - 1) + [-1])


@lru_cache(maxsize=RANK_MEMO_SIZE)
def poincare_split_quadric(n: int) -> IntPolynomial:
    """Poincare polynomial of a split 2n-dimensional quadric hypersurface.

    Expands (1 - t^n)(1 + t^(n-1)) / (1 - t) by exact division; the result
    has degree 2n - 2 and value 2n at t = 1.

    >>> print(poincare_split_quadric(3))
    1 + t + 2t^2 + t^3 + t^4
    """
    if n < 2:
        raise InvalidRank(f"rank n must be at least 2, got {n}")
    num = _one_minus_power(n) * IntPolynomial([1] + [0] * (n - 2) + [1])
    return exact_div(num, _ONE_MINUS_T)


@lru_cache(maxsize=RANK_MEMO_SIZE)
def poincare_split_hermitian(n: int) -> IntPolynomial:
    """Poincare polynomial of a split hermitian quadric of rank n.

    Expands (1 - t^n)(1 - t^(n-1)) / (1 - t)^2 by exact division; the result
    has degree 2n - 3 and value n(n - 1) at t = 1.

    >>> print(poincare_split_hermitian(3))
    1 + 2t + 2t^2 + t^3
    """
    if n < 2:
        raise InvalidRank(f"rank n must be at least 2, got {n}")
    num = _one_minus_power(n) * _one_minus_power(n - 1)
    return exact_div(exact_div(num, _ONE_MINUS_T), _ONE_MINUS_T)


@lru_cache(maxsize=RANK_MEMO_SIZE)
def poincare_projective(m: int, point_factor: int) -> IntPolynomial:
    """Poincare polynomial of projective m-space, scaled by the point count.

    point_factor 1 is ordinary projective space, 2 the form whose cells come
    in conjugate pairs over a quadratic extension.

    >>> print(poincare_projective(2, 2))
    2 + 2t + 2t^2
    """
    if m < 0:
        raise InvalidRank(f"projective dimension must be nonnegative, got {m}")
    if point_factor not in (1, 2):
        raise InvalidRank(f"point factor must be 1 or 2, got {point_factor}")
    return exact_div(_one_minus_power(m + 1), _ONE_MINUS_T) * point_factor


def poincare_quadric_of_dim(d: int) -> IntPolynomial:
    """Poincare polynomial of a split quadric of variety dimension d.

    One cell per degree, with the middle degree doubled when d is even.
    Agrees with poincare_split_quadric(n) at d = 2n - 2.
    """
    if d < 0:
        raise InvalidRank(f"variety dimension must be nonnegative, got {d}")
    coeffs = [1] * (d + 1)
    if d % 2 == 0:
        coeffs[d // 2] += 1
    return IntPolynomial(coeffs)
