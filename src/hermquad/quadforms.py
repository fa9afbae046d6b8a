"""Quadratic form arithmetic over the rationals, by exact local analysis.

Forms are diagonal with entries kept as square classes (squarefree nonzero
integers).  Hilbert symbols, Hasse invariants and signatures classify forms
over every completion; local-global principles then answer the global
questions: isotropy, Witt indices, hyperbolicity over a quadratic extension
Q(sqrt a), and the Milnor-Husemoller criterion for a form to underlie a
hermitian form.  No arithmetic ever happens in the extension field itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Union

from .errors import InvalidExtension, InvalidRank, UnsupportedDimension, ZeroValue

Rational = Union[int, Fraction]


def _split_valuation(n: int, p: int) -> tuple[int, int]:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def _factor(n: int) -> Iterator[tuple[int, int]]:
    """Prime powers (p, e) of a positive integer, ascending, by trial division.

    Lazy, so a caller that needs only the least factor, or only the first
    square factor, stops there.
    """
    d = 2
    while d * d <= n:
        if n % d == 0:
            e, n = _split_valuation(n, d)
            yield d, e
        d = 3 if d == 2 else d + 2
    if n > 1:
        yield n, 1


@dataclass(frozen=True, order=True)
class SquareClass:
    """An element of Q*/(Q*)^2, represented by its squarefree integer."""

    value: int

    def __post_init__(self):
        if self.value == 0:
            raise ZeroValue("0 has no square class")
        if any(e > 1 for _, e in _factor(abs(self.value))):
            raise ValueError(
                f"{self.value} is not squarefree; use normalize_square_class"
            )

    @classmethod
    def _of_squarefree(cls, value: int) -> "SquareClass":
        """Wrap a nonzero value already known to be squarefree, unchecked."""
        c = object.__new__(cls)
        object.__setattr__(c, "value", value)
        return c

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        # a/g and b/g are coprime and squarefree, so their product is too
        g = math.gcd(self.value, other.value)
        return SquareClass._of_squarefree((self.value // g) * (other.value // g))

    def __neg__(self) -> "SquareClass":
        return SquareClass._of_squarefree(-self.value)

    @property
    def is_trivial(self) -> bool:
        return self.value == 1

    def __str__(self) -> str:
        return str(self.value)


ONE = SquareClass(1)


def normalize_square_class(x: Rational) -> SquareClass:
    """Squarefree integer representative of a nonzero rational mod squares.

    A fraction p/q lands in the class of p*q, so denominators never need
    separate treatment.
    """
    frac = Fraction(x)
    if frac == 0:
        raise ZeroValue("0 has no square class")
    n = frac.numerator * frac.denominator
    part = math.prod(p for p, e in _factor(abs(n)) if e & 1)
    return SquareClass._of_squarefree(part if n > 0 else -part)


@dataclass(frozen=True)
class Place:
    """A completion of Q: the real place, or the p-adics for a prime p."""

    prime: int | None = None

    def __post_init__(self):
        p = self.prime
        if p is not None and (p < 2 or next(_factor(p))[0] != p):
            raise ValueError(f"{p} is not prime")

    @property
    def is_real(self) -> bool:
        return self.prime is None

    def __str__(self) -> str:
        return "real" if self.prime is None else str(self.prime)


REAL = Place()
DYADIC = Place(2)


@dataclass(frozen=True)
class DiagonalQuadraticForm:
    """A nondegenerate diagonal form <a1, ..., ad> over Q.

    Entries are square classes, so scaling any entry by a nonzero square
    gives the same object.
    """

    entries: tuple[SquareClass, ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("a form needs at least one entry")

    @classmethod
    def from_rationals(cls, values: Iterable[Rational]) -> "DiagonalQuadraticForm":
        return cls(tuple(normalize_square_class(v) for v in values))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __str__(self) -> str:
        return "<" + ", ".join(str(e) for e in self.entries) + ">"


@dataclass(frozen=True)
class HermitianSpace:
    """A diagonalized hermitian space over Q(sqrt a).

    a is a nonsquare class and the diagonal entries b_i are nonzero
    rationals fixed by conjugation.
    """

    a: SquareClass
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if self.a.is_trivial:
            raise InvalidExtension("a = 1 defines no quadratic extension")
        if not self.entries:
            raise ValueError("a hermitian space needs at least one entry")
        if any(b == 0 for b in self.entries):
            raise ZeroValue("hermitian diagonal entries must be nonzero")

    @classmethod
    def from_rationals(
        cls, a: Rational, entries: Iterable[Rational]
    ) -> "HermitianSpace":
        return cls(normalize_square_class(a), tuple(Fraction(b) for b in entries))

    @property
    def rank(self) -> int:
        return len(self.entries)


def trace_form(h: HermitianSpace) -> DiagonalQuadraticForm:
    """The quadratic form <b1, -a b1, ..., bn, -a bn> underlying h."""
    entries: list[SquareClass] = []
    for b in h.entries:
        c = normalize_square_class(b)
        entries += (c, -h.a * c)
    return DiagonalQuadraticForm(tuple(entries))


def determinant_class(q: DiagonalQuadraticForm) -> SquareClass:
    """Product of the diagonal entries, as a square class."""
    return math.prod(q.entries, start=ONE)


def _legendre(u: int, p: int) -> int:
    # u must be a unit at the odd prime p
    return 1 if pow(u % p, (p - 1) // 2, p) == 1 else -1


def _hilbert(x: int, y: int, v: Place) -> int:
    """Hilbert symbol (x, y) at v for nonzero integers, by the unit formulas."""
    if x == 0 or y == 0:
        raise ZeroValue("Hilbert symbols need nonzero arguments")
    if v.is_real:
        return -1 if (x < 0 and y < 0) else 1
    p = v.prime
    alpha, u = _split_valuation(x, p)
    beta, w = _split_valuation(y, p)
    if p == 2:
        # epsilon(z) = (z-1)/2 and omega(z) = (z^2-1)/8, both mod 2
        exp = (((u - 1) // 2) & 1) * (((w - 1) // 2) & 1)
        exp += alpha * (((w * w - 1) // 8) & 1)
        exp += beta * (((u * u - 1) // 8) & 1)
        return -1 if exp & 1 else 1
    exp = 0
    if (alpha & 1) and (beta & 1) and p % 4 == 3:
        exp += 1
    if (beta & 1) and _legendre(u, p) == -1:
        exp += 1
    if (alpha & 1) and _legendre(w, p) == -1:
        exp += 1
    return -1 if exp & 1 else 1


def hilbert_symbol(x: SquareClass, y: SquareClass, v: Place) -> int:
    """The Hilbert symbol (x, y)_v, +1 or -1."""
    return _hilbert(x.value, y.value, v)


def hasse_invariant(q: DiagonalQuadraticForm, v: Place) -> int:
    """Product of (a_i, a_j)_v over all index pairs i < j.

    By bimultiplicativity that is the product over j of (a_j, a_1...a_{j-1})_v,
    one symbol per entry against the running product of the ones before it.
    """
    out = 1
    prefix = ONE
    for e in q.entries:
        out *= _hilbert(e.value, prefix.value, v)
        prefix = prefix * e
    return out


def is_local_square(c: SquareClass, v: Place) -> bool:
    """Whether the class is a square in the completion at v."""
    if v.is_real:
        return c.value > 0
    val, u = _split_valuation(c.value, v.prime)
    if val & 1:
        return False
    if v.prime == 2:
        return u % 8 == 1
    return _legendre(u, v.prime) == 1


def relevant_places(
    q: DiagonalQuadraticForm, extras: Iterable[SquareClass] = ()
) -> tuple[Place, ...]:
    """The real place, 2, and every odd prime dividing an entry or extra.

    Outside this set all entries are units at an odd prime, where no local
    invariant of the form can change.
    """
    primes: set[int] = set()
    for c in (*q.entries, *extras):
        primes.update(p for p, _ in _factor(abs(c.value)) if p != 2)
    return (REAL, DYADIC, *(Place(p) for p in sorted(primes)))


def _signature_counts(q: DiagonalQuadraticForm) -> tuple[int, int]:
    pos = sum(1 for e in q.entries if e.value > 0)
    return pos, q.dim - pos


def _local_anisotropic_data(
    q: DiagonalQuadraticForm, v: Place
) -> tuple[int, SquareClass]:
    """(dimension, determinant class) of the anisotropic kernel at a finite v.

    Walks the invariant triple (dim, det, hasse) down one hyperbolic plane
    at a time.  Isotropy per dimension: any form of dim >= 5 is isotropic at
    a finite place; dim 4 unless det is a square and hasse differs from
    (-1,-1)_v; dim 3 iff (-1,-det)_v equals hasse; dim 2 iff -det is a local
    square.  Splitting off a plane negates det and multiplies hasse by
    (-1,-det)_v.
    """
    n = q.dim
    d = determinant_class(q)
    eps = hasse_invariant(q, v)
    while n >= 2:
        if n == 2:
            iso = is_local_square(-d, v)
        elif n == 3:
            iso = _hilbert(-1, (-d).value, v) == eps
        elif n == 4:
            iso = (not is_local_square(d, v)) or eps == _hilbert(-1, -1, v)
        else:
            iso = True
        if not iso:
            break
        eps *= _hilbert(-1, (-d).value, v)
        d = -d
        n -= 2
    return n, d


def local_witt_index(q: DiagonalQuadraticForm, v: Place) -> int:
    """Number of hyperbolic planes split off by q over the completion at v."""
    if v.is_real:
        pos, neg = _signature_counts(q)
        return min(pos, neg)
    dim_an, _ = _local_anisotropic_data(q, v)
    return (q.dim - dim_an) // 2


def global_witt_index(q: DiagonalQuadraticForm) -> int:
    """Witt index over Q: the minimum of the local indices.

    Strong approximation never helps beyond the relevant places, and at any
    other place the local index is at least the overall minimum, so the
    minimum over relevant places is already the global value.
    """
    return min(local_witt_index(q, v) for v in relevant_places(q))


def is_isotropic_global(q: DiagonalQuadraticForm) -> bool:
    """Whether q has a nontrivial rational zero."""
    return global_witt_index(q) >= 1


def is_anisotropic_hermitian(h: HermitianSpace) -> bool:
    """Anisotropy of a hermitian space, read off from its trace form."""
    return not is_isotropic_global(trace_form(h))


@dataclass(frozen=True)
class Witness:
    """One reason a hyperbolicity or hermitian-descent check failed."""

    place: str
    clause: str


def _hyperbolic_failures(q: DiagonalQuadraticForm, a: SquareClass) -> list[Witness]:
    """All obstructions to q becoming hyperbolic over Q(sqrt a).

    The Witt kernel of the extension is the ideal generated by <1, -a>, so
    locally the anisotropic kernel must be trivial, binary of determinant
    -a, or the unique four-dimensional class, and at completions where a is
    already a square q itself must be hyperbolic.  Any form in the ideal
    also has det * (-1)^(dim/2) equal to 1 or a globally; that is checked up
    front because a mismatch supported away from the entries would otherwise
    hide at places where the form happens to be locally hyperbolic.
    """
    if a.is_trivial:
        raise InvalidExtension("a = 1 defines no quadratic extension")
    if q.dim % 2 == 1:
        return [Witness("global", "odd_dimension")]
    failures: list[Witness] = []
    half = q.dim // 2
    det = determinant_class(q)
    induced = det if half % 2 == 0 else -det
    if induced.value not in (1, a.value):
        failures.append(Witness("global", "determinant_class_not_induced"))
    for v in relevant_places(q, (a,)):
        if v.is_real:
            if a.value > 0:
                pos, neg = _signature_counts(q)
                if pos != neg:
                    failures.append(Witness(str(v), "nonzero_signature"))
            # a < 0: the completion of L is complex, even dimension suffices
        elif is_local_square(a, v):
            if 2 * local_witt_index(q, v) != q.dim:
                failures.append(Witness(str(v), "not_hyperbolic_at_split_place"))
        else:
            dim_an, det_an = _local_anisotropic_data(q, v)
            ok = (
                dim_an == 0
                or dim_an == 4
                or (dim_an == 2 and is_local_square(det_an * -a, v))
            )
            if not ok:
                failures.append(Witness(str(v), "kernel_not_divisible"))
    return failures


def is_hyperbolic_over_extension(q: DiagonalQuadraticForm, a: SquareClass) -> bool:
    """Whether q becomes hyperbolic over Q(sqrt a)."""
    return not _hyperbolic_failures(q, a)


@dataclass(frozen=True)
class MHReport:
    """The three clauses of the hermitian-descent criterion, with witnesses."""

    dim_ok: bool
    hyperbolic_over_l: bool
    det_ok: bool
    passes: bool
    witnesses: tuple[Witness, ...]


def milnor_husemoller_check(q: DiagonalQuadraticForm, a: SquareClass) -> MHReport:
    """Decide whether q underlies a hermitian form over Q(sqrt a).

    The criterion: dim q = 2n is even, q becomes hyperbolic over the
    extension, and det q = (-a)^n.  Witnesses localize each failure to a
    place, or to "global" for the dimension and determinant clauses.
    """
    if a.is_trivial:
        raise InvalidExtension("a = 1 defines no quadratic extension")
    dim_ok = q.dim % 2 == 0
    half = q.dim // 2
    hyp_failures = _hyperbolic_failures(q, a)
    required = ONE if half % 2 == 0 else -a
    det_ok = determinant_class(q) == required
    witnesses = list(hyp_failures)
    if not det_ok:
        witnesses.append(Witness("global", "determinant_mismatch"))
    passes = dim_ok and not hyp_failures and det_ok
    return MHReport(dim_ok, not hyp_failures, det_ok, passes, tuple(witnesses))


def essential_dimension(n: int, i1: int) -> int:
    """Essential dimension of a rank n hermitian space with first Witt index i1.

    dim of the hermitian quadric, minus the Witt index of the trace form,
    plus 2 for the defect of the generic splitting construction.
    """
    if n < 2:
        raise InvalidRank(f"rank n must be at least 2, got {n}")
    if i1 < 1:
        raise InvalidRank(f"first Witt index must be at least 1, got {i1}")
    if i1 > n:
        # the trace form has dimension 2n, so its Witt index is at most n
        raise InvalidRank(f"first Witt index must be at most n = {n}, got {i1}")
    return (2 * n - 3) - i1 + 2


def first_witt_index_special(dim_q: int) -> int:
    """First Witt index 2 of an anisotropic trace form of dimension 2^r + 2.

    Two above a power of two, Karpenko's bounds leave i1 in {1, 2} for any
    anisotropic form, and a generic one has i1 = 1.  A form divisible by a
    binary form, such as a trace form, has even i1, which pins it at 2; that
    is the case answered here.  Every other dimension is refused rather than
    guessed at.
    """
    if dim_q % 2 == 1 or dim_q < 4 or (dim_q - 2) & (dim_q - 3) != 0:
        raise UnsupportedDimension(
            f"first Witt index is only determined here for dimensions 2^r + 2, got {dim_q}"
        )
    return 2
