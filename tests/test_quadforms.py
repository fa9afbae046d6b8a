import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hermquad.quadforms
from hermquad.errors import (
    InputTooLarge,
    InvalidExtension,
    InvalidRank,
    UnsupportedDimension,
    ZeroValue,
)
from hermquad.quadforms import (
    DYADIC,
    ONE,
    REAL,
    DiagonalQuadraticForm,
    HermitianSpace,
    MHReport,
    Place,
    SquareClass,
    Witness,
    determinant_class,
    essential_dimension,
    first_witt_index_special,
    global_witt_index,
    hasse_invariant,
    hilbert_symbol,
    is_anisotropic_hermitian,
    is_hyperbolic_over_extension,
    is_isotropic_global,
    is_local_square,
    local_witt_index,
    milnor_husemoller_check,
    normalize_square_class,
    relevant_places,
    trace_form,
)
from support import (
    SEED,
    hilbert_by_solvability,
    random_forms,
    random_hermitian_spaces,
    search_isotropy,
)

Q = DiagonalQuadraticForm.from_rationals

SAMPLE_CLASSES = [SquareClass(v) for v in (1, -1, 2, -2, 3, -3, 5, -5, 7, -7, 10, -10, 30, -30)]
SAMPLE_PLACES = (REAL, DYADIC, Place(3), Place(5), Place(7))
SMALL_PRIMES = (2, 3, 5, 7)

# squarefree classes built from small primes and primes near 10^4, so that
# products include squarefree semiprimes with both factors near 10^4
squarefree_ints = st.builds(
    lambda sign, primes: sign * math.prod(primes),
    st.sampled_from((1, -1)),
    st.sets(st.sampled_from((2, 3, 5, 7, 11, 9967, 9973, 10007, 10009)), max_size=3),
)


class TestSquareClass:
    def test_normalize_goldens(self):
        assert normalize_square_class(18).value == 2
        assert normalize_square_class(-12).value == -3
        assert normalize_square_class(Fraction(2, 3)).value == 6
        assert normalize_square_class(Fraction(1, 4)).value == 1
        assert normalize_square_class(Fraction(-9, 2)).value == -2

    def test_zero_has_no_class(self):
        with pytest.raises(ZeroValue):
            normalize_square_class(0)
        with pytest.raises(ZeroValue):
            SquareClass(0)

    def test_constructor_rejects_non_squarefree(self):
        with pytest.raises(ValueError):
            SquareClass(12)

    def test_factoring_limit(self):
        # every integer below 10^12 factors; past it, a cofactor with no
        # prime factor up to 10^6 is refused instead of searched for
        assert normalize_square_class(999983 * 999979).value == 999983 * 999979
        assert normalize_square_class(-4 * 999983**2).value == -1
        with pytest.raises(InputTooLarge):
            normalize_square_class((10**9 + 7) * (10**9 + 9))
        with pytest.raises(InputTooLarge):
            SquareClass((10**9 + 7) * (10**9 + 9))

    def test_group_law(self):
        assert SquareClass(2) * SquareClass(6) == SquareClass(3)
        assert -SquareClass(5) == SquareClass(-5)
        assert (SquareClass(7) * SquareClass(7)).is_trivial

    @given(squarefree_ints, squarefree_ints)
    def test_group_law_matches_normalization(self, x, y):
        assert SquareClass(x) * SquareClass(y) == normalize_square_class(x * y)
        assert -SquareClass(x) == normalize_square_class(-x)

    def test_arithmetic_never_factors(self, monkeypatch):
        c, d = SquareClass(9973 * 10007), SquareClass(-10007 * 3)
        q = Q([9973 * 10007, -10007 * 3, 5, -1, 2 * 9967])
        places = (REAL, DYADIC, Place(3), Place(10007))

        def refuse(n):
            raise AssertionError(f"factored {n}")

        monkeypatch.setattr(hermquad.quadforms, "_factor", refuse)
        assert (c * d).value == -9973 * 3
        assert (-c).value == -9973 * 10007
        assert determinant_class(q).value == 9973 * 3 * 5 * 2 * 9967
        for v in places:
            hasse_invariant(q, v)

    @given(
        st.fractions(min_value=-100, max_value=100, max_denominator=30).filter(
            lambda x: x != 0
        ),
        st.integers(min_value=1, max_value=30),
    )
    def test_square_factors_vanish(self, x, k):
        assert normalize_square_class(x * k * k) == normalize_square_class(x)


class TestPlace:
    def test_prime_validation(self):
        with pytest.raises(ValueError):
            Place(4)
        with pytest.raises(ValueError):
            Place(1)
        with pytest.raises(ValueError, match="2000006 is not prime"):
            Place(2 * 1000003)

    def test_factoring_limit(self):
        assert Place(10**12 + 39).prime == 10**12 + 39
        with pytest.raises(InputTooLarge):
            Place(10**18 + 3)

    def test_real_place(self):
        assert REAL.is_real
        assert not DYADIC.is_real
        assert str(REAL) == "real"
        assert str(Place(13)) == "13"


class TestFormsAndSpaces:
    def test_empty_form_rejected(self):
        with pytest.raises(ValueError):
            DiagonalQuadraticForm(())

    def test_str(self):
        assert str(Q([1, -2])) == "<1, -2>"

    def test_hermitian_validation(self):
        with pytest.raises(InvalidExtension):
            HermitianSpace.from_rationals(4, [1, 1])
        with pytest.raises(ZeroValue):
            HermitianSpace.from_rationals(2, [1, 0])
        with pytest.raises(ValueError):
            HermitianSpace.from_rationals(2, [])

    def test_trace_form_golden(self):
        h = HermitianSpace.from_rationals(2, [1, 1])
        assert trace_form(h) == Q([1, -2, 1, -2])

    def test_trace_form_clears_denominators(self):
        h = HermitianSpace.from_rationals(2, [Fraction(1, 3)])
        assert trace_form(h) == Q([3, -6])

    def test_trace_form_shape(self):
        for a, entries in random_hermitian_spaces(40):
            h = HermitianSpace.from_rationals(a, entries)
            q = trace_form(h)
            assert q.dim == 2 * h.rank
            expected_det = normalize_square_class((-a) ** h.rank)
            assert determinant_class(q) == expected_det


class TestHilbertSymbol:
    def test_goldens(self):
        assert hilbert_symbol(SquareClass(2), SquareClass(-3), DYADIC) == -1
        assert hilbert_symbol(SquareClass(-1), SquareClass(-1), REAL) == -1
        assert hilbert_symbol(SquareClass(-1), SquareClass(-1), Place(5)) == 1
        assert hilbert_symbol(SquareClass(2), SquareClass(7), Place(7)) == 1
        assert hilbert_symbol(SquareClass(3), SquareClass(7), Place(7)) == -1

    def test_matches_solvability_oracle(self):
        for p in SMALL_PRIMES:
            for x in SAMPLE_CLASSES:
                for y in SAMPLE_CLASSES:
                    assert hilbert_symbol(x, y, Place(p)) == hilbert_by_solvability(
                        x.value, y.value, p
                    ), (x, y, p)

    def test_symmetry_and_range(self):
        for v in SAMPLE_PLACES:
            for x in SAMPLE_CLASSES:
                for y in SAMPLE_CLASSES:
                    s = hilbert_symbol(x, y, v)
                    assert s in (1, -1)
                    assert s == hilbert_symbol(y, x, v)

    def test_bimultiplicative(self):
        for v in SAMPLE_PLACES:
            for x in SAMPLE_CLASSES:
                for x2 in SAMPLE_CLASSES:
                    for y in SAMPLE_CLASSES[:7]:
                        lhs = hilbert_symbol(x * x2, y, v)
                        rhs = hilbert_symbol(x, y, v) * hilbert_symbol(x2, y, v)
                        assert lhs == rhs

    def test_x_with_minus_x(self):
        for v in SAMPLE_PLACES:
            for x in SAMPLE_CLASSES:
                assert hilbert_symbol(x, -x, v) == 1

    def test_product_formula(self):
        # the symbol is 1 at every place outside relevant_places of <x, y>
        for x in SAMPLE_CLASSES:
            for y in SAMPLE_CLASSES:
                places = relevant_places(DiagonalQuadraticForm((x, y)))
                prod = 1
                for v in places:
                    prod *= hilbert_symbol(x, y, v)
                assert prod == 1


class TestHasseInvariant:
    def test_goldens(self):
        assert hasse_invariant(Q([2, -3]), DYADIC) == -1
        assert hasse_invariant(Q([-1, -1]), REAL) == -1

    def test_matches_pairwise_solvability_oracle(self):
        # the library takes one symbol per entry; the oracle takes every pair
        symbol = functools.cache(hilbert_by_solvability)
        for entries in random_forms(300, dim_max=8, bound=30):
            q = Q(entries)
            for p in SMALL_PRIMES:
                expected = math.prod(
                    symbol(*sorted(pair), p) for pair in itertools.combinations(entries, 2)
                )
                assert hasse_invariant(q, Place(p)) == expected, (entries, p)

    def test_all_ones_form_trivial(self):
        for v in SAMPLE_PLACES:
            assert hasse_invariant(Q([1, 1, 1]), v) == 1

    def test_unit_entry_is_neutral(self):
        base = Q([2, -3, 5])
        padded = Q([1, 2, -3, 5])
        for v in SAMPLE_PLACES:
            assert hasse_invariant(base, v) == hasse_invariant(padded, v)


class TestLocalSquares:
    def test_goldens(self):
        assert is_local_square(SquareClass(2), Place(7))
        assert not is_local_square(SquareClass(2), DYADIC)
        assert is_local_square(SquareClass(17), DYADIC)
        assert not is_local_square(SquareClass(-1), REAL)
        assert is_local_square(SquareClass(-1), Place(5))
        assert not is_local_square(SquareClass(5), Place(5))


class TestRelevantPlaces:
    def test_collects_odd_support(self):
        places = relevant_places(Q([1, -5]), (SquareClass(205),))
        assert places == (REAL, DYADIC, Place(5), Place(41))

    def test_always_has_real_and_dyadic(self):
        assert relevant_places(Q([1])) == (REAL, DYADIC)
        assert relevant_places(Q([6])) == (REAL, DYADIC, Place(3))


class TestWittIndices:
    WITT_TABLE = [
        ([1, -1], 1),
        ([1, 1], 0),
        ([1, 2, -3], 1),
        ([1, 1, -1, -1], 2),
        ([1, 1, 1, 1, 1], 0),
    ]

    @pytest.mark.parametrize("entries,expected", WITT_TABLE)
    def test_global_table(self, entries, expected):
        assert global_witt_index(Q(entries)) == expected

    def test_local_golden(self):
        assert local_witt_index(Q([1, 1, 1, 1, 1]), Place(3)) == 2

    def test_real_index_is_min_signature(self):
        assert local_witt_index(Q([1, 1, -1]), REAL) == 1
        assert local_witt_index(Q([1, 1, 1, 1, 1]), REAL) == 0

    def test_matches_bounded_search(self):
        for entries in random_forms(100):
            q = Q(entries)
            assert is_isotropic_global(q) == search_isotropy(entries), entries

    def test_index_bounds(self):
        for entries in random_forms(60):
            q = Q(entries)
            w = global_witt_index(q)
            assert 0 <= w <= q.dim // 2
            for v in relevant_places(q):
                assert local_witt_index(q, v) >= w

    def test_witt_cancellation(self):
        # adding a hyperbolic plane <c, -c> raises every Witt index by exactly one
        rng = random.Random(SEED)
        for entries in random_forms(300, dim_max=6, bound=30):
            c = rng.choice((-1, 1)) * rng.randint(1, 30)
            q = Q(entries)
            padded = Q([c, -c, *entries])
            for v in relevant_places(padded):
                assert local_witt_index(padded, v) == local_witt_index(q, v) + 1, (c, entries, v)
            assert global_witt_index(padded) == global_witt_index(q) + 1, (c, entries)


class TestHermitianIsotropy:
    def test_definite_space_is_anisotropic(self):
        h = HermitianSpace.from_rationals(-1, [1, 1])
        assert is_anisotropic_hermitian(h)

    def test_isotropic_space(self):
        # trace form <1, -2, 1, -2> has the zero (0, 1, 2, 1)
        h = HermitianSpace.from_rationals(2, [1, 1])
        assert not is_anisotropic_hermitian(h)


class TestHyperbolicOverExtension:
    def test_goldens(self):
        assert is_hyperbolic_over_extension(Q([1, -1]), SquareClass(2))
        assert is_hyperbolic_over_extension(Q([1, -2, 1, -2]), SquareClass(2))
        assert not is_hyperbolic_over_extension(Q([1, 1, 1, 1]), SquareClass(2))
        assert is_hyperbolic_over_extension(Q([1, -5]), SquareClass(5))

    def test_global_determinant_obstruction(self):
        # every local check at the places of the entries succeeds here; only
        # the induced determinant class betrays the failure
        report = milnor_husemoller_check(Q([1, -5]), SquareClass(205))
        assert not report.hyperbolic_over_l
        assert not is_hyperbolic_over_extension(Q([1, -5]), SquareClass(205))
        local = [w for w in report.witnesses if w.place not in ("global",)]
        assert local == []
        assert Witness("global", "determinant_class_not_induced") in report.witnesses

    def test_trivial_extension_rejected(self):
        with pytest.raises(InvalidExtension):
            is_hyperbolic_over_extension(Q([1, -1]), SquareClass(1))

    def test_odd_dimension(self):
        report = milnor_husemoller_check(Q([1, -2, 3]), SquareClass(2))
        assert not report.dim_ok
        assert not report.passes
        assert Witness("global", "odd_dimension") in report.witnesses


class TestMilnorHusemoller:
    def test_trace_forms_pass(self):
        for a, entries in random_hermitian_spaces(60):
            h = HermitianSpace.from_rationals(a, entries)
            report = milnor_husemoller_check(trace_form(h), h.a)
            assert report.passes, (a, entries)
            assert report.witnesses == ()

    def test_failing_golden_witnesses(self):
        report = milnor_husemoller_check(Q([1, 1, 1, 1, 1, 1]), SquareClass(2))
        assert isinstance(report, MHReport)
        assert not report.passes
        assert report.dim_ok
        assert not report.hyperbolic_over_l
        assert not report.det_ok
        assert report.witnesses == (
            Witness("global", "determinant_class_not_induced"),
            Witness("real", "nonzero_signature"),
            Witness("2", "kernel_not_divisible"),
            Witness("global", "determinant_mismatch"),
        )

    def test_padding_by_unit_plane_passes_only_for_minus_one(self):
        # <1, 1> is itself a trace form exactly over Q(i), so padding with it
        # keeps the criterion satisfied there and breaks it everywhere else
        for a, entries in random_hermitian_spaces(60):
            h = HermitianSpace.from_rationals(a, entries)
            padded = DiagonalQuadraticForm(trace_form(h).entries + (ONE, ONE))
            report = milnor_husemoller_check(padded, h.a)
            assert report.passes == (a == -1), (a, entries)

    def test_trivial_extension_rejected(self):
        with pytest.raises(InvalidExtension):
            milnor_husemoller_check(Q([1, -1]), SquareClass(1))


class TestDimensionFormulas:
    def test_essential_dimension(self):
        assert essential_dimension(3, 2) == 3
        assert essential_dimension(5, 2) == 7
        assert essential_dimension(4, 1) == 6
        assert essential_dimension(2, 1) == 2
        assert essential_dimension(2, 2) == 1

    def test_essential_dimension_validation(self):
        with pytest.raises(InvalidRank):
            essential_dimension(1, 1)
        with pytest.raises(InvalidRank):
            essential_dimension(3, 0)
        with pytest.raises(InvalidRank):
            essential_dimension(2, 5)
        with pytest.raises(InvalidRank):
            essential_dimension(3, 4)

    @pytest.mark.parametrize("dim", [4, 6, 10, 18, 34])
    def test_first_witt_index_special(self, dim):
        assert first_witt_index_special(dim) == 2

    @pytest.mark.parametrize("dim", [2, 3, 7, 8, 12])
    def test_first_witt_index_refused(self, dim):
        with pytest.raises(UnsupportedDimension):
            first_witt_index_special(dim)
