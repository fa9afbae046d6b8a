import doctest

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hermquad.poly

from hermquad.errors import DivisionByZero, InputTooLarge, InvalidRank, NonExactDivision
from hermquad.poly import (
    CLOSED_FORM_LIMIT,
    IntPolynomial,
    exact_div,
    poincare_projective,
    poincare_quadric_of_dim,
    poincare_split_hermitian,
    poincare_split_quadric,
)

from support import convolve

polys = st.builds(IntPolynomial, st.lists(st.integers(-9, 9), max_size=8))
nonzero_polys = polys.filter(lambda p: not p.is_zero())


class TestRingOps:
    def test_trailing_zeros_trimmed(self):
        assert IntPolynomial([1, 2, 0, 0]).coefficients == (1, 2)
        assert IntPolynomial([0, 0]).is_zero()

    def test_square_of_one_plus_t(self):
        p = IntPolynomial([1, 1])
        assert (p * p).coefficients == (1, 2, 1)

    def test_shift_and_scalar(self):
        p = IntPolynomial([1, 1])
        assert p.shift(2).coefficients == (0, 0, 1, 1)
        assert (2 * p).coefficients == (2, 2)
        assert IntPolynomial([5, 1]).coefficient(0) == 5

    def test_degree_of_zero_is_an_error(self):
        with pytest.raises(ValueError):
            IntPolynomial().degree

    def test_str_rendering(self):
        assert str(IntPolynomial([1, 2, 1])) == "1 + 2t + t^2"
        assert str(IntPolynomial([0, 2, 0, -1])) == "2t - t^3"
        assert str(IntPolynomial()) == "0"

    @given(polys, polys, polys)
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    @given(polys, st.integers(-5, 5))
    def test_evaluate_is_a_homomorphism(self, p, x):
        q = IntPolynomial([1, 2])
        assert (p * q).evaluate(x) == p.evaluate(x) * q.evaluate(x)
        assert (p + q).evaluate(x) == p.evaluate(x) + q.evaluate(x)


class TestExactDiv:
    def test_known_quotient(self):
        num = IntPolynomial([1, 1, 1, 2, 1, 1, 1])
        den = IntPolynomial([1, 1, 1, 1])
        assert exact_div(num, den).coefficients == (1, 0, 0, 1)

    def test_inexact_division_raises(self):
        with pytest.raises(NonExactDivision):
            exact_div(IntPolynomial([1, 0, 1]), IntPolynomial([1, 1]))

    def test_zero_divisor_raises(self):
        with pytest.raises(DivisionByZero):
            exact_div(IntPolynomial([1]), IntPolynomial())

    def test_zero_dividend(self):
        assert exact_div(IntPolynomial(), IntPolynomial([1, 1])).is_zero()

    @given(polys, nonzero_polys)
    def test_round_trip(self, a, b):
        assert exact_div(a * b, b) == a


class TestPoincareConstructors:
    def test_split_quadric_small(self):
        assert poincare_split_quadric(2).coefficients == (1, 2, 1)
        assert poincare_split_quadric(3).coefficients == (1, 1, 2, 1, 1)

    def test_split_hermitian_small(self):
        assert poincare_split_hermitian(2).coefficients == (1, 1)
        assert poincare_split_hermitian(3).coefficients == (1, 2, 2, 1)
        assert poincare_split_hermitian(5).coefficients == (1, 2, 3, 4, 4, 3, 2, 1)

    def test_projective(self):
        assert poincare_projective(2, 2).coefficients == (2, 2, 2)
        assert poincare_projective(0, 1).coefficients == (1,)

    def test_rank_validation(self):
        with pytest.raises(InvalidRank):
            poincare_split_quadric(1)
        with pytest.raises(InvalidRank):
            poincare_split_hermitian(1)
        with pytest.raises(InvalidRank):
            poincare_projective(-1, 1)
        with pytest.raises(InvalidRank):
            poincare_projective(3, 3)

    def test_closed_form_limit(self, monkeypatch):
        # the first rank of each form that needs t^(CLOSED_FORM_LIMIT + 1)
        for too_large in (
            lambda: poincare_split_quadric(CLOSED_FORM_LIMIT + 1),
            lambda: poincare_split_hermitian(CLOSED_FORM_LIMIT + 1),
            lambda: poincare_projective(CLOSED_FORM_LIMIT, 2),
        ):
            with pytest.raises(InputTooLarge):
                too_large()
        # the limit itself is accepted, checked on a small stand-in value
        monkeypatch.setattr(hermquad.poly, "CLOSED_FORM_LIMIT", 5)
        assert hermquad.poly._one_minus_power(5).coefficients == (1, 0, 0, 0, 0, -1)
        with pytest.raises(InputTooLarge):
            hermquad.poly._one_minus_power(6)

    @pytest.mark.parametrize("n", range(2, 201))
    def test_values_at_one(self, n):
        assert poincare_split_quadric(n).evaluate(1) == 2 * n
        assert poincare_split_hermitian(n).evaluate(1) == n * (n - 1)

    def test_degrees_and_nonnegativity(self):
        for n in range(2, 101):
            q = poincare_split_quadric(n)
            h = poincare_split_hermitian(n)
            assert q.degree == 2 * n - 2
            assert h.degree == 2 * n - 3
            assert all(c >= 0 for c in q.coefficients)
            assert all(c >= 0 for c in h.coefficients)

    def test_hermitian_matches_convolution_oracle(self):
        # independent construction: product of two all-ones sequences
        for n in range(2, 31):
            expected = tuple(convolve([1] * n, [1] * (n - 1)))
            assert poincare_split_hermitian(n).coefficients == expected

    def test_quadric_matches_cellular_rule(self):
        for n in range(2, 51):
            assert poincare_split_quadric(n) == poincare_quadric_of_dim(2 * n - 2)

    def test_cellular_rule_parities(self):
        assert poincare_quadric_of_dim(0).coefficients == (2,)
        assert poincare_quadric_of_dim(1).coefficients == (1, 1)
        assert poincare_quadric_of_dim(2).coefficients == (1, 2, 1)
        assert poincare_quadric_of_dim(3).coefficients == (1, 1, 1, 1)


def test_docstring_examples():
    results = doctest.testmod(hermquad.poly)
    assert results.failed == 0
    assert results.attempted > 0
