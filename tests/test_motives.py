import random

import pytest

from hermquad.errors import InputTooLarge, InvalidRank
from hermquad.motives import (
    MotiveBase,
    MotiveExpression,
    core,
    decompose_hermitian,
    decompose_quadric,
    expand_projective_bundle,
    hermitian_quadric,
    pfister_quadric,
    proj_f,
    proj_l,
    realize_base,
    realize_split,
    solve_core,
    spec_l,
    split_quadric,
    tate,
    verify_krashen,
    vishik_core,
    vishik_solve,
)
from hermquad.poly import (
    RANK_MEMO_SIZE,
    IntPolynomial,
    poincare_projective,
    poincare_split_hermitian,
    poincare_split_quadric,
)
from support import SEED, closed_form_core, shifted_sum


def is_palindromic(p):
    c = p.coefficients
    return c == c[::-1]


class TestBasesAndExpressions:
    def test_base_validation(self):
        # each kind's range is checked once, when its MotiveBase is built;
        # decompose_quadric and decompose_hermitian rely on that check
        for build, *args in (
            (core, 1),
            (proj_l, -1),
            (proj_f, -1),
            (split_quadric, 1),
            (hermitian_quadric, 1),
            (vishik_core, 0, 2),
            (pfister_quadric, 0),
            (MotiveBase, "core", (1,)),
            (MotiveBase, "proj_l", (-1,)),
            (MotiveBase, "vishik_core", (1, 0)),
            (decompose_quadric, 1),
            (decompose_hermitian, 1),
            (expand_projective_bundle, -1),
        ):
            with pytest.raises(InvalidRank):
                build(*args)

    def test_unknown_kind_and_wrong_arity(self):
        with pytest.raises(ValueError, match="unknown motive kind"):
            MotiveBase("sphere", (2,))
        with pytest.raises(ValueError, match="takes 1 parameter"):
            MotiveBase("core", (2, 3))
        with pytest.raises(ValueError, match="takes 0 parameter"):
            MotiveBase("tate", (1,))

    def test_expression_is_canonically_sorted(self):
        e1 = MotiveExpression.of((core(4), 1), (core(4), 0))
        e2 = MotiveExpression.of((core(4), 0), (core(4), 1))
        assert e1 == e2
        # kind by name, then parameters by value, then shift
        mixed = MotiveExpression.of(
            (spec_l(), 1), (proj_l(10), 1), (core(5), 1), (proj_l(2), 3), (core(5), 0)
        )
        assert list(mixed) == [
            (core(5), 0),
            (core(5), 1),
            (proj_l(2), 3),
            (proj_l(10), 1),
            (spec_l(), 1),
        ]

    def test_negative_shift_rejected(self):
        with pytest.raises(ValueError):
            MotiveExpression.of((tate(), -1))

    def test_realize_shifted_point(self):
        expr = MotiveExpression.of((spec_l(), 2))
        assert realize_split(expr).coefficients == (0, 0, 2)

    def test_realize_pfister_quadric(self):
        assert realize_base(pfister_quadric(1)).coefficients == (2,)
        assert realize_base(pfister_quadric(2)).coefficients == (1, 2, 1)


class TestDecompositions:
    def test_quadric_even(self):
        expr = decompose_quadric(4)
        assert expr == MotiveExpression.of((core(4), 0), (core(4), 1))

    def test_quadric_odd_has_middle_point(self):
        expr = decompose_quadric(3)
        assert (spec_l(), 2) in expr.summands
        assert expr == MotiveExpression.of((core(3), 0), (core(3), 1), (spec_l(), 2))

    def test_hermitian_small(self):
        assert decompose_hermitian(2) == MotiveExpression.of((core(2), 0))
        assert decompose_hermitian(3) == MotiveExpression.of(
            (core(3), 0), (proj_l(1), 1)
        )
        assert decompose_hermitian(4) == MotiveExpression.of(
            (core(4), 0), (proj_l(3), 1)
        )

    def test_realizations_match_closed_forms(self):
        for n in range(2, 61):
            assert realize_split(decompose_quadric(n)) == poincare_split_quadric(n)
            assert realize_split(decompose_hermitian(n)) == poincare_split_hermitian(n)

    def test_quadric_realization_golden(self):
        assert realize_split(decompose_quadric(4)).coefficients == (1, 1, 1, 2, 1, 1, 1)

    def test_projective_bundle(self):
        for m in range(0, 51):
            expr = expand_projective_bundle(m)
            assert len(expr) == m + 1
            assert all(base == tate() for base, _ in expr)
            assert realize_split(expr) == poincare_projective(m, 1)

    def test_projective_bundle_limit(self):
        assert len(expand_projective_bundle(10**4)) == 10**4 + 1
        with pytest.raises(InputTooLarge):
            expand_projective_bundle(10**4 + 1)
        # every ladder shares the limit: rank 10003 is the first past it
        for too_large in (solve_core, decompose_hermitian, verify_krashen):
            with pytest.raises(InputTooLarge):
                too_large(10**4 + 3)
        # built but not realized: the last accepted rank and the one below it
        assert len(decompose_hermitian(10**4 + 2)) == 5001
        assert len(decompose_hermitian(10**4 + 1)) == 5001


# every kind, small parameters; vishik_core(3, 1) realizes to zero
REALIZATION_BASES = (
    tate(), spec_l(), proj_l(0), proj_l(4), proj_f(3), split_quadric(3),
    hermitian_quadric(4), core(5), core(6), vishik_core(2, 2), vishik_core(3, 1),
    pfister_quadric(2),
)

# shift multisets realize_split must treat alike: repeats, uneven gaps, ladders
SHIFT_PATTERNS = {
    "repeated": lambda rng: [rng.randint(0, 4) for _ in range(9)],
    "repeated_even": lambda rng: [2 * rng.randint(0, 4) for _ in range(9)],
    "mixed_gaps": lambda rng: [0, 3, 7, 8],
    "ladder_step_1": lambda rng: list(range(rng.randint(0, 3), 25)),
    "ladder_step_2": lambda rng: list(range(rng.randint(0, 3), 25, 2)),
    "ladder_step_3": lambda rng: list(range(rng.randint(0, 3), 25, 3)),
    "doubled_ladder": lambda rng: 2 * list(range(1, rng.randint(2, 12), 2)),
    "single": lambda rng: [rng.randint(0, 9)],
    "empty": lambda rng: [],
}


class TestRealizeSplit:
    @pytest.mark.parametrize("pattern", sorted(SHIFT_PATTERNS))
    def test_matches_shifted_sum_oracle(self, pattern):
        rng = random.Random(SEED)
        for _ in range(20):
            summands = [
                (base, shift)
                for base in rng.sample(REALIZATION_BASES, rng.randint(1, 3))
                for shift in SHIFT_PATTERNS[pattern](rng)
            ]
            expected = shifted_sum(
                (realize_base(base).coefficients, shift) for base, shift in summands
            )
            got = realize_split(MotiveExpression.of(*summands))
            assert list(got.coefficients) == expected, summands

    def test_single_summand_and_empty(self):
        assert realize_split(MotiveExpression.of()) == IntPolynomial()
        assert realize_split(MotiveExpression.of((proj_l(2), 3))).coefficients == (
            0, 0, 0, 2, 2, 2,
        )


class TestCore:
    def test_golden_values(self):
        assert solve_core(2).coefficients == (1, 1)
        assert solve_core(3).coefficients == (1, 0, 0, 1)
        assert solve_core(5).coefficients == (1, 0, 1, 0, 0, 1, 0, 1)

    def test_rank_validation(self):
        with pytest.raises(InvalidRank):
            solve_core(1)

    @pytest.mark.parametrize("n", range(2, 61))
    def test_shape(self, n):
        p = solve_core(n)
        assert p.degree == 2 * n - 3
        assert all(c >= 0 for c in p.coefficients)
        assert is_palindromic(p)
        assert p.evaluate(1) == (n if n % 2 == 0 else n - 1)
        assert p.coefficients == tuple(closed_form_core(n))


class TestKrashenIdentity:
    def test_report_fields(self):
        report = verify_krashen(3)
        assert report.n == 3
        assert report.holds
        assert report.lhs.coefficients == (1, 3, 4, 3, 1)
        assert report.rhs == report.lhs

    def test_holds_up_to_60(self):
        assert all(verify_krashen(n).holds for n in range(2, 61))

    def test_rank_validation(self):
        with pytest.raises(InvalidRank):
            verify_krashen(1)

    def test_memo_tables_stay_bounded(self):
        # the three poly closed forms and solve_core: a sweep must not keep
        # one entry per rank it has passed
        tables = (
            poincare_split_quadric,
            poincare_split_hermitian,
            poincare_projective,
            solve_core,
        )
        for n in range(2, 201):
            verify_krashen(n)
            solve_core(n)
        for table in tables:
            assert table.cache_info().currsize <= RANK_MEMO_SIZE

    def test_ladder_base_realized_once(self):
        # the ladder holds proj_l(n - 1) n - 2 times; realize_split realizes it once
        poincare_projective.cache_clear()
        verify_krashen(300)
        info = poincare_projective.cache_info()
        assert info.hits + info.misses <= 1

    @pytest.mark.parametrize("n", [10**4 + 1, 10**4 + 2])
    def test_at_the_ladder_limit(self, n):
        # the two largest accepted ranks, one of each parity
        assert solve_core(n).coefficients == tuple(closed_form_core(n))
        assert verify_krashen(n).holds


class TestVishik:
    def test_golden_values(self):
        assert vishik_solve(2, 2).core.coefficients == (1, 0, 0, 1)
        assert vishik_solve(2, 3).core.coefficients == (1, 0, 0, 0, 0, 0, 0, 1)

    def test_holds_in_range(self):
        for m in range(1, 5):
            for k in range(2, 9):
                report = vishik_solve(m, k)
                assert report.holds, (m, k)
                assert not report.degenerate

    def test_degenerate_k1(self):
        report = vishik_solve(3, 1)
        assert report.degenerate
        assert report.core is not None and report.core.is_zero()

    def test_m1_matches_core(self):
        for k in range(2, 41):
            report = vishik_solve(1, k)
            assert report.matches_core is True

    def test_matches_core_not_reported_elsewhere(self):
        assert vishik_solve(2, 2).matches_core is None
        assert vishik_solve(1, 1).matches_core is None

    def test_realize_vishik_base(self):
        assert realize_base(vishik_core(2, 2)).coefficients == (1, 0, 0, 1)

    def test_rank_validation(self):
        with pytest.raises(InvalidRank):
            vishik_solve(1, 0)
        with pytest.raises(InvalidRank):
            vishik_solve(0, 2)


class TestBaseRealizations:
    def test_each_kind(self):
        assert realize_base(tate()).coefficients == (1,)
        assert realize_base(spec_l()).coefficients == (2,)
        assert realize_base(proj_l(1)).coefficients == (2, 2)
        assert realize_base(proj_l(0)) == IntPolynomial([2])
        assert realize_base(proj_f(2)).coefficients == (1, 1, 1)
        assert realize_base(split_quadric(2)).coefficients == (1, 2, 1)
        assert realize_base(hermitian_quadric(3)).coefficients == (1, 2, 2, 1)
        assert realize_base(core(3)).coefficients == (1, 0, 0, 1)
