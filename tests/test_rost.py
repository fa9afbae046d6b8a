import math

import pytest

from hermquad.errors import InvalidRank
from hermquad.rost import (
    INCOMPRESSIBLE,
    UNKNOWN,
    central_binom_valuation,
    congrel_equivalence,
    congruence_counterexample,
    degree_formula_filter,
    eta2_parity,
    incompressibility_verdict,
    is_power_case,
)
from support import v2_central_binomial


class TestValuation:
    @pytest.mark.parametrize("m", range(0, 80))
    def test_against_bigint_oracle(self, m):
        assert central_binom_valuation(m) == v2_central_binomial(m)

    def test_explicit_values(self):
        # binomial(2,1)=2, binomial(4,2)=6, binomial(6,3)=20, binomial(12,6)=924
        assert central_binom_valuation(1) == 1
        assert central_binom_valuation(2) == 1
        assert central_binom_valuation(3) == 2
        assert central_binom_valuation(6) == 2
        assert central_binom_valuation(0) == 0

    def test_negative_rejected(self):
        with pytest.raises(InvalidRank):
            central_binom_valuation(-1)


class TestEta2:
    def test_odd_exactly_at_powers_plus_one(self):
        odd_ranks = {n for n in range(2, 300) if eta2_parity(n) == 1}
        assert odd_ranks == {2, 3, 5, 9, 17, 33, 65, 129, 257}

    @pytest.mark.parametrize("n", range(2, 200))
    def test_matches_actual_binomial(self, n):
        eta2 = math.comb(2 * (n - 1), n - 1) // 2
        assert eta2_parity(n) == eta2 % 2

    def test_rank_validation(self):
        with pytest.raises(InvalidRank):
            eta2_parity(1)


class TestCongruence:
    @pytest.mark.parametrize("n", range(2, 2000))
    def test_equivalence_holds(self, n):
        assert congrel_equivalence(n)

    def test_power_case_means_dim_all_ones(self):
        for n in range(2, 500):
            dim = 2 * n - 3
            assert is_power_case(n) == (bin(dim).count("0") == 1)

    def test_counterexample_search_empty(self):
        assert congruence_counterexample(2, 50_000) is None
        assert congruence_counterexample(2, 10**100) is None

    def test_counterexample_bounds_validated(self):
        with pytest.raises(InvalidRank):
            congruence_counterexample(1, 10)


class TestVerdict:
    def test_anisotropic_power_rank(self):
        report = incompressibility_verdict(5, anisotropic=True)
        assert report.verdict == INCOMPRESSIBLE
        assert report.dim_vh == 7
        assert report.eta2_parity == 1
        assert report.is_power_case is True
        assert report.point_gcd == 2

    def test_isotropic_never_incompressible(self):
        for n in (2, 3, 5, 9, 17):
            assert incompressibility_verdict(n, anisotropic=False).verdict == UNKNOWN

    def test_non_power_rank_unknown(self):
        for n in (4, 6, 7, 8, 10, 100):
            report = incompressibility_verdict(n, anisotropic=True)
            assert report.verdict == UNKNOWN
            assert report.eta2_parity == 0

    def test_verdict_never_claims_compressible(self):
        for n in range(2, 200):
            for aniso in (True, False):
                verdict = incompressibility_verdict(n, aniso).verdict
                assert verdict in (INCOMPRESSIBLE, UNKNOWN)


class TestDegreeFilter:
    def test_values(self):
        assert degree_formula_filter(5) == frozenset({1})
        assert degree_formula_filter(4) == frozenset({0, 1})

    @pytest.mark.parametrize("n", range(2, 300))
    def test_tracks_parity(self, n):
        expected = frozenset({1}) if eta2_parity(n) == 1 else frozenset({0, 1})
        assert degree_formula_filter(n) == expected
