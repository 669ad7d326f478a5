"""Self-consistency of the brute-force oracles (the evaluators that
produced every frozen value asserted elsewhere)."""

import math

import pytest

from oracle import (
    OracleConfig,
    oracle_convolution,
    oracle_e1,
    oracle_operator,
    oracle_q,
    oracle_s,
    oracle_s_cumulative_segment,
    s_mass_below,
)

# values these oracles produced for the frozen constants; reasserting
# them catches any drift in the oracle implementations themselves
FROZEN_E1_1 = 0.21938393439552029
FROZEN_E1_10 = 4.156968929685325e-06
FROZEN_S_1 = 1.0329209475752628
FROZEN_CONV = {0.1: 0.9999999560289181, 1.0: 0.999999998132325}


class TestOracleE1:
    def test_frozen_values(self):
        cfg = OracleConfig(28, 1e-12)
        assert oracle_e1(1.0, cfg) == pytest.approx(FROZEN_E1_1, abs=1e-14)
        assert oracle_e1(10.0, cfg) == pytest.approx(FROZEN_E1_10, rel=1e-12)

    def test_branches_cross_window(self):
        # both branch pairs are exercised and must agree by construction
        for x in (0.05, 0.5, 1.0, 3.0, 8.0, 30.0):
            oracle_e1(x, OracleConfig(24, 1e-11))

    def test_domain(self):
        with pytest.raises(ValueError):
            oracle_e1(0.0)


class TestOracleS:
    def test_frozen_value(self):
        assert oracle_s(1.0, OracleConfig(28, 1e-12)) == pytest.approx(
            FROZEN_S_1, abs=1e-12)

    def test_refinement_monotone(self):
        coarse = oracle_s(0.7, OracleConfig(24, 1e-8))
        fine = oracle_s(0.7, OracleConfig(24, 1e-11))
        assert abs(coarse - fine) < 1e-8 * max(1.0, abs(fine))

    def test_scaled_branch_handover(self):
        # both integration branches must agree with the main evaluator
        # on their own side of the x = 0.02 split
        from fracalc.special import volterra_s
        for x in (0.0199, 0.0201):
            o = oracle_s(x, OracleConfig(24, 1e-10))
            assert o == pytest.approx(volterra_s(x), rel=1e-9)

    def test_positive(self):
        for x in (1e-6, 0.01, 1.0, 20.0):
            assert oracle_s(x) > 0.0


class TestCumulativeOracles:
    def test_mass_below_matches_main_route(self):
        # the deep asymptotic and the smooth route are fully independent
        from fracalc.special import s_cumulative
        d = 1e-220
        assert s_mass_below(d) == pytest.approx(s_cumulative(d), rel=1e-9)

    def test_mass_below_domain(self):
        with pytest.raises(ValueError):
            s_mass_below(0.5)

    def test_segment_cross_route(self):
        # short segment, fast; the full frozen segments live in the
        # special-function tests
        from fracalc.special import s_cumulative
        seg = oracle_s_cumulative_segment(0.01, 0.3, OracleConfig(20, 1e-9))
        assert seg == pytest.approx(
            s_cumulative(0.3) - s_cumulative(0.01), abs=2e-8)

    def test_oracle_q_matches_main(self):
        from fracalc.special import s_cumulative
        assert oracle_q(0.5, OracleConfig(20, 1e-9)) == pytest.approx(
            s_cumulative(0.5), abs=5e-9)


class TestOracleOperator:
    def test_constant_closed_form(self):
        v = oracle_operator(lambda t: 1.0, "left", 1.0, 0.0, 2.0, 1.0)
        closed = 1.0 * oracle_e1(1.0) - math.exp(-1.0) + 1.0
        assert v == pytest.approx(closed, abs=1e-8)

    def test_zero_function(self):
        assert oracle_operator(lambda t: 0.0, "left", 0.5, 0.0, 1.0, 0.7) == 0.0

    def test_collapsed_range(self):
        assert oracle_operator(lambda t: 1.0, "left", 0.5, 0.0, 1.0, 0.0) == 0.0
        assert oracle_operator(lambda t: 1.0, "right", 0.5, 0.0, 1.0, 1.0) == 0.0

    def test_side_validation(self):
        with pytest.raises(ValueError):
            oracle_operator(lambda t: 1.0, "up", 0.5, 0.0, 1.0, 0.5)


@pytest.mark.slow
class TestOracleConvolution:
    def test_identity_at_one(self):
        v = oracle_convolution(1.0, OracleConfig(22, 1e-8))
        assert v == pytest.approx(1.0, abs=1e-5)
        assert v == pytest.approx(FROZEN_CONV[1.0], abs=1e-6)

    def test_identity_at_tenth(self):
        v = oracle_convolution(0.1, OracleConfig(22, 1e-8))
        assert v == pytest.approx(1.0, abs=1e-4)
        assert v == pytest.approx(FROZEN_CONV[0.1], abs=1e-6)
