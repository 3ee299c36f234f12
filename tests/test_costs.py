import math

import numpy as np
import pytest

from branchnet.costs import (
    BetaEnvelope,
    admissibility_check,
    component_sum,
    custom_cost,
    derivative_profile,
    dir_derivative_at_zero,
    evaluate,
    evaluate_rows,
    norm_cost_ratio,
    p_norm_alpha,
    rectifiability_flag,
    s_beta,
    s_beta_series,
    sum_alpha,
    validate_cost,
)
from conftest import COST_FAMILIES


class TestEvaluate:
    def test_sum_alpha_formula(self):
        c = sum_alpha(2, 0.5, weights=[1.0, 3.0])
        assert evaluate(c, [2.0, -1.0]) == pytest.approx((2 + 3) ** 0.5)

    def test_component_sum_formula(self):
        c = component_sum(2, [2.0, 1.0], [0.5, 1.0])
        assert evaluate(c, [4.0, -3.0]) == pytest.approx(2 * 2 + 3)

    def test_p_norm_formula(self):
        c = p_norm_alpha(2, 2.0, 0.5)
        assert evaluate(c, [3.0, 4.0]) == pytest.approx(5.0**0.5)

    def test_zero_is_zero(self):
        for c in (sum_alpha(3, 0.7), component_sum(2, [1, 1], [0.5, 1]), p_norm_alpha(2, 1, 0.9)):
            assert evaluate(c, np.zeros(c.m)) == 0.0

    def test_dimension_checked(self):
        with pytest.raises(ValueError):
            evaluate(sum_alpha(2, 0.5), [1.0])


class TestEvaluateRows:
    COSTS = [
        sum_alpha(3, 0.7, weights=[1.0, 2.0, 0.3]),
        component_sum(3, [2.0, 1.0, 0.5], [0.5, 1.0, 0.8]),
        p_norm_alpha(3, 2.0, 0.8),
        p_norm_alpha(3, 1.0, 0.9),
        p_norm_alpha(3, 3.5, 0.6),
        p_norm_alpha(3, math.inf, 0.7),
        custom_cost(3, lambda t: float(np.sum(t * t)) ** 0.25),
    ]

    @pytest.mark.parametrize("cost", COSTS, ids=lambda c: f"{c.family}{c.params.get('p', '')}")
    def test_matches_evaluate_per_row(self, cost, rng):
        Theta = rng.normal(size=(500, 3)) * 10.0 ** rng.uniform(-8, 3, size=(500, 1))
        Theta[::7, 1] = 0.0
        Theta[0] = 0.0
        expected = np.array([evaluate(cost, row) for row in Theta])
        got = evaluate_rows(cost, Theta)
        assert got.shape == (500,)
        np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0.0)
        if cost.family in ("SumAlpha", "PNormAlpha") and cost.params.get("p", 2.0) == 2.0:
            assert np.array_equal(got, expected)

    def test_empty_batch(self):
        assert evaluate_rows(sum_alpha(2, 0.5), np.zeros((0, 2))).shape == (0,)

    @pytest.mark.parametrize("bad", [np.zeros(2), np.zeros((4, 3)), np.zeros((2, 2, 2))])
    def test_shape_checked(self, bad):
        with pytest.raises(ValueError, match="shape"):
            evaluate_rows(sum_alpha(2, 0.5), bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        Theta = np.ones((3, 2))
        Theta[1, 0] = bad
        for cost in (sum_alpha(2, 0.5), p_norm_alpha(2, 2.0, 0.5), custom_cost(2, lambda t: 1.0)):
            with pytest.raises(ValueError, match="non-finite"):
                evaluate_rows(cost, Theta)


class TestValidateCost:
    @pytest.mark.parametrize("cost", [
        sum_alpha(2, 0.6, weights=[1.0, 2.5]),
        component_sum(3, [1.0, 0.5, 2.0], [0.4, 0.8, 1.0]),
        p_norm_alpha(2, 3.0, 0.9),
    ])
    def test_builtin_families_pass(self, cost):
        assert validate_cost(cost, samples=2000, seed=1).ok

    def test_superadditive_rejected(self):
        # |theta|^2 violates subadditivity on same-sign pairs
        bad = custom_cost(1, lambda t: float(abs(t[0]) ** 2))
        rep = validate_cost(bad, samples=2000, seed=1)
        assert rep.subadditivity_violations > 0 and not rep.ok

    def test_odd_cost_rejected(self):
        bad = custom_cost(1, lambda t: float(t[0] + 2 * abs(t[0])))
        rep = validate_cost(bad, samples=500, seed=1)
        assert rep.evenness_violations > 0

    def test_non_monotone_rejected(self):
        # decreasing in |theta| near 0 violates the partial-order monotonicity
        bad = custom_cost(1, lambda t: float(1.0 / (1.0 + abs(t[0]))) if t[0] != 0 else 0.0)
        rep = validate_cost(bad, samples=500, seed=1)
        assert not rep.ok


def _dir_derivative_reference(cost, v, cap=1e12, imax=60, tol=1e-9):
    """The scalar loop dir_derivative_at_zero replaced: one evaluate per grid point."""
    v = np.asarray(v, dtype=float)
    prev = -math.inf
    val = 0.0
    for i in range(imax + 1):
        t = 2.0 ** (-i)
        val = evaluate(cost, t * v) / t
        if val > cap:
            return math.inf
        if val < prev - tol * max(1.0, abs(prev)):
            raise ValueError("C(tv)/t not monotone along the doubling grid: cost axioms violated")
        prev_step = val - prev if i > 0 else 0.0
        prev = val
    if imax > 0 and prev_step > 1e-6 * max(1.0, abs(val)):
        return math.inf
    return val


def _outcome(fn, cost, v):
    """("value", float hex) or ("raise", message) of one derivative call."""
    try:
        return ("value", float(fn(cost, v)).hex())
    except ValueError as exc:
        return ("raise", str(exc))


class TestDerivatives:
    def test_linear_axis_derivative_is_weight(self):
        c = sum_alpha(2, 1.0, weights=[1.0, 4.0])
        assert dir_derivative_at_zero(c, [0.0, 1.0]) == pytest.approx(4.0)
        assert dir_derivative_at_zero(c, [1.0, 0.0]) == pytest.approx(1.0)

    def test_concave_axis_derivative_infinite(self):
        c = sum_alpha(1, 0.5)
        assert dir_derivative_at_zero(c, [1.0]) == math.inf

    def test_slowly_diverging_quotient_detected(self):
        # t^(-0.05) never reaches the cap within the grid but still diverges
        c = sum_alpha(1, 0.95)
        assert dir_derivative_at_zero(c, [1.0]) == math.inf

    def test_profile_mixed_components(self):
        c = component_sum(3, [2.0, 1.0, 5.0], [1.0, 0.5, 1.0])
        prof = derivative_profile(c, samples=200, seed=0)
        assert prof.basis_set == (0, 2)
        assert prof.axis_derivatives[0] == pytest.approx(2.0)
        assert prof.axis_derivatives[1] == math.inf
        assert prof.axis_derivatives[2] == pytest.approx(5.0)
        assert prof.V_dim == 2

    @pytest.mark.parametrize("family", sorted(COST_FAMILIES))
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_bit_equal_to_scalar_loop(self, family, m):
        cost = COST_FAMILIES[family](m)
        rng = np.random.default_rng(m)
        directions = list(np.eye(m)) + [u / np.linalg.norm(u) for u in rng.normal(size=(3, m))]
        for v in directions:
            assert _outcome(dir_derivative_at_zero, cost, v) == _outcome(_dir_derivative_reference, cost, v)

    def test_cap_and_raise_match_scalar_loop(self):
        calls = []
        steep = custom_cost(1, lambda t: calls.append(1) or float(abs(t[0]) ** 0.5))
        # C(t)/t = t^-0.5 passes the cap of 100 at t = 2^-14
        assert dir_derivative_at_zero(steep, [1.0], cap=100.0) == math.inf
        assert len(calls) == 61  # the whole doubling grid, also past the cap
        assert _dir_derivative_reference(steep, [1.0], cap=100.0) == math.inf
        assert len(calls) == 61 + 15
        square = custom_cost(1, lambda t: float(t[0] ** 2))
        outcome = _outcome(dir_derivative_at_zero, square, [1.0])
        assert outcome[0] == "raise" and "not monotone" in outcome[1]
        assert outcome == _outcome(_dir_derivative_reference, square, [1.0])

    def test_rectifiability_flag_analytic(self):
        assert rectifiability_flag(sum_alpha(2, 0.5))
        assert rectifiability_flag(p_norm_alpha(2, 2.0, 0.8))
        assert not rectifiability_flag(sum_alpha(2, 1.0))
        assert not rectifiability_flag(component_sum(2, [1, 1], [1.0, 0.5]))


class TestAdmissibility:
    def test_power_analytic(self):
        ok, value = admissibility_check(BetaEnvelope.from_power(0.75), n=2)
        assert ok and value == pytest.approx(1.0 / (0.75 - 0.5))

    def test_power_threshold(self):
        ok, value = admissibility_check(BetaEnvelope.from_power(0.5), n=2)
        assert not ok and value == math.inf
        ok3, _ = admissibility_check(BetaEnvelope.from_power(0.7), n=3)
        assert ok3  # threshold 1 - 1/3

    def test_generic_envelope_quadrature(self):
        beta = BetaEnvelope(lambda x: x**0.75)  # power not declared
        ok, value = admissibility_check(beta, n=2)
        assert ok and value == pytest.approx(4.0, rel=1e-3)

    def test_decreasing_envelope_is_invalid_input(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            admissibility_check(BetaEnvelope(lambda x: 1.0 - x), 2)

    def test_generic_divergent_detected(self):
        beta = BetaEnvelope(lambda x: x**0.5)
        ok, _ = admissibility_check(beta, n=2)
        assert not ok


class TestSeries:
    def test_s_beta_term(self):
        beta = BetaEnvelope.from_power(0.75)
        # n=2: 2^k * (2^-2k)^(3/4) = 2^(-k/2)
        assert s_beta(beta, 2, 3) == pytest.approx(2.0 ** (-1.5))

    def test_series_sums_to_closed_form(self):
        beta = BetaEnvelope.from_power(0.75)
        partial, tail = s_beta_series(beta, 2, 30)
        assert partial + tail == pytest.approx(1.0 / (math.sqrt(2.0) - 1.0))

    def test_divergent_series_tail_infinite(self):
        beta = BetaEnvelope.from_power(0.4)  # ratio 2^(1-0.8) > 1
        _, tail = s_beta_series(beta, 2, 5)
        assert tail == math.inf


class TestNormCostRatio:
    def test_sqrt_cost_ratio(self):
        # sup |t|/sqrt(|t|) over |t| <= 16 is 4, attained at the boundary
        c = sum_alpha(1, 0.5)
        assert norm_cost_ratio(c, 16.0, samples=500, seed=0) == pytest.approx(4.0, rel=1e-6)

    def test_linear_cost_ratio_constant(self):
        c = sum_alpha(1, 1.0, weights=[2.0])
        assert norm_cost_ratio(c, 8.0, samples=500, seed=0) == pytest.approx(0.5, rel=1e-6)

    def test_bit_equal_to_scalar_loop(self):
        def reference(cost, delta, samples, seed):
            rng = np.random.default_rng(seed)
            best = 0.0
            for _ in range(max(1, samples // 64)):
                u = rng.normal(size=cost.m)
                u /= np.linalg.norm(u)
                for r in delta * np.logspace(-8, 0, 64):
                    best = max(best, r / evaluate(cost, r * u))
            return best

        for cost in (sum_alpha(2, 0.6), p_norm_alpha(3, 2.0, 0.8)):
            for delta in (0.01, 1.0, 16.0):
                assert norm_cost_ratio(cost, delta, samples=2000, seed=3) == reference(cost, delta, 2000, 3)

    def test_vanishing_cost_rejected(self):
        c = custom_cost(2, lambda t: max(float(t[0]), 0.0))  # zero on a half-plane
        with pytest.raises(ValueError, match="vanishes"):
            norm_cost_ratio(c, 1.0, samples=64 * 40)

    def test_unbounded_ratio_near_zero_rejected(self):
        c = custom_cost(1, lambda t: float(np.linalg.norm(t)) ** 2)  # |v|/C(v) = 1/|v|
        with pytest.raises(ValueError, match="unbounded"):
            norm_cost_ratio(c, 1.0, samples=640)
