import math

import numpy as np
import pytest

import branchnet.costs as costs_module
from branchnet.costs import (
    BetaEnvelope,
    DerivativeProfile,
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


def evaluate_reference(cost, theta) -> float:
    """The scalar formula of each cost family, written independently of
    ``evaluate_rows`` (which is the library's only family dispatch)."""
    th = np.asarray(theta, dtype=float)
    if cost.family == "SumAlpha":
        return float(np.dot(cost.params["weights"], np.abs(th))) ** cost.params["alpha"]
    if cost.family == "ComponentSum":
        return float(np.dot(cost.params["coeffs"], np.abs(th) ** cost.params["alphas"]))
    if cost.family == "PNormAlpha":
        return float(np.linalg.norm(th, ord=cost.params["p"]) ** cost.params["alpha"])
    if cost.family == "Custom":
        return float(cost.fn(th))
    raise ValueError(f"unknown cost family {cost.family!r}")


U = np.finfo(float).eps  # 2^-52, the spacing of floats at 1


def closed_form_ratio(cost, delta) -> float:
    """sup |t|_2 / C(t) on the ball of radius delta, from the family's formula
    with ``math.pow``: on the lightest axis for sum_alpha, on the best axis for
    component_sum, and on the axes for p <= 2 or the diagonal for p > 2."""
    m, a = cost.m, cost.params.get("alpha")
    if "weights" in cost.params:
        return math.pow(delta, 1 - a) / math.pow(min(cost.params["weights"]), a)
    if "coeffs" in cost.params:
        return max(math.pow(delta, 1 - al) / c for c, al in zip(cost.params["coeffs"], cost.params["alphas"]))
    p = cost.params["p"]
    return math.pow(delta, 1 - a) * (math.pow(m, a * (0.5 - 1 / p)) if p > 2 else 1.0)


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
        expected = np.array([evaluate_reference(cost, row) for row in Theta])
        got = evaluate_rows(cost, Theta)
        assert got.shape == (500,)
        np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0.0)
        if cost.family in ("SumAlpha", "PNormAlpha") and cost.params.get("p", 2.0) == 2.0:
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("cost", COSTS, ids=lambda c: f"{c.family}{c.params.get('p', '')}")
    def test_rows_independent_of_batch(self, cost, rng):
        """evaluate is the one-row batch, and a row costs the same in any batch."""
        Theta = rng.normal(size=(300, 3)) * 10.0 ** rng.uniform(-8, 3, size=(300, 1))
        got = evaluate_rows(cost, Theta)
        assert np.array_equal(got, [evaluate(cost, row) for row in Theta])
        assert np.array_equal(got[::-1], evaluate_rows(cost, Theta[::-1]))
        assert np.array_equal(got[5:17], evaluate_rows(cost, Theta[5:17]))

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
            with pytest.raises(ValueError, match="non-finite"):
                evaluate(cost, Theta[1])


def _validate_reference(cost, samples, seed):
    """The scalar loop validate_cost replaced: eight scalar costs per sample."""
    rng = np.random.default_rng(seed)
    counts = dict.fromkeys(("evenness", "positivity", "subadditivity", "monotonicity", "continuity"), 0)
    notes = []
    if evaluate_reference(cost, np.zeros(cost.m)) != 0.0:
        counts["positivity"] += 1
        notes.append("C(0) != 0")
    for _ in range(samples):
        th = rng.normal(size=cost.m) * 10.0 ** rng.uniform(-3, 2)
        eta = rng.normal(size=cost.m) * 10.0 ** rng.uniform(-3, 2)
        c_th = evaluate_reference(cost, th)
        slack = 1e-9 * max(1.0, c_th)
        counts["evenness"] += abs(evaluate_reference(cost, -th) - c_th) > slack
        counts["positivity"] += bool(np.any(th != 0) and c_th <= 0.0)
        counts["subadditivity"] += evaluate_reference(cost, th + eta) > c_th + evaluate_reference(cost, eta) + slack
        counts["monotonicity"] += evaluate_reference(cost, rng.uniform(0.0, 1.0, size=cost.m) * th) > c_th + slack
        t = rng.uniform(0.1, 1.0)
        lo, mid, hi = (evaluate_reference(cost, s * th) for s in (t - 1e-7 * t, t, t + 1e-7 * t))
        scale = max(1.0, abs(mid))
        counts["continuity"] += mid > hi + 1e-3 * scale or mid < lo - 1e-3 * scale
    return {"samples": samples, **counts, "notes": notes + ["lsc checked only via continuity probe along rays"]}


AXIOM_BREAKERS = {
    "square": custom_cost(2, lambda t: float(np.sum(t * t))),
    "odd": custom_cost(2, lambda t: float(t[0] + 2 * np.abs(t).sum())),
    "decreasing": custom_cost(2, lambda t: float(1.0 / (1.0 + np.abs(t).sum())) if np.any(t) else 0.0),
    "jump": custom_cost(2, lambda t: float(np.abs(t).sum() > 1.0) + 0.1 * float(np.abs(t).sum()) ** 0.5),
    "offset": custom_cost(2, lambda t: 1.0 + float(np.abs(t).sum())),
    "half_plane": custom_cost(2, lambda t: max(float(t[0]), 0.0)),
}


class TestValidateCost:
    @pytest.mark.parametrize("cost", [
        sum_alpha(2, 0.6, weights=[1.0, 2.5]),
        component_sum(3, [1.0, 0.5, 2.0], [0.4, 0.8, 1.0]),
        p_norm_alpha(2, 1.5, 0.8),
        p_norm_alpha(3, math.inf, 0.7),
        *AXIOM_BREAKERS.values(),
    ], ids=["sum_alpha", "component_sum", "p1.5", "pinf", *AXIOM_BREAKERS])
    def test_report_equals_scalar_loop(self, cost):
        for samples, seed in ((1, 0), (7, 3), (600, 1)):
            assert validate_cost(cost, samples, seed).as_dict() == _validate_reference(cost, samples, seed)

    def test_blocks_bound_the_batch(self, monkeypatch):
        """Memory does not grow with samples: no batch exceeds eight points per sample of a block."""
        sizes = []
        real = costs_module.evaluate_rows
        monkeypatch.setattr(costs_module, "evaluate_rows", lambda c, T: sizes.append(len(T)) or real(c, T))
        validate_cost(sum_alpha(2, 0.7), samples=3 * costs_module._BLOCK + 5)
        assert max(sizes) == 8 * costs_module._BLOCK and sum(sizes) == 1 + 8 * (3 * costs_module._BLOCK + 5)

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


def _dir_derivative_reference(cost, v, imax=60, tol=1e-9):
    """The scalar loop dir_derivative_at_zero replaced: one scalar cost per grid point."""
    v = np.asarray(v, dtype=float)
    prev = -math.inf
    val = 0.0
    for i in range(imax + 1):
        t = 2.0 ** (-i)
        val = evaluate_reference(cost, t * v) / t
        if val < prev - tol * abs(prev):
            raise ValueError("C(tv)/t not monotone along the doubling grid: cost axioms violated")
        prev_step = val - prev if i > 0 else 0.0
        prev = val
    if imax > 0 and prev_step > 1e-6 * abs(val):
        return math.inf
    return val


def _outcome(fn, cost, v):
    """("value", float hex) or ("raise", message) of one derivative call."""
    try:
        return ("value", float(fn(cost, v)).hex())
    except ValueError as exc:
        return ("raise", str(exc))


def _profile_reference(cost, samples, seed):
    """The scalar loop derivative_profile replaced: one derivative per axis and per sample."""
    m = cost.m
    derivs = [_dir_derivative_reference(cost, np.eye(m)[j]) for j in range(m)]
    basis = tuple(j for j in range(m) if math.isfinite(derivs[j]))
    L = 0.0
    if basis:
        rng = np.random.default_rng(seed)
        for _ in range(samples):
            v = np.zeros(m)
            v[list(basis)] = rng.normal(size=len(basis))
            v /= np.linalg.norm(v)
            fv = _dir_derivative_reference(cost, v)
            upper = sum(abs(v[j]) * derivs[j] for j in basis)
            if fv > upper * (1 + 1e-9) or upper > m * fv * (1 + 1e-9):
                raise ValueError("derivative sandwich estimate violated: cost axioms suspect")
            L = max(L, fv)
    return tuple(derivs), basis, len(basis), L


def _profile_outcome(fn, cost, samples, seed):
    try:
        out = fn(cost, samples, seed)
    except ValueError as exc:
        return ("raise", str(exc))
    if isinstance(out, DerivativeProfile):
        out = (out.axis_derivatives, out.basis_set, out.V_dim, out.homog_bound)
    derivs, basis, vdim, bound = out
    return ("value", [float(d).hex() for d in derivs], basis, vdim, float(bound).hex())


# C(tv)/t = |v|_1 + t v1 v2 falls toward 0 where v1 v2 > 0 (not monotone); where v1 v2 < 0 the
# derivative |v|_1 + sqrt(-v1 v2) exceeds the sum over the axes (sandwich); the axes pass both
MIXED_BREAKER = custom_cost(2, lambda t: float(np.abs(t).sum() + max(t[0] * t[1], 0.0) + max(-t[0] * t[1], 0.0) ** 0.5))


class TestDerivatives:
    def test_linear_axis_derivative_is_weight(self):
        c = sum_alpha(2, 1.0, weights=[1.0, 4.0])
        assert dir_derivative_at_zero(c, [0.0, 1.0]) == pytest.approx(4.0)
        assert dir_derivative_at_zero(c, [1.0, 0.0]) == pytest.approx(1.0)

    def test_concave_axis_derivative_infinite(self):
        c = sum_alpha(1, 0.5)
        assert dir_derivative_at_zero(c, [1.0]) == math.inf

    def test_slowly_diverging_quotient_detected(self):
        # t^(-0.05) is only 8 at the end of the grid, but it still grows there
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

    @pytest.mark.parametrize("family", sorted(COST_FAMILIES))
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_batch_equals_per_row(self, family, m):
        cost = COST_FAMILIES[family](m)
        rng = np.random.default_rng(m)
        V = np.vstack([np.eye(cost.m), rng.normal(size=(2 * costs_module._BLOCK + 3, cost.m))])
        got = dir_derivative_at_zero(cost, V)
        assert isinstance(got, np.ndarray) and got.shape == (len(V),)
        assert [float(x).hex() for x in got] == [_outcome(dir_derivative_at_zero, cost, v)[1] for v in V]

    def test_batch_raises_on_any_non_monotone_direction(self):
        V = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert list(dir_derivative_at_zero(MIXED_BREAKER, V[:2])) == [1.0, 1.0]
        with pytest.raises(ValueError, match="not monotone"):
            dir_derivative_at_zero(MIXED_BREAKER, V)
        with pytest.raises(ValueError, match="nonzero"):
            dir_derivative_at_zero(MIXED_BREAKER, np.array([[1.0, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("cost", [
        *(COST_FAMILIES[f](m) for f in sorted(COST_FAMILIES) for m in (1, 2, 3)),
        sum_alpha(3, 1.0, weights=[1.0, 2.0, 3.0]),
        component_sum(2, [2.0, 1.0], [1.0, 1.0]),
        p_norm_alpha(2, 1.5, 1.0),
        p_norm_alpha(3, math.inf, 1.0),
        custom_cost(2, lambda t: float(np.abs(t).sum() + t[0] * t[0])),
        custom_cost(2, lambda t: float(np.abs(t).sum() + abs(t[0] * t[1]) ** 0.5)),
        MIXED_BREAKER,
    ])
    def test_profile_equals_scalar_loop(self, cost):
        for samples, seed in ((0, 0), (50, 1), (200, 2), (200, 3)):
            assert (_profile_outcome(derivative_profile, cost, samples, seed)
                    == _profile_outcome(_profile_reference, cost, samples, seed))

    def test_first_failing_sample_decides_the_error(self):
        raised = {_profile_outcome(derivative_profile, MIXED_BREAKER, 20, seed)[1] for seed in range(8)}
        assert any("not monotone" in r for r in raised) and any("sandwich" in r for r in raised)

    def test_growth_in_the_last_step_is_infinite(self):
        # C(t)/t is 1 down to t = 2^-59 and 1 + 1e-3 at t = 2^-60, the last grid point
        late = custom_cost(1, lambda t: abs(t[0]) * (1.001 if 0 < abs(t[0]) < 2.0**-59.5 else 1.0))
        assert dir_derivative_at_zero(late, [1.0]) == math.inf == _dir_derivative_reference(late, [1.0])
        # along 0.5 the jump comes one step earlier, so the quotient is flat at the end: finite
        assert list(dir_derivative_at_zero(late, [[1.0], [0.5]])) == [math.inf, 0.5 * 1.001]

    def test_growth_and_raise_match_scalar_loop(self):
        calls = []
        steep = custom_cost(1, lambda t: calls.append(1) or float(abs(t[0]) ** 0.5))
        # C(t)/t = t^-0.5 still grows by a factor sqrt(2) at the last grid point
        assert dir_derivative_at_zero(steep, [1.0]) == math.inf
        assert len(calls) == 61  # the whole doubling grid
        assert _dir_derivative_reference(steep, [1.0]) == math.inf
        assert len(calls) == 61 + 61
        square = custom_cost(1, lambda t: float(t[0] ** 2))
        outcome = _outcome(dir_derivative_at_zero, square, [1.0])
        assert outcome[0] == "raise" and "not monotone" in outcome[1]
        assert outcome == _outcome(_dir_derivative_reference, square, [1.0])

    def test_a_steep_quotient_reads_its_finite_value(self):
        """No absolute cap: a linear cost of weight 2e12 has derivative 2e12
        and is not rectifiable, and a quotient that falls after passing 1e12
        is not monotone."""
        steep = sum_alpha(1, 1.0, weights=[2e12])
        assert dir_derivative_at_zero(steep, [1.0]) == 2e12 and not rectifiability_flag(steep)
        assert derivative_profile(steep, samples=10).axis_derivatives == (2e12,)
        falls = custom_cost(1, lambda t: float(abs(t[0])) * (1e13 if abs(t[0]) > 2.0**-10 else 2.0))
        with pytest.raises(ValueError, match="not monotone"):
            dir_derivative_at_zero(falls, [1.0])

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

    def test_power_envelope_is_decided_without_sampling(self):
        calls = []
        beta = BetaEnvelope(lambda x: calls.append(x) or x**0.75, power=0.75)
        assert admissibility_check(beta, n=2) == (True, 1.0 / (0.75 - 0.5)) and calls == []

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 1.5, math.nan])
    def test_power_outside_unit_interval_is_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            BetaEnvelope(lambda x: x**alpha, power=alpha)
        with pytest.raises(ValueError, match="alpha"):
            BetaEnvelope.from_power(alpha)

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

    def test_tail_of_an_envelope_that_is_not_a_power(self):
        """Without ``power`` the tail is geometric in the ratio of the last
        two terms: x^0.75 as a plain function gets the power's closed form,
        and its tail is infinite with one term or a ratio of at least 1."""
        plain, power = BetaEnvelope(lambda x: x**0.75), BetaEnvelope.from_power(0.75)
        partial, tail = s_beta_series(plain, 2, 30)
        assert tail == pytest.approx(s_beta_series(power, 2, 30)[1], rel=1e-12)
        assert partial + tail == pytest.approx(1.0 / (math.sqrt(2.0) - 1.0), rel=1e-12)
        assert s_beta_series(plain, 2, 1)[1] == math.inf
        assert s_beta_series(BetaEnvelope(lambda x: x**0.4), 2, 5)[1] == math.inf


class TestNormCostRatio:
    def test_sqrt_cost_ratio(self):
        # sup |t|/sqrt(|t|) over |t| <= 16 is 4, attained at the boundary
        c = sum_alpha(1, 0.5)
        assert norm_cost_ratio(c, 16.0, samples=500, seed=0) == pytest.approx(4.0, rel=1e-6)

    def test_linear_cost_ratio_constant(self):
        c = sum_alpha(1, 1.0, weights=[2.0])
        assert norm_cost_ratio(c, 8.0, samples=500, seed=0) == pytest.approx(0.5, rel=1e-6)

    @staticmethod
    def reference(cost, delta, samples, seed, axes):
        """The scalar loop: samples // 64 random unit directions, followed by
        the m axes when ``axes``, at 64 log-spaced radii in [1e-8 delta, delta]."""
        rng = np.random.default_rng(seed)
        dirs = [u / np.linalg.norm(u) for u in (rng.normal(size=cost.m) for _ in range(max(1, samples // 64)))]
        best = 0.0
        for u in dirs + (list(np.eye(cost.m)) if axes else []):
            for r in delta * np.logspace(-8, 0, 64):
                best = max(best, r / evaluate_reference(cost, r * u))
        return best

    @pytest.mark.parametrize("cost", [
        sum_alpha(2, 0.6), sum_alpha(3, 1.0, weights=[1.0, 2.5, 0.5]), p_norm_alpha(3, 2.0, 0.8),
        p_norm_alpha(4, math.inf, 0.7), component_sum(3, [1.0, 2.0, 0.5], [0.3, 1.0, 0.7]),
    ])
    def test_builtin_is_closed_form_above_the_sample(self, cost):
        for delta in (0.01, 1.0, 16.0):
            got = norm_cost_ratio(cost, delta, samples=2000, seed=3)
            assert got == pytest.approx(closed_form_ratio(cost, delta), rel=4 * U, abs=0)
            assert got >= self.reference(cost, delta, 2000, 3, axes=False) * (1 - 8 * U)  # above it but for rounding

    def test_closed_form_exceeds_what_sampling_found(self):
        # sum_alpha(2, 0.6) at delta = 0.01: 0.01^0.4 on the axes, which 31 random directions miss
        cost = sum_alpha(2, 0.6)
        assert round(norm_cost_ratio(cost, 0.01, samples=2000, seed=3), 6) == 0.158489
        assert round(self.reference(cost, 0.01, 2000, 3, axes=False), 6) == 0.157027

    def test_bit_equal_to_scalar_loop(self):
        """A custom cost is sampled: its ratio is the scalar loop's, the axes appended, bit for bit."""
        for cost in (custom_cost(2, lambda t: float(np.abs(t).sum()) ** 0.6),
                     custom_cost(3, lambda t: float(np.linalg.norm(t)) ** 0.8 + 0.5 * abs(float(t[1])))):
            for delta in (0.01, 1.0, 16.0):
                assert norm_cost_ratio(cost, delta, samples=2000, seed=3) == self.reference(cost, delta, 2000, 3, True)

    def test_vanishing_cost_rejected(self):
        c = custom_cost(2, lambda t: max(float(t[0]), 0.0))  # zero on a half-plane
        with pytest.raises(ValueError, match="vanishes"):
            norm_cost_ratio(c, 1.0, samples=64 * 40)
        nan_near_0 = custom_cost(1, lambda t: math.nan if abs(t[0]) < 1e-3 else abs(float(t[0])) ** 0.5)
        with pytest.raises(ValueError, match="NaN"):
            norm_cost_ratio(nan_near_0, 1.0, samples=640)

    def test_unbounded_ratio_near_zero_rejected(self):
        c = custom_cost(1, lambda t: float(np.linalg.norm(t)) ** 2)  # |v|/C(v) = 1/|v|
        with pytest.raises(ValueError, match="unbounded"):
            norm_cost_ratio(c, 1.0, samples=640)

    def test_flat_ratio_is_bounded_at_every_scale(self):
        """A linear cost's ratio is flat along each ray: the innermost shell
        ties with the sup, which is bounded, at any delta and cost weight."""
        for w in (1e-7, 1.0, 2.0 ** 30):
            c = custom_cost(1, lambda t, w=w: w * abs(float(t[0])))
            for delta in (2.0 ** -30, 1.0, 10.0):
                assert norm_cost_ratio(c, delta, samples=640) == pytest.approx(1 / w, rel=4 * U, abs=0), (w, delta)
