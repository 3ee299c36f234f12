import math

import numpy as np
import pytest

from branchnet.chains import Chain1, Edge, canonicalize, component_lift, mass
from branchnet.energy import (
    EnergyCertificate,
    NonCanonicalError,
    energy,
    energy_component,
    mass_bound_constant,
)
from branchnet.costs import (component_sum, custom_cost, derivative_profile, dir_derivative_at_zero, evaluate_rows,
                             p_norm_alpha, sum_alpha)
from conftest import COST_FAMILIES, random_chain
from test_costs import U, closed_form_ratio, evaluate_reference


class TestEnergy:
    def test_single_segment(self):
        T = canonicalize(Chain1(2, 1, (Edge((0.0, 0.0), (3.0, 4.0), (4.0,)),)))
        assert energy(T, sum_alpha(1, 0.5)) == pytest.approx(2.0 * 5.0)

    def test_empty_chain(self):
        assert energy(Chain1(2, 1, (), canonical=True), sum_alpha(1, 0.5)) == 0.0

    def test_rejects_non_canonical(self):
        T = Chain1(2, 1, (Edge((0.0, 0.0), (1.0, 0.0), (1.0,)),))
        with pytest.raises(NonCanonicalError):
            energy(T, sum_alpha(1, 0.5))

    def test_subadditive_under_sum(self, rng):
        cost = sum_alpha(2, 0.7)
        for _ in range(30):
            S = random_chain(rng, edges=5, m=2, grid=2)
            T = random_chain(rng, edges=5, m=2, grid=2)
            lhs = energy(canonicalize(S + T), cost)
            rhs = energy(S, cost) + energy(T, cost)
            assert lhs <= rhs * (1 + 1e-10) + 1e-12

    def test_component_sandwich(self, rng):
        cost = sum_alpha(3, 0.6)
        for _ in range(30):
            T = random_chain(rng, edges=6, m=3)
            e = energy(T, cost)
            total = math.fsum(energy_component(T, cost, j) for j in range(3))
            assert e <= total * (1 + 1e-10)
            assert total <= 3 * e * (1 + 1e-10)


def _energy_reference(T, cost):
    """The scalar loop: one scalar cost per edge, summed in sorted order."""
    return float(math.fsum(sorted(evaluate_reference(cost, e.theta) * e.length for e in T.edges)))


class TestEnergyBatched:
    @pytest.mark.parametrize("family", sorted(COST_FAMILIES))
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_bit_equal_to_scalar_loop(self, rng, family, m):
        cost = COST_FAMILIES[family](m)
        for n in (2, 3):
            assert energy(Chain1(n, m, (), canonical=True), cost) == 0.0
            for _ in range(10):
                T = random_chain(rng, n=n, m=m, edges=10, grid=2)
                assert energy(T, cost) == _energy_reference(T, cost)


class TestCertificate:
    def test_bound_must_dominate(self):
        EnergyCertificate(1.0, 2.0, "cascade", "abc")
        with pytest.raises(ValueError):
            EnergyCertificate(2.0, 1.0, "cascade", "abc")


class TestMassBoundConstant:
    def test_sqrt_cost(self):
        # m=1, C = sqrt: axis derivative infinite, sup |t|/C(t) on |t|<=4 is 2
        c = mass_bound_constant(sum_alpha(1, 0.5), boundary_mass=4.0)
        assert c == pytest.approx(2.0, rel=1e-6)

    def test_linear_cost(self):
        # C = 2|t|: finite derivative 2, ratio 1/2 everywhere
        c = mass_bound_constant(sum_alpha(1, 1.0, weights=[2.0]), boundary_mass=10.0)
        assert c == pytest.approx(0.5, rel=1e-6)

    def test_controls_mass_on_random_chains(self, rng):
        cost = sum_alpha(2, 0.8)
        for _ in range(20):
            T = random_chain(rng, edges=6, m=2)
            from branchnet.chains import boundary

            bm = mass(boundary(T))
            if bm == 0:
                continue
            c = mass_bound_constant(cost, bm)
            # the inequality is for chains with |theta| <= boundary mass;
            # random small chains here satisfy it by construction
            theta_max = max(float(np.linalg.norm(e.theta)) for e in T.edges)
            if theta_max > bm:
                continue
            assert mass(T) <= c * energy(T, cost) * (1 + 1e-9)


def _mass_bound_reference(cost, boundary_mass, directions=10_000, radii=64, seed=0):
    """mass_bound_constant as a scalar loop: one scalar cost per grid point."""
    prof = derivative_profile(cost, samples=0)
    inv_deriv = 0.0
    for j in prof.basis_set:
        inv_deriv = max(inv_deriv, 1.0 / prof.axis_derivatives[j])
    rng = np.random.default_rng(seed)
    rs = boundary_mass * np.logspace(-8, 0, radii)
    sup_ratio = 0.0
    for _ in range(max(1, directions // radii)):
        u = rng.normal(size=cost.m)
        u /= np.linalg.norm(u)
        for r in rs:
            c = evaluate_reference(cost, r * u)
            if c > 0.0:
                sup_ratio = max(sup_ratio, r / c)
    for j in range(cost.m):
        ej = np.zeros(cost.m)
        ej[j] = 1.0
        for r in rs:
            c = evaluate_reference(cost, r * ej)
            if c > 0.0:
                sup_ratio = max(sup_ratio, r / c)
    return cost.m * max(inv_deriv, sup_ratio)


def _as_custom(cost):
    """The same cost through the custom path, which ``mass_bound_constant``
    samples on ``_mass_bound_reference``'s grid: its scalar formula as fn."""
    return custom_cost(cost.m, lambda t: evaluate_reference(cost, t))


class TestMassBoundBatched:
    """A custom cost's sampled constant equals the scalar loop bit for bit;
    a built-in family's is its closed form (``TestMassBoundClosedForm``)."""

    MASSES = (1e-3, 0.37, 1.0, 4.0, 250.0)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("make", [lambda m: sum_alpha(m, 0.75), lambda m: p_norm_alpha(m, 2.0, 0.8)])
    def test_bit_equal_to_scalar_loop(self, make, m):
        cost = make(m)
        for bm in self.MASSES:
            want = _mass_bound_reference(cost, bm)
            assert mass_bound_constant(_as_custom(cost), bm) == want
            _assert_closed_form(cost, bm, want)

    def test_weighted_and_linear_sum_alpha_bit_equal(self):
        for cost in (sum_alpha(2, 0.6, weights=[1.0, 2.5]), sum_alpha(3, 1.0)):
            for bm in self.MASSES:
                want = _mass_bound_reference(cost, bm, 640)
                assert mass_bound_constant(_as_custom(cost), bm, directions=640) == want
                _assert_closed_form(cost, bm, want)

    @pytest.mark.parametrize("cost", [
        component_sum(3, [1.0, 2.0, 0.5], [0.3, 1.0, 0.7]),
        p_norm_alpha(3, 3.0, 0.6),
        p_norm_alpha(2, 1.5, 0.9),
        custom_cost(2, lambda t: float(np.abs(t).sum()) ** 0.7),
    ], ids=["component_sum", "p3", "p1.5", "custom"])
    def test_other_families_match_scalar_loop(self, cost):
        for bm in self.MASSES:
            want = _mass_bound_reference(cost, bm, 1280, seed=4)
            sampled = mass_bound_constant(_as_custom(cost) if cost.extremal else cost, bm, directions=1280, seed=4)
            assert sampled == pytest.approx(want, rel=1e-14)
            if cost.extremal:
                _assert_closed_form(cost, bm, want)


def _closed_form(cost, delta):
    """m max(sup |t|_2 / C(t) on the ball of radius delta, the largest inverse
    axis derivative at 0), from the family's formula with ``math.pow``."""
    a = cost.params.get("alpha")
    if "weights" in cost.params:
        inv_deriv = 1 / min(cost.params["weights"]) if a == 1 else 0.0
    elif "coeffs" in cost.params:
        inv_deriv = max([0.0] + [1 / c for c, al in zip(cost.params["coeffs"], cost.params["alphas"]) if al == 1])
    else:
        inv_deriv = 1.0 if a == 1 else 0.0
    return cost.m * max(closed_form_ratio(cost, delta), inv_deriv)


def _assert_closed_form(cost, delta, sampled):
    """The constant is the family's closed form within 4 U, and no sampled
    reference lies above it by more than rounding (8 U)."""
    got = mass_bound_constant(cost, delta)
    assert got == pytest.approx(_closed_form(cost, delta), rel=4 * U, abs=0)
    assert got >= sampled * (1 - 8 * U)


class TestMassBoundClosedForm:
    """ROADMAP item 13's grid: m 1..5, alpha in {0.3, 0.5, 0.75, 0.9, 1},
    p in {1, 1.5, 2, 3, inf} and uneven weights."""

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.75, 0.9, 1.0])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_grid(self, m, alpha):
        w = [1.0 + 0.37 * j for j in range(m)][::-1]  # the smallest weight last
        costs = [sum_alpha(m, alpha, w), component_sum(m, w, [alpha] * m),
                 *(p_norm_alpha(m, p, alpha) for p in (1.0, 1.5, 2.0, 3.0, math.inf))]
        for cost in costs:
            for delta in (0.37, 250.0):
                sampled = _mass_bound_reference(cost, delta, directions=320, seed=m)
                _assert_closed_form(cost, delta, sampled)
                if cost.params.get("p", 2.0) <= 2.0:  # the axes, which the sampled grid holds too
                    assert mass_bound_constant(cost, delta) <= sampled

    def test_uneven_exponents_take_the_largest_axis(self):
        cost = component_sum(3, [1.0, 2.0, 0.5], [0.3, 1.0, 0.7])
        for delta in (1e-3, 1.0, 250.0):
            _assert_closed_form(cost, delta, _mass_bound_reference(cost, delta, 640))

    def test_diagonal_raises_the_sampled_constant(self):
        # p = inf at m = 5: the diagonal's ratio is m^(alpha/2) times an axis's, which sampling misses
        cost = p_norm_alpha(5, math.inf, 0.9)
        assert cost.extremal == ((1.0 / math.sqrt(5),) * 5,)
        assert mass_bound_constant(cost, 1.0) > 1.05 * _mass_bound_reference(cost, 1.0)


# subadditive custom costs, with finite or infinite derivatives at 0 along the axes
SUBADDITIVE = (
    custom_cost(2, lambda t: float(3.0 * abs(t[0]) + 0.5 * abs(t[1]))),
    custom_cost(1, lambda t: float(min(abs(t[0]), 1.0) + 0.25 * abs(t[0]))),
    custom_cost(2, lambda t: float(np.abs(t).sum()) ** 0.5 + float(np.abs(t).sum())),
    custom_cost(3, lambda t: float(np.linalg.norm(t)) + 2.0 * abs(float(t[2])) ** 0.7),
)


class TestInverseDerivativeLemma:
    """Why ``mass_bound_constant`` needs no inverse-derivative term: for a
    subadditive cost C(t e_j)/t rises to C'(0; e_j) as t falls to 0, so
    1/C'(0; e_j) = inf_t t/C(t e_j) <= delta/C(delta e_j), within rounding."""

    DELTAS = (1e-3, 0.37, 1.0, 4.0, 250.0)

    def _check(self, cost):
        inv_deriv = 1.0 / dir_derivative_at_zero(cost, np.eye(cost.m))
        for delta in self.DELTAS:
            assert np.all(inv_deriv <= delta / evaluate_rows(cost, delta * np.eye(cost.m)) * (1 + 4 * U))
            assert cost.m * inv_deriv.max() <= mass_bound_constant(cost, delta, directions=640) * (1 + 4 * U)

    @pytest.mark.parametrize("alpha", [0.3, 0.75, 1.0])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_builtin_grid(self, m, alpha):
        w = [1.0 + 0.37 * j for j in range(m)]
        for cost in (sum_alpha(m, alpha, w), component_sum(m, w, [alpha] * m),
                     *(p_norm_alpha(m, p, alpha) for p in (1.0, 1.5, 2.0, 3.0, math.inf))):
            self._check(cost)

    @pytest.mark.parametrize("cost", SUBADDITIVE, ids=["linear", "capped", "sqrt_plus_linear", "norm_plus_power"])
    def test_custom_subadditive(self, cost):
        self._check(cost)
