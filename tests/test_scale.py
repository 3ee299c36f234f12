"""One scale rule: every length and weight tolerance is ``EPS_REL`` times a
power-of-two scale read off the input (``chains.pow2_scale``).

Multiplying every coordinate, or every weight, by 2^k is exact in floating
point, and it scales L or S by exactly 2^k.  So canonicalization, the
solver and the cascade return exactly 2^k times their unit-scale edge
arrays and energies, and a check that passes or fails at one scale does so
at every scale.
"""

import importlib.util
import itertools
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from branchnet import (Chain0, Chain1, DyadicGrid, OptimizerConfig, cascade, cli, local_search, shifted_grid,
                       sum_alpha, w_upper)
from branchnet.chains import (boundary, canonicalize, canonicalize0, chain0_close, chains_close, is_compatible,
                              is_piece, mass, pow2_scale)
from branchnet.construct import barycenter, bounding_cube
from branchnet.costs import (BetaEnvelope, admissibility_check, custom_cost, derivative_profile, dir_derivative_at_zero,
                             evaluate_rows, p_norm_alpha, rectifiability_flag, validate_cost)
from branchnet.energy import mass_bound_constant
from branchnet.io import emit_svg
from branchnet.metrics import coarea_check, flat_norm_0chain_component
from branchnet.optimize import verify_solution
from conftest import bits
from test_chains import length_scale_reference, near_snap_cloud, reference_chains
from test_costs import MIXED_BREAKER

WORKLOADS = Path(__file__).resolve().parents[1] / "bnbench" / "workloads.py"
SCALES = (-30, -10, 10, 30)


def _workloads():
    spec = importlib.util.spec_from_file_location("bnbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_pow2_scale():
    assert pow2_scale(np.zeros((0, 2)), extent=True) == pow2_scale(np.zeros((3, 2)), extent=True) == 1.0
    assert pow2_scale(np.zeros((2, 2))) == 1.0
    assert pow2_scale(np.array([[0.0, 3.0], [6.0, -0.5]]), extent=True) == 8.0  # coordinate ranges 6 and 3.5
    assert pow2_scale(np.array([[-0.0, 1.0], [1.0, 0.69]]), extent=True) == 1.0
    assert pow2_scale(np.array([[0.5, -2.0]])) == 2.0 and pow2_scale(np.array([[-2.0000000000000004]])) == 4.0
    rng = np.random.default_rng(0)
    for _ in range(200):
        X = rng.normal(size=(5, 3)) * 10.0 ** rng.integers(-12, 12)
        for extent in (False, True):
            L = pow2_scale(X, extent)
            size = float(np.max(np.ptp(X, axis=0) if extent else np.abs(X)))
            assert L >= size > L / 2 and math.frexp(L)[0] == 0.5
            assert L == (length_scale_reference(X.tolist()) if extent else length_scale_reference([[0.0], [size]]))
            for k in SCALES:
                assert pow2_scale(np.ldexp(X, k), extent) == math.ldexp(L, k)


@pytest.mark.parametrize("k", [-30, 30])
def test_bounding_cube_of_one_point_is_equivariant(k):
    """A single point's cube, which a w-sweep on a one-atom target grids,
    scales with its coordinates."""
    P = np.array([[0.75, -0.3]])
    center, edge = bounding_cube(P)
    assert bounding_cube(np.ldexp(P, k)) == (tuple(np.ldexp(center, k).tolist()), math.ldexp(edge, k))


def test_bench_pools_have_unit_length_scale():
    """The bench pools of seeds 1-3 span at most the unit square or cube,
    so their tolerances, and the bench signatures, are those of L = 1."""
    workloads = _workloads().WORKLOADS
    for name in ("solve", "cascade", "certify"):
        for seed in (1, 2, 3):
            for spec in workloads[name].generate(seed):
                P = np.vstack([spec["pm"], spec["pp"], *(spec[x] for x in ("A", "B") if x in spec)])
                assert pow2_scale(P, extent=True) == 1.0, (name, seed)


def test_solve_is_equivariant_under_coordinate_scaling():
    """Every third instance of the seed-7 solve pool, coordinates times 2^k:
    edge arrays and energy exactly 2^k times those at k = 0, the same
    residual (measured in units of L) and the same verdict."""
    solve = _workloads().WORKLOADS["solve"]
    for spec in solve.generate(7)[::3]:
        m, cost = spec["m"], sum_alpha(spec["m"], spec["alpha"])
        runs = {}
        for k in (0, *SCALES):
            mm = Chain0.from_arrays(2, m, np.ldexp(spec["pm"], k), spec["wm"])
            mp = Chain0.from_arrays(2, m, np.ldexp(spec["pp"], k), spec["wp"])
            runs[k] = local_search(mm, mp, cost, OptimizerConfig(seed=0))
        T0, rep0 = runs[0]
        for k in SCALES:
            T, rep = runs[k]
            assert bits(T) == bits(Chain1.from_arrays(2, m, np.ldexp(T0.A, k), np.ldexp(T0.B, k), T0.Theta)), k
            assert rep.energy == math.ldexp(rep0.energy, k), k
            assert rep.boundary_residual == rep0.boundary_residual and rep.ok == rep0.ok, k
            assert rep.iterations == rep0.iterations, k


def _scaled_pair(spec, k):
    m = spec["m"]
    return (Chain0.from_arrays(2, m, np.ldexp(spec["pm"], k), spec["wm"]),
            Chain0.from_arrays(2, m, np.ldexp(spec["pp"], k), spec["wp"]))


def test_cascade_start_and_w_upper_are_equivariant_under_coordinate_scaling():
    """The grid that ``shifted_grid`` lays around the measures follows the
    unit of length, so a search from the cascade and ``w_upper`` scale by
    exactly 2^k, the search's verdict and sweep count unchanged."""
    solve = _workloads().WORKLOADS["solve"]
    for spec in solve.generate(7)[::9]:
        cost, config = sum_alpha(spec["m"], spec["alpha"]), OptimizerConfig(init="cascade")
        T0, rep0 = local_search(*_scaled_pair(spec, 0), cost, config)
        W0 = w_upper(*_scaled_pair(spec, 0), cost)
        for k in (-10, 10):
            T, rep = local_search(*_scaled_pair(spec, k), cost, config)
            assert bits(T) == bits(Chain1.from_arrays(2, spec["m"], np.ldexp(T0.A, k), np.ldexp(T0.B, k), T0.Theta)), k
            assert rep.energy == math.ldexp(rep0.energy, k) and rep.ok == rep0.ok, k
            assert rep.iterations == rep0.iterations and rep.stop_reason == rep0.stop_reason, k
            assert w_upper(*_scaled_pair(spec, k), cost) == math.ldexp(W0, k), k


def test_canonicalize_is_equivariant_on_near_degenerate_inputs():
    rng = np.random.default_rng(11)
    for T in reference_chains(rng):
        C = canonicalize(T)
        for k in SCALES:
            S = canonicalize(Chain1.from_arrays(T.n, T.m, np.ldexp(T.A, k), np.ldexp(T.B, k), T.Theta))
            assert bits(S) == bits(Chain1.from_arrays(T.n, T.m, np.ldexp(C.A, k), np.ldexp(C.B, k), C.Theta,
                                                      canonical=True))
    for j in range(60):
        n, m = 2 + j % 3, 1 + j % 3
        mu = Chain0.from_arrays(n, m, near_snap_cloud(rng, n), rng.normal(size=(10, m)))
        C = canonicalize0(mu)
        for k in SCALES:
            got = canonicalize0(Chain0.from_arrays(n, m, np.ldexp(mu.P, k), mu.W))
            assert bits(got) == bits(Chain0.from_arrays(n, m, np.ldexp(C.P, k), C.W))


@pytest.mark.parametrize("k", [-660, 660])
def test_canonical_forms_are_equivariant_at_extreme_weight_scales(k):
    """Weights times 2^k for |k| = 660, where a squared multiplicity leaves
    the floating-point range: ``canonicalize``, ``boundary`` and
    ``canonicalize0`` return exactly 2^k times their unit-scale weights,
    and drop no row that they keep at unit scale."""
    rng = np.random.default_rng(660)
    for T in itertools.islice(reference_chains(rng), 60):
        C = canonicalize(T)
        got = canonicalize(Chain1.from_arrays(T.n, T.m, T.A, T.B, np.ldexp(T.Theta, k)))
        assert bits(got) == bits(Chain1.from_arrays(T.n, T.m, C.A, C.B, np.ldexp(C.Theta, k), canonical=True))
        D = boundary(C)
        assert bits(boundary(got)) == bits(Chain0.from_arrays(T.n, T.m, D.P, np.ldexp(D.W, k)))
    for j in range(20):
        n, m = 2 + j % 3, 1 + j % 3
        mu = Chain0.from_arrays(n, m, near_snap_cloud(rng, n), rng.normal(size=(10, m)))
        C = canonicalize0(mu)
        got = canonicalize0(Chain0.from_arrays(n, m, mu.P, np.ldexp(mu.W, k)))
        assert bits(got) == bits(Chain0.from_arrays(n, m, C.P, np.ldexp(C.W, k)))
    lone = Chain1.from_arrays(2, 1, [[0.0, 0.0]], [[1.0, 0.0]], [[math.ldexp(1.0, k)]])
    assert len(canonicalize(lone).A) == 1 and len(boundary(lone).P) == 2
    assert len(canonicalize0(Chain0.from_arrays(2, 1, [[0.0, 0.0]], [[math.ldexp(1.0, k)]])).P) == 1


@pytest.mark.parametrize("k", [-1008, -600, 600])
def test_search_is_equivariant_at_extreme_weight_scales(k):
    """Weights times 2^k for |k| = 600, where a squared weight leaves the
    floating-point range, and for k = -1008, where every energy is still
    normal but below 1e-300: ``barycenter`` places the same cone vertex,
    ``mass`` reads 2^k times the unit-scale mass, and ``local_search`` on
    solve-pool instances returns the same edges with 2^k times the
    multiplicities, 2^(k alpha) times the energy, the same sweeps and an ok
    report, at alpha = 1 and 0.5.  Its stop rule is relative, with no floor."""
    pool = _workloads().WORKLOADS["solve"].generate(7)
    for spec in pool[::13]:  # m = 1, 2, 3, 1 with 4, 6, 7, 10 atoms per side
        m = spec["m"]
        unit = [Chain0.from_arrays(2, m, spec[p], spec[w]) for p, w in (("pm", "wm"), ("pp", "wp"))]
        scaled = [Chain0.from_arrays(2, m, mu.P, np.ldexp(mu.W, k)) for mu in unit]
        nu, nu_k = unit[1] - unit[0], scaled[1] - scaled[0]
        assert barycenter(nu_k) == barycenter(nu)
        assert mass(nu_k) == math.ldexp(mass(nu), k)
        for alpha in (1.0, 0.5):
            cost = sum_alpha(m, alpha)
            T, rep = local_search(*unit, cost)
            T_k, rep_k = local_search(*scaled, cost)
            assert bits(T_k) == bits(Chain1.from_arrays(2, m, T.A, T.B, np.ldexp(T.Theta, k), canonical=True))
            assert mass(T_k) == math.ldexp(mass(T), k)
            assert rep_k.energy == math.ldexp(rep.energy, int(k * alpha))
            assert rep_k.iterations == rep.iterations and rep_k.ok and rep.ok


@pytest.mark.parametrize("k", [-600, 600])
def test_euclidean_norm_cost_is_exact_at_extreme_weight_scales(k):
    """``p_norm_alpha(3, 2, 1)`` costs rows times 2^k at exactly 2^k times
    their unit-scale costs, and in a batch that mixes rows at 2^-600 with
    unit rows each row costs exactly what it costs alone: the scale is
    per row, not per array."""
    cost = p_norm_alpha(3, 2, 1.0)
    Theta = np.random.default_rng(600).normal(size=(20, 3))
    assert evaluate_rows(cost, np.ldexp(Theta, k)).tolist() == np.ldexp(evaluate_rows(cost, Theta), k).tolist()
    mixed = np.vstack([np.ldexp(Theta[:10], -600), Theta[10:]])
    assert evaluate_rows(cost, mixed).tolist() == [evaluate_rows(cost, row[None])[0] for row in mixed]


@pytest.mark.parametrize("k", [-600, 600])
def test_general_p_norm_cost_is_exact_at_extreme_weight_scales(k):
    """``p_norm_alpha(2, 3, 0.8)`` costs 2^k e_1 at (2^k)^0.8 with no warning: a row whose largest cube is not a
    normal float is divided by a power of two before it is powered, where it cost 0.0 or inf."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = evaluate_rows(p_norm_alpha(2, 3, 0.8), np.array([[math.ldexp(1.0, k), 0.0]]))[0]
    want = math.pow(math.ldexp(1.0, k), 0.8)
    assert abs(got - want) <= 1e-15 * want


@pytest.mark.parametrize("k", [-600, 600])
def test_close_helpers_tell_a_chain_from_its_double_at_extreme_weight_scales(k):
    """At weights times 2^k for |k| = 600, where the square of a residual
    leaves the floating-point range, ``chains_close`` and ``chain0_close``
    tell a chain or measure from its double, and each is close to itself."""
    S = Chain1.from_arrays(2, 2, [[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 1.0]], np.ldexp([[0.75, 0.5]] * 2, k))
    mu = Chain0.from_arrays(1, 2, [[0.25], [1.0]], np.ldexp([[0.75, -0.5], [0.25, 1.0]], k))
    assert not chains_close(S, Chain1.from_arrays(2, 2, S.A, S.B, 2 * S.Theta)) and chains_close(S, S)
    assert not chain0_close(mu, Chain0.from_arrays(1, 2, mu.P, 2 * mu.W)) and chain0_close(mu, mu)


@pytest.mark.parametrize("k", [-600, 600])
def test_coarea_check_is_homogeneous_at_extreme_weight_scales(k):
    """``coarea_check`` of a chain with multiplicities times 2^k returns
    exactly 2^k times its unit-scale integral and bound."""
    rng = np.random.default_rng(600)
    for T in itertools.islice(reference_chains(rng), 30):
        g = rng.normal(size=T.n)
        integral, bound = coarea_check(T, g)
        got = coarea_check(Chain1.from_arrays(T.n, T.m, T.A, T.B, np.ldexp(T.Theta, k)), g)
        assert got == (math.ldexp(integral, k), math.ldexp(bound, k))


@pytest.mark.parametrize("k", [-600, 600])
def test_svg_does_not_depend_on_the_weight_scale(tmp_path, k):
    """``emit_svg`` draws strokes and atoms relative to the largest weight,
    so multiplicities and measures times 2^k give the same file."""
    rng = np.random.default_rng(600)
    T = Chain1.from_arrays(2, 2, rng.uniform(0, 1, (6, 2)), rng.uniform(0, 1, (6, 2)), rng.uniform(0.1, 2, (6, 2)))
    mus = [Chain0.from_arrays(2, 2, rng.uniform(0, 1, (4, 2)), rng.uniform(0.1, 2, (4, 2))) for _ in range(2)]
    files = []
    for j in (0, k):
        files.append(tmp_path / f"net{j}.svg")
        emit_svg(Chain1.from_arrays(2, 2, T.A, T.B, np.ldexp(T.Theta, j)),
                 *[Chain0.from_arrays(2, 2, mu.P, np.ldexp(mu.W, j)) for mu in mus], files[-1])
    assert files[0].read_bytes() == files[1].read_bytes()


def test_an_overflowing_merge_raises(tmp_path):
    """Coincident rows whose sum leaves the float range are refused, not
    dropped: two edges, or two atoms, of weight 1e308 at one place raise,
    and the CLI exits 2 on such a measure."""
    twice = Chain1.from_arrays(2, 1, [[0.0, 0.0]] * 2, [[1.0, 0.0]] * 2, [[1e308]] * 2)
    atoms = Chain0.from_arrays(2, 1, [[0.0, 0.0]] * 2, [[1e308]] * 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # numpy's own overflow warning of the sum
        with pytest.raises(ValueError, match="overflows"):
            canonicalize(twice)
        with pytest.raises(ValueError, match="overflows"):
            canonicalize0(atoms)
        path = tmp_path / "mu.json"
        path.write_text(json.dumps({"version": 1, "n": 2, "m": 1, "atoms": [{"p": [0.0, 0.0], "w": [1e308]}] * 2}))
        assert cli.main(["flat-bound", str(path)]) == 2


def test_cascade_is_equivariant_on_a_scaled_grid():
    rng = np.random.default_rng(5)
    mm, mp = (Chain0.from_arrays(2, 2, rng.uniform(0, 1, (24, 2)), np.ones((24, 2))) for _ in "-+")
    grid = shifted_grid((0.5, 0.5), 1.0, [mm, mp], seed=3, k_max=8)
    cost = sum_alpha(2, 0.75)
    base = cascade(mm, mp, grid, K=4, cost=cost)
    for k in SCALES:
        g = DyadicGrid(tuple(np.ldexp(grid.center, k)), math.ldexp(grid.edge, k), grid.k_max,
                       tuple(np.ldexp(grid.shift, k)), grid.tries_used)
        out = cascade(*(Chain0.from_arrays(2, 2, np.ldexp(mu.P, k), mu.W) for mu in (mm, mp)), g, K=4, cost=cost)
        T0 = base.chain
        assert bits(out.chain) == bits(Chain1.from_arrays(2, 2, np.ldexp(T0.A, k), np.ldexp(T0.B, k), T0.Theta,
                                                          canonical=True))
        assert out.certificate.energy == math.ldexp(base.certificate.energy, k)


@pytest.mark.parametrize("k", [-30, 30])
def test_verify_refuses_the_empty_network_at_every_scale(k):
    """Two atoms a unit apart: the empty network leaves the whole target as
    residual, whatever the unit of length or weight."""
    P, W = np.array([[0.0, 0.0]]), np.array([[1.0]])
    empty = Chain1(2, 1, canonical=True)
    cost = sum_alpha(1, 0.75)
    for p_scale, w_scale in ((k, 0), (0, k)):
        mm = Chain0.from_arrays(2, 1, np.ldexp(P, p_scale), np.ldexp(W, w_scale))
        mp = Chain0.from_arrays(2, 1, np.ldexp(P + [1.0, 0.0], p_scale), np.ldexp(W, w_scale))
        rep = verify_solution(empty, mm, mp, cost)
        assert not rep.ok and rep.boundary_residual > rep.eps_bnd, (p_scale, w_scale)


@pytest.mark.parametrize("k", [-30, 30])
def test_mass_bound_of_a_linear_custom_cost_is_scale_free(k):
    """w(|t_1| + |t_2|) has |v|/C(v) flat along every ray, bounded by 1/w on
    the axes: its constant is m/w = 2/w at every boundary mass and cost
    weight, and verify certifies a one-edge network with it at each scale."""
    for w in (1.0, math.ldexp(1.0, k)):
        linear = custom_cost(2, lambda th, w=w: w * float(abs(th[0]) + abs(th[1])))
        for bm in (math.ldexp(1.0, k), 1.0):
            assert mass_bound_constant(linear, bm) == 2 / w, (w, bm)
        weights = np.ldexp([[1.0, 0.5]], k)
        mm, mp = Chain0.from_arrays(2, 2, [[0.0, 0.0]], weights), Chain0.from_arrays(2, 2, [[1.0, 0.0]], weights)
        rep = verify_solution(Chain1.from_arrays(2, 2, [[0.0, 0.0]], [[1.0, 0.0]], weights), mm, mp, linear)
        assert rep.ok and rep.mass_bound_constant == 2 / w, w


def test_is_compatible_refuses_w_against_2w_at_every_weight_scale():
    for k in range(-30, 31):
        w = math.ldexp(1.0, k)
        mm, mp = Chain0.from_arrays(1, 1, [[0.0]], [[w]]), Chain0.from_arrays(1, 1, [[1.0]], [[2 * w]])
        assert not is_compatible(mm, mp) and not is_compatible(mp, mm), k
        assert is_compatible(mm, Chain0.from_arrays(1, 1, [[1.0], [2.0]], [[0.5 * w], [0.5 * w]])), k


@pytest.mark.parametrize("n, atoms", [(3, 48), (2, 6)])
def test_flat_norm_is_homogeneous_in_the_weights(n, atoms):
    """The flat LP's objective is the weights over their pow2_scale, so its
    input is the same at every weight scale and its value scales by 2^k."""
    rng = np.random.default_rng(atoms)
    W = np.vstack([rng.uniform(0.2, 2.0, (atoms, 2)), -rng.uniform(0.2, 2.0, (atoms, 2))])
    nu = Chain0.from_arrays(n, 2, rng.uniform(0, 1, (2 * atoms, n)), W)
    base = [flat_norm_0chain_component(nu, j) for j in range(2)]
    for k in SCALES:
        scaled = Chain0.from_arrays(n, 2, nu.P, np.ldexp(W, k))
        assert [flat_norm_0chain_component(scaled, j) for j in range(2)] == [math.ldexp(v, k) for v in base], k


def test_verify_residual_is_homogeneous_in_the_weights():
    """A cone network with one multiplicity off by 1e-3 and every edge
    ending a little off its atom leaves a residual of 24 dipoles, which
    scales with the weights by exactly 2^k."""
    rng = np.random.default_rng(3)
    wm, wp = rng.uniform(0.2, 2.0, (12, 2)), rng.uniform(0.2, 2.0, (12, 2))
    wp *= wm.sum(axis=0) / wp.sum(axis=0)
    pm, pp = rng.uniform(0, 1, (12, 3)), rng.uniform(0, 1, (12, 3))
    hub = np.full((24, 3), 0.5)
    Th = np.vstack([-wm, wp])
    Th[5, 1] *= 1.001
    ends = np.vstack([pm, pp]) + rng.uniform(-0.05, 0.05, (24, 3))
    cost = sum_alpha(2, 0.75)

    def residual(k):
        T = Chain1.from_arrays(3, 2, hub, ends, np.ldexp(Th, k))
        mm, mp = Chain0.from_arrays(3, 2, pm, np.ldexp(wm, k)), Chain0.from_arrays(3, 2, pp, np.ldexp(wp, k))
        return verify_solution(T, mm, mp, cost).boundary_residual

    base = residual(0)
    assert base > 0
    for k in SCALES:
        assert residual(k) == math.ldexp(base, k), k


@pytest.mark.parametrize("k", [-600, -40, 0, 40, 600])
def test_equality_helpers_compare_at_the_weight_scale(k):
    """``chains_close``, ``chain0_close`` and ``is_piece`` default to
    ``EPS_REL`` S of the multiplicities they compare: at every weight scale
    a chain is not close to its double, a measure not to its triple, and a
    reversed chain is no piece, while a last-bits difference still passes.
    At 2^-600 a product of two multiplicities underflows, so ``is_piece``
    compares signs."""
    theta, w = np.ldexp([[0.75], [0.5]], k), np.ldexp([[0.75, -0.5]], k)
    S = Chain1.from_arrays(2, 1, [[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 1.0]], theta)
    mu = Chain0.from_arrays(1, 2, [[0.25]], w)

    def scaled(T, c):
        return Chain1.from_arrays(2, 1, T.A, T.B, c * T.Theta)

    near = 1 + 2.0 ** -35  # beyond EPS_MULT_REL, so canonicalize keeps the difference
    assert not chains_close(S, scaled(S, 2.0)) and chains_close(S, scaled(S, near)), k
    assert not chain0_close(mu, Chain0.from_arrays(1, 2, mu.P, 3 * w)), k
    assert chain0_close(mu, Chain0.from_arrays(1, 2, mu.P, near * w)), k
    assert not is_piece(-S, S) and is_piece(scaled(S, 0.5), S) and is_piece(scaled(S, near), S), k


def _capped_sqrt(k, defect=None):
    """2^k sqrt(min(x, 1/2)): concave and non-decreasing, flat from x = 1/2
    on, where a defect of relative size 1e-6 is not hidden by the curvature.
    From x = 3/4 on, a "dip" steps it down by 1e-6 of its value, and a
    "kink" raises its slope so that its second difference on the 257-point
    grid is 1e-6 of its value."""
    top = math.sqrt(0.5)

    def fn(x):
        g = math.sqrt(min(x, 0.5))
        if x >= 0.75 and defect == "dip":
            g = top * (1 - 1e-6)
        elif x >= 0.75 and defect == "kink":
            g = top * (1 + 1e-6 * 256 * (x - 0.75))
        return math.ldexp(g, k)

    return BetaEnvelope(fn)


@pytest.mark.parametrize("k", [-40, 0, 40])
def test_envelope_check_is_relative_to_the_envelope_scale(k):
    """A custom envelope's monotonicity and concavity checks take their
    slack relative to ``pow2_scale`` of its sampled values: a relative 1e-6
    dip raises and a relative 1e-6 convex kink warns at every scale 2^k,
    and the envelope without a defect does neither."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        admissibility_check(_capped_sqrt(k), 2)
    with pytest.raises(ValueError, match="not non-decreasing"):
        admissibility_check(_capped_sqrt(k, "dip"), 2)
    with pytest.warns(UserWarning, match="not concave"):
        admissibility_check(_capped_sqrt(k, "kink"), 2)


def test_cost_validation_counts_are_scale_free():
    """``validate_cost``'s slacks are relative to the cost values they
    compare, so a cost scaled by 2^k gets the same counts: 2^k |t|^1.5,
    superadditive at every scale, fails subadditivity alike at k = -40, 0, 40."""
    counts = []
    for k in (-40, 0, 40):
        report = validate_cost(custom_cost(1, lambda th, k=k: math.ldexp(abs(float(th[0])) ** 1.5, k)), samples=2000)
        counts.append((report.as_dict(), report.ok))
    assert counts[0] == counts[1] == counts[2]
    assert counts[0][0]["subadditivity"] > 0 and not counts[0][1]


def _scaled_profile(fn, m, k, seed):
    """``derivative_profile`` of 2^k fn, with samples from ``seed``: its
    derivatives and bound scaled back by 2^-k, or the message it raises."""
    try:
        prof = derivative_profile(custom_cost(m, lambda th: math.ldexp(fn(th), k)), samples=20, seed=seed)
    except ValueError as exc:
        return str(exc)
    return [math.ldexp(d, -k) for d in prof.axis_derivatives], prof.basis_set, math.ldexp(prof.homog_bound, -k)


@pytest.mark.parametrize("k", [-40, 20, 40])
def test_derivative_verdicts_are_scale_free(k):
    """The derivative scan's decrease and growing rules, and the profile's
    sandwich test, are relative to the quotients they compare, with no floor,
    adder or cap, so a cost scaled by 2^k gets 2^k times the derivatives and
    the same verdicts.  |t|^0.99, whose quotient t^-0.01
    still grows at the end of the doubling grid, has an infinite derivative
    and is rectifiable at every scale; a linear cost keeps its profile, and
    the mixed breaker raises the same error for each seed."""
    sub = custom_cost(1, lambda th: math.ldexp(abs(float(th[0])) ** 0.99, k))
    assert dir_derivative_at_zero(sub, [1.0]) == math.inf and rectifiability_flag(sub)
    linear = lambda th: float(abs(th[0]) + 2.0 * abs(th[1]) + 0.5 * abs(th[2]))  # noqa: E731
    for fn, m in ((linear, 3), (MIXED_BREAKER.fn, 2)):
        for seed in range(4):
            assert _scaled_profile(fn, m, k, seed) == _scaled_profile(fn, m, 0, seed)
