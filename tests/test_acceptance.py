"""End-to-end acceptance suite.

Each test exercises one documented guarantee of the library at its stated
tolerance and runtime budget and prints a single PASS/FAIL line (visible
with ``pytest -s`` or in captured output).
"""

import math
import time

import numpy as np
import pytest

from branchnet import (
    Atom,
    Box,
    BetaEnvelope,
    Chain0,
    Chain1,
    Edge,
    OptimizerConfig,
    boundary,
    canonicalize,
    canonicalize0,
    cascade,
    chain0_close,
    check_multiplicity_bound,
    component_lift,
    component_sum,
    cone,
    derivative_profile,
    divergence,
    dyadic_approx,
    energy,
    flat_bounds,
    flat_norm_0chain_component,
    ig_identity_mc,
    local_search,
    mass,
    mass_bound_constant,
    p_norm_alpha,
    rectifiability_flag,
    remove_cycles,
    restrict,
    s_beta_series,
    shifted_grid,
    slice_chain,
    coarea_check,
    restrict_halfspace,
    sum_alpha,
    custom_cost,
    validate_cost,
    w_upper,
)
from branchnet.chains import component_lift0
from conftest import compatible_pair, random_chain, random_measure
from test_optimize import arcs_reference, endpoint_tuples, find_directed_cycle_reference


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[criterion {num:2d}] {name}: {status}{suffix}")


def test_criterion_01_cone_exactness():
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(1, 4))
        atoms = int(rng.integers(2, 51))
        mu_minus, mu_plus = compatible_pair(rng, n=n, m=m, atoms=atoms)
        v = tuple(rng.uniform(-4, 4, n))
        C = cone(mu_plus - mu_minus, v)
        resid = canonicalize0(divergence(C) - (mu_minus - mu_plus))
        for a in resid.atoms:
            worst = max(worst, max(abs(w) for w in a.weight))
    dt = time.perf_counter() - t0
    ok = worst < 1e-12 and dt < 1.0
    _report(1, "cone divergence exactness", ok, f"worst atom error {worst:.2e}, {dt:.2f}s")
    assert ok, (worst, dt)


def test_criterion_02_cascade_bound():
    rng = np.random.default_rng(2)
    beta = BetaEnvelope.from_power(0.75)
    cost = sum_alpha(2, 0.75)
    # the dyadic series for beta(x)=x^(3/4) in the plane is geometric with
    # ratio 1/sqrt(2); its total is 1/(sqrt(2)-1)
    partial, tail = s_beta_series(beta, 2, 50)
    assert partial + tail == pytest.approx(1.0 / (math.sqrt(2) - 1.0), rel=1e-12)

    t0 = time.perf_counter()
    violations = 0
    max_resid = 0.0
    for i in range(100):
        mm = random_measure(rng, n=2, m=2, atoms=64, span=0.0,
                            weights=np.ones((64, 2)))
        mp = random_measure(rng, n=2, m=2, atoms=64, span=0.0,
                            weights=np.ones((64, 2)))
        mm = Chain0(2, 2, tuple(Atom(tuple(rng.uniform(0, 1, 2)), a.weight) for a in mm.atoms))
        mp = Chain0(2, 2, tuple(Atom(tuple(rng.uniform(0, 1, 2)), a.weight) for a in mp.atoms))
        grid = shifted_grid((0.5, 0.5), 1.0, [mm, mp], seed=i, k_max=8)
        res = cascade(mm, mp, grid, K=6, cost=cost, beta=beta)
        if res.certificate.energy > res.certificate.bound:
            violations += 1
        if not chain0_close(divergence(res.chain), mm - mp, tol=0.0):
            max_resid = max(max_resid, 1.0)
    dt = time.perf_counter() - t0
    ok = violations == 0 and max_resid == 0.0 and dt < 10.0
    _report(2, "cascade energy bound + exact divergence", ok,
            f"{violations} bound violations, {dt:.2f}s for 100 instances")
    assert ok, (violations, max_resid, dt)


def test_criterion_03_energy_axioms():
    rng = np.random.default_rng(3)
    cost = sum_alpha(2, 0.6)
    bad = 0
    count = 0
    rel = 1e-10
    while count < 1000:
        T = random_chain(rng, n=2, m=2, edges=int(rng.integers(2, 9)), grid=2)
        S = random_chain(rng, n=2, m=2, edges=int(rng.integers(2, 9)), grid=2)
        count += 2
        ET, ES = energy(T, cost), energy(S, cost)
        # subadditivity
        if energy(canonicalize(T + S), cost) > (ET + ES) * (1 + rel) + 1e-12:
            bad += 1
        # component sandwich
        comp = math.fsum(energy(component_lift(T, j), cost) for j in range(2))
        if not (ET <= comp * (1 + rel) + 1e-12 and comp <= 2 * ET * (1 + rel) + 1e-12):
            bad += 1
        # restriction additivity for a random box
        lo = rng.uniform(-4, 0, 2)
        hi = lo + rng.uniform(0.5, 6, 2)
        box = Box(tuple(lo), tuple(hi))
        Ein = energy(restrict(T, box), cost)
        Eout = energy(restrict(T, box, complement=True), cost)
        if abs(Ein + Eout - ET) > rel * max(ET, 1.0):
            bad += 1
        # piece monotonicity
        lam = rng.uniform(0, 1, (len(T.edges), 2))
        piece = canonicalize(Chain1(2, 2, tuple(
            Edge(e.a, e.b, tuple(np.asarray(e.theta) * l))
            for e, l in zip(T.edges, lam))))
        if energy(piece, cost) > ET * (1 + rel) + 1e-12:
            bad += 1
    ok = bad == 0
    _report(3, "energy axioms on random chains", ok, f"{bad} violations over {count} chains")
    assert ok, bad


def test_criterion_04_cycle_removal():
    rng = np.random.default_rng(4)
    cost = sum_alpha(1, 0.75)
    t0 = time.perf_counter()
    bad = 0
    for _ in range(500):
        T = random_chain(rng, n=2, m=1, edges=int(rng.integers(2, 7)), grid=1)
        # inject an axis-aligned circulation at a random lattice square
        x, y = rng.integers(-3, 3, 2).astype(float)
        f = float(rng.uniform(0.5, 3.0))
        loop = Chain1(2, 1, (
            Edge((x, y), (x + 1, y), (f,)),
            Edge((x + 1, y), (x + 1, y + 1), (f,)),
            Edge((x + 1, y + 1), (x, y + 1), (f,)),
            Edge((x, y + 1), (x, y), (f,)),
        ))
        T = canonicalize(T + loop)
        A = remove_cycles(T)
        if not chain0_close(divergence(A), divergence(T), tol=1e-12):
            bad += 1
        if energy(A, cost) > energy(T, cost) * (1 + 1e-12):
            bad += 1
        ends = endpoint_tuples(A)
        for j in range(A.m):
            if find_directed_cycle_reference(arcs_reference(ends, A.Theta[:, j].tolist(), 1e-12)) is not None:
                bad += 1
        if not check_multiplicity_bound(A).ok:
            bad += 1
    dt = time.perf_counter() - t0
    ok = bad == 0 and dt < 5.0
    _report(4, "cycle removal invariants", ok, f"{bad} violations, {dt:.2f}s for 500 chains")
    assert ok, (bad, dt)


def test_criterion_05_mass_control():
    rng = np.random.default_rng(5)
    cfg = OptimizerConfig(max_iters=3)
    bad = 0
    for alpha in (0.5, 0.75, 0.95):
        cost = sum_alpha(1, alpha)
        for _ in range(5):
            mm, mp = compatible_pair(rng, n=2, m=1, atoms=int(rng.integers(2, 9)), span=1.5)
            T, report = local_search(mm, mp, cost, cfg)
            bm = mass(canonicalize0(mm - mp))
            C = mass_bound_constant(cost, bm)
            if not (report.mass_bound_ok and mass(T) <= C * energy(T, cost) * (1 + 1e-9)):
                bad += 1
    ok = bad == 0
    _report(5, "mass controlled by energy on all solver outputs", ok, f"{bad} violations")
    assert ok, bad


def test_criterion_06_slicing_and_coarea():
    rng = np.random.default_rng(6)
    bad = 0
    worst = 0.0
    for _ in range(500):
        T = random_chain(rng, n=2, m=2, edges=int(rng.integers(1, 6)))
        g = rng.normal(size=2)
        g /= np.linalg.norm(g)
        vals = [float(np.dot(g, e.a)) for e in T.edges] + [float(np.dot(g, e.b)) for e in T.edges]
        lo, hi = min(vals), max(vals)
        y = float(rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo))) if hi > lo else 0.0
        # generic level: keep away from the projected endpoints
        if any(abs(v - y) < 1e-6 for v in vals):
            y += 1e-3
        S = slice_chain(T, g, y)
        half = restrict_halfspace(T, g, 0.0, y)
        bdry_half = canonicalize0(Chain0(2, 2, tuple(
            a for a in boundary(T).atoms if float(np.dot(g, a.position)) < y)))
        resid = canonicalize0(S - (boundary(half) - bdry_half))
        for a in resid.atoms:
            worst = max(worst, max(abs(w) for w in a.weight))
        lhs, rhs = coarea_check(T, g)
        if lhs > rhs * (1 + 1e-12) + 1e-12:
            bad += 1
        # coarea with the direction of a single-edge chain is an equality
        e = T.edges[0]
        tau = np.asarray(e.b) - np.asarray(e.a)
        tau /= np.linalg.norm(tau)
        one = Chain1(2, 2, (e,), canonical=True)
        l1, r1 = coarea_check(one, tau)
        if abs(l1 - r1) > 1e-10 * max(r1, 1.0):
            bad += 1
    ok = worst < 1e-12 and bad == 0
    _report(6, "slicing formula + coarea", ok,
            f"worst slice residual {worst:.2e}, {bad} coarea violations")
    assert ok, (worst, bad)


def test_criterion_07_integral_geometric_identity():
    rng = np.random.default_rng(7)
    cost = sum_alpha(2, 0.7)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        T = random_chain(rng, n=2, m=2, edges=int(rng.integers(2, 9)))
        _, _, rel = ig_identity_mc(T, cost, samples=10**6, seed=int(rng.integers(10**6)))
        worst = max(worst, rel)
    dt = time.perf_counter() - t0
    ok = worst < 0.01 and dt < 30.0
    _report(7, "integral-geometric energy identity (MC)", ok,
            f"worst relative error {worst:.2e}, {dt:.1f}s for 20 chains")
    assert ok, (worst, dt)


def test_criterion_08_flat_bounds():
    rng = np.random.default_rng(8)
    # dipole oracle: min(d, 2) * w
    worst = 0.0
    for d in (0.1, 0.5, 1.0, 1.999, 2.0, 2.001, 5.0, 10.0):
        for w in (0.25, 1.0, 3.0):
            nu = Chain0(2, 1, (Atom((0.0, 0.0), (w,)), Atom((d, 0.0), (-w,))))
            got = flat_norm_0chain_component(nu, 0)
            worst = max(worst, abs(got - min(d, 2.0) * w))
    bad = 0
    for _ in range(100):
        mu = canonicalize0(random_measure(rng, n=2, m=3, atoms=10))
        fb = flat_bounds(mu)
        mass_by_component = math.fsum(
            mass(canonicalize0(component_lift0(mu, j))) for j in range(3))
        if not (max(fb.per_component) <= fb.lower * (1 + 1e-12) + 1e-12
                and fb.lower <= fb.upper * (1 + 1e-12) + 1e-12
                and fb.lower <= mass(mu) * (1 + 1e-12) + 1e-12
                and fb.upper <= mass_by_component * (1 + 1e-12) + 1e-12):
            bad += 1
        T = random_chain(rng, n=2, m=3, edges=5)
        fbT = flat_bounds(T)
        massT_by_component = math.fsum(
            mass(component_lift(T, j)) for j in range(3))
        if not (fbT.lower <= fbT.upper * (1 + 1e-12)
                and fbT.lower <= mass(T) * (1 + 1e-12) + 1e-12
                and fbT.upper <= massT_by_component * (1 + 1e-12) + 1e-12):
            bad += 1
    ok = worst < 1e-9 and bad == 0
    _report(8, "flat-norm bounds (LP vs dipole oracle, bracket, F<=mass)", ok,
            f"worst dipole error {worst:.2e}, {bad} bracket violations")
    assert ok, (worst, bad)


def test_criterion_09_branch_point_sanity():
    t0 = time.perf_counter()
    mm = Chain0(2, 1, (Atom((-1.0, 0.0), (1.0,)), Atom((1.0, 0.0), (1.0,))))
    mp = Chain0(2, 1, (Atom((0.0, 2.0), (2.0,)),))
    bad = 0
    details = []
    for alpha in (0.5, 0.75, 0.95):
        cost = sum_alpha(1, alpha)
        ys = np.linspace(0.0, 2.0, 400_001)
        oracle = float(np.min(2.0 * np.sqrt(1.0 + ys**2) + (2.0 - ys) * 2.0**alpha))
        T, report = local_search(mm, mp, cost, OptimizerConfig(seed=0))
        err = abs(report.energy - oracle)
        n_edges = len(T.edges)
        want_edges = 2 if alpha >= 0.9 else 3
        if err > 1e-3 or n_edges != want_edges:
            bad += 1
        details.append(f"a={alpha}: err {err:.1e}, {n_edges} edges")
    dt = time.perf_counter() - t0
    ok = bad == 0 and dt < 10.0
    _report(9, "two-source Y/V topology vs 1-D oracle", ok, "; ".join(details))
    assert ok, (bad, details, dt)


def test_criterion_10_metrization_sweep():
    rng = np.random.default_rng(7)
    pts = rng.uniform(0.0, 1.0, (256, 2))
    wts = rng.uniform(0.5, 1.5, 256)
    target = Chain0(2, 1, tuple(Atom(tuple(p), (float(w),)) for p, w in zip(pts, wts)))
    grid = shifted_grid((0.5, 0.5), 1.0, [target], seed=0, k_max=10)
    cost = sum_alpha(1, 0.9)
    cfg = OptimizerConfig(max_iters=2)
    values = []
    for h in range(1, 7):
        approx = dyadic_approx(target, grid, h)
        values.append(w_upper(approx, target, cost, K=grid.k_max - 1, config=cfg, grid=grid))
    monotone = all(b <= a * (1 + 1e-12) for a, b in zip(values, values[1:]))
    ratio = values[-1] / values[0]
    ok = monotone and ratio < 0.05
    _report(10, "w_upper decays along dyadic refinements", ok,
            f"monotone={monotone}, w(6)/w(1)={ratio:.4f}")
    assert ok, (values, ratio)


def test_criterion_11_cost_classifier():
    # analytic answers for the built-in families
    ok = True
    notes = []
    for cost, flag in (
        (sum_alpha(2, 0.5), True),
        (p_norm_alpha(3, 2.0, 0.8), True),
        (component_sum(2, (1.0, 1.0), (0.5, 1.0)), False),
        (sum_alpha(2, 1.0), False),
    ):
        if rectifiability_flag(cost) is not flag:
            ok = False
            notes.append("rectifiability flag mismatch")
    prof = derivative_profile(component_sum(2, (3.0, 1.0), (1.0, 0.5)))
    if not (prof.axis_derivatives[0] == pytest.approx(3.0)
            and math.isinf(prof.axis_derivatives[1])
            and prof.basis_set == (0,)):
        ok = False
        notes.append("derivative profile mismatch")
    quad = custom_cost(1, lambda t: float(np.sum(t * t)))
    rep = validate_cost(quad, samples=2000, seed=0)
    if rep.ok or rep.subadditivity_violations == 0:
        ok = False
        notes.append("non-subadditive cost not rejected")
    _report(11, "cost classifier and validator", ok, "; ".join(notes) or "all analytic answers matched")
    assert ok, notes
