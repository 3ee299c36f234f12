import math

import numpy as np
import pytest

from branchnet.chains import (
    Atom,
    Chain0,
    Chain1,
    Edge,
    boundary,
    canonicalize,
    chain0_close,
    chains_close,
    divergence,
    is_piece,
    mass,
)
from branchnet.costs import evaluate, sum_alpha
from branchnet.energy import energy
from branchnet.optimize import (
    OptimizerConfig,
    _chain_diam,
    _free_vertices,
    check_multiplicity_bound,
    local_search,
    relocate_branch_points,
    remove_cycles,
    straighten,
    verify_solution,
)
from conftest import COST_FAMILIES, compatible_pair, path_chain, random_chain


def square_cycle(theta=(1.0,)):
    pts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0)]
    return path_chain(pts, theta)


class TestRemoveCycles:
    def test_pure_cycle_removed(self):
        T = canonicalize(square_cycle())
        assert remove_cycles(T).edges == ()

    def test_cycle_plus_path(self):
        path = path_chain([(-1.0, 0.5), (2.0, 0.5)], (1.0,))
        T = canonicalize(square_cycle() + path)
        out = remove_cycles(T)
        assert chains_close(out, canonicalize(path), tol=1e-12)

    def test_per_component_independence(self):
        # cycle only in component 2; component 1 carries a straight path
        cyc = square_cycle((0.0, 1.0))
        path = path_chain([(0.0, 0.0), (1.0, 0.0)], (1.0, 0.0))
        T = canonicalize(cyc + path)
        out = remove_cycles(T)
        expected = canonicalize(path_chain([(0.0, 0.0), (1.0, 0.0)], (1.0, 0.0)))
        assert chains_close(out, expected, tol=1e-12)

    def test_divergence_preserved_and_piece(self, rng):
        cost = sum_alpha(2, 0.7)
        for _ in range(25):
            T = canonicalize(random_chain(rng, edges=8, m=2, grid=2) + square_cycle((1.5, -0.5)))
            out = remove_cycles(T)
            assert chain0_close(divergence(out), divergence(T), tol=1e-9)
            assert is_piece(out, T, eps=1e-9)
            assert energy(out, cost) <= energy(T, cost) * (1 + 1e-12)

    def test_idempotent(self, rng):
        T = canonicalize(random_chain(rng, edges=8, grid=2) + square_cycle())
        once = remove_cycles(T)
        assert chains_close(remove_cycles(once), once, tol=1e-12)


class TestMultiplicityBound:
    def test_single_path_equality(self):
        T = canonicalize(path_chain([(0.0, 0.0), (1.0, 0.0), (2.0, 1.0)], (3.0,)))
        rep = check_multiplicity_bound(T)
        assert rep.ok and rep.worst_ratio == pytest.approx(1.0)

    def test_two_disjoint_paths(self):
        a = path_chain([(0.0, 0.0), (1.0, 0.0)], (1.0,))
        b = path_chain([(0.0, 2.0), (1.0, 2.0)], (5.0,))
        rep = check_multiplicity_bound(canonicalize(a + b))
        assert rep.ok

    def test_holds_after_cycle_removal(self, rng):
        # oracle: a sum of source-to-sink paths always satisfies the bound;
        # remove_cycles must restore it on arbitrary inputs
        for _ in range(25):
            T = remove_cycles(canonicalize(random_chain(rng, edges=10, m=2, grid=2)))
            assert check_multiplicity_bound(T).ok


class TestStraighten:
    def test_right_angle_collapses_to_chord(self):
        T = canonicalize(path_chain([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)], (1.0,)))
        out = straighten(T)
        assert len(out.edges) == 1
        assert mass(out) == pytest.approx(math.sqrt(2.0))
        cost = sum_alpha(1, 0.5)
        assert energy(out, cost) / energy(T, cost) == pytest.approx(math.sqrt(2.0) / 2.0)

    def test_straight_chain_unchanged(self):
        T = canonicalize(path_chain([(0.0, 0.0), (2.0, 2.0)], (1.0,)))
        assert chains_close(straighten(T), T, tol=1e-12)

    def test_unequal_theta_not_collapsed(self):
        X = Chain1(2, 1, (
            Edge((0.0, 0.0), (1.0, 0.0), (1.0,)),
            Edge((1.0, 0.0), (1.0, 1.0), (2.0,)),
        ))
        out = straighten(canonicalize(X))
        assert len(out.edges) == 2

    def test_boundary_preserved(self, rng):
        for _ in range(20):
            T = random_chain(rng, edges=8, m=2, grid=2)
            assert chain0_close(boundary(straighten(T)), boundary(T), tol=1e-9)


class TestRelocate:
    def test_three_star_reaches_fermat_point(self):
        # oracle: dense grid search over the branch position
        anchors = np.array([(0.0, 0.0), (4.0, 0.0), (1.0, 3.0)])
        cost = sum_alpha(1, 1.0)
        star = Chain1(2, 1, tuple(
            Edge(tuple(p), (1.5, 1.0), (w,)) for p, w in zip(anchors, (1.0, 1.0, -2.0))
        ))
        # multiplicities chosen so the center vertex is boundary-free would
        # need equal flow; use unit flows into the center from all anchors
        star = Chain1(2, 1, (
            Edge((0.0, 0.0), (1.5, 1.0), (1.0,)),
            Edge((4.0, 0.0), (1.5, 1.0), (1.0,)),
            Edge((1.0, 3.0), (1.5, 1.0), (1.0,)),
        ))
        # center has net weight, so free it by making flows pass through:
        star = Chain1(2, 1, (
            Edge((0.0, 0.0), (1.5, 1.0), (2.0,)),
            Edge((1.5, 1.0), (4.0, 0.0), (1.0,)),
            Edge((1.5, 1.0), (1.0, 3.0), (1.0,)),
        ))
        T = relocate_branch_points(canonicalize(star), cost)
        cost_fn = lambda v: (
            2.0 * np.linalg.norm(v - anchors[0])
            + np.linalg.norm(v - anchors[1])
            + np.linalg.norm(v - anchors[2])
        )
        xs, ys = np.meshgrid(np.linspace(0, 4, 401), np.linspace(0, 3, 301))
        grid_pts = np.stack([xs.ravel(), ys.ravel()], axis=1)
        oracle = min(cost_fn(p) for p in grid_pts)
        assert energy(T, cost) == pytest.approx(oracle, abs=1e-3)

    def test_collinear_neighbors_degenerate_to_chord(self):
        T = canonicalize(path_chain([(0.0, 0.0), (0.7, 0.31), (2.0, 0.0)], (1.0,)))
        out = relocate_branch_points(T, sum_alpha(1, 1.0))
        assert energy(out, sum_alpha(1, 1.0)) == pytest.approx(2.0, abs=1e-6)

    def test_energy_non_increasing(self, rng):
        cost = sum_alpha(2, 0.8)
        for _ in range(15):
            T = remove_cycles(canonicalize(random_chain(rng, edges=8, m=2, grid=2)))
            out = relocate_branch_points(T, cost)
            assert energy(out, cost) <= energy(T, cost) * (1 + 1e-9)
            assert chain0_close(boundary(out), boundary(T), tol=1e-6)


def _weiszfeld_reference(v0, anchors, weights, iters, tol, diam):
    """The scalar-kernel Weiszfeld loop that _weiszfeld must match bit for bit."""
    v = v0.copy()
    for _ in range(iters):
        d = np.linalg.norm(anchors - v, axis=1)
        hit = np.nonzero(d < 1e-12 * max(diam, 1.0))[0]
        if hit.size:
            k = int(hit[0])
            away = np.nonzero(d >= 1e-12 * max(diam, 1.0))[0]
            if away.size == 0:
                return anchors[k]
            dirs = anchors[away] - v
            nrm = np.linalg.norm(dirs, axis=1)
            R = np.sum(weights[away, None] * dirs / nrm[:, None], axis=0)
            slack = float(np.sum(weights[hit]))
            if np.linalg.norm(R) <= slack * (1 + 1e-12):
                return anchors[k]
            step = 1e-7 * max(diam, 1.0)
            v = v + 0.5 * step * R / np.linalg.norm(R)
            continue
        wd = weights / d
        v_new = (wd @ anchors) / np.sum(wd)
        if np.linalg.norm(v_new - v) <= tol * max(diam, 1.0):
            return v_new
        v = v_new
    return v


def _relocate_reference(T, cost, iters=200, tol=1e-12):
    """Relocation sweep with a full O(V*E) incidence scan per free vertex and
    one scalar cost evaluation per incident edge."""
    if not T.canonical:
        T = canonicalize(T)
    if not T.edges:
        return T
    diam = _chain_diam(T)
    edges = [(e.a, e.b, e.theta) for e in T.edges]
    for v in sorted(_free_vertices(T)):
        inc = [(i, 0) for i, (a, _, _) in enumerate(edges) if a == v]
        inc += [(i, 1) for i, (_, b, _) in enumerate(edges) if b == v]
        if not inc:
            continue
        anchors = np.array([edges[i][1 - side] for i, side in inc])
        weights = np.array([evaluate(cost, edges[i][2]) for i, side in inc])
        old = np.array(v)
        f_old = float(np.sum(weights * np.linalg.norm(anchors - old, axis=1)))
        new = _weiszfeld_reference(old, anchors, weights, iters, tol, diam)
        d = np.linalg.norm(anchors - new, axis=1)
        k = int(np.argmin(d))
        if d[k] < 1e-9 * max(diam, 1.0):
            new = anchors[k]
        f_new = float(np.sum(weights * np.linalg.norm(anchors - new, axis=1)))
        if f_new > f_old * (1 + 1e-12):
            continue
        vt = tuple(float(c) for c in new)
        for i, side in inc:
            a, b, th = edges[i]
            edges[i] = (vt, b, th) if side == 0 else (a, vt, th)
    kept = [Edge(a, b, th) for a, b, th in edges if a != b]
    return canonicalize(Chain1(T.n, T.m, tuple(kept)))


def _edge_tuples(T):
    return [(e.a, e.b, e.theta) for e in T.edges]


def _random_tree(rng, n, m, leaves):
    """Canonical tree whose interior vertices are free branch points placed
    at random: each merge of two subtrees adds a vertex carrying their
    summed flow, and the last two subtrees are joined directly."""
    nodes = [(tuple(rng.uniform(0, 1, n)), tuple(rng.normal(size=m))) for _ in range(leaves)]
    edges = []
    while len(nodes) > 2:
        (p, s), (q, t) = nodes.pop(int(rng.integers(len(nodes)))), nodes.pop(int(rng.integers(len(nodes))))
        v = tuple(rng.uniform(0, 1, n))
        edges += [Edge(p, v, s), Edge(q, v, t)]
        nodes.append((v, tuple(x + y for x, y in zip(s, t))))
    (p, s), (q, _) = nodes
    edges.append(Edge(p, q, s))
    return canonicalize(Chain1(n, m, tuple(edges)))


class TestRelocateMatchesReference:
    @pytest.mark.parametrize("family", sorted(COST_FAMILIES))
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 3])
    def test_random_chains_bit_identical(self, n, m, family):
        cost = COST_FAMILIES[family](m)
        rng = np.random.default_rng([n, m, len(family)])
        moved = 0
        for k in range(12):
            T = random_chain(rng, n=n, m=m, edges=8, grid=2) if k % 3 == 0 else _random_tree(rng, n, m, 6)
            out = relocate_branch_points(T, cost)
            assert _edge_tuples(out) == _edge_tuples(_relocate_reference(T, cost))
            moved += out.edges != T.edges
        assert moved > 0

    def test_vertex_lands_on_later_free_neighbour(self):
        # u is sorted before w and is pulled exactly onto w; the edge (u, w)
        # degenerates and w must then see it on both sides, together with
        # the edges u brought along.  Only with both coincident anchors does
        # the slack outweigh the pull of the two edges to the right.
        u, w = (0.0, 0.5), (1.0, 0.5)
        T = canonicalize(Chain1(2, 1, (
            Edge((1.0, -1.5), u, (1.0,)),
            Edge((1.0, 2.5), u, (1.0,)),
            Edge(u, w, (2.0,)),
            Edge(w, (3.0, 0.4), (1.0,)),
            Edge(w, (3.0, 0.6), (1.0,)),
        )))
        cost = sum_alpha(1, 0.5)
        out = relocate_branch_points(T, cost)
        assert _edge_tuples(out) == _edge_tuples(_relocate_reference(T, cost))
        assert u not in out.vertices() and w in out.vertices() and len(out.edges) == 4

    def test_coincident_anchors_take_the_damped_step(self):
        # as above, but w also carries a heavy through-flow pulling it up:
        # the two coincident anchors of the collapsed edge cannot hold w,
        # so the hit branch moves it off them
        u, w = (0.0, 0.5), (1.0, 0.5)
        T = canonicalize(Chain1(2, 1, (
            Edge((1.0, -1.5), u, (1.0,)),
            Edge((1.0, 2.5), u, (1.0,)),
            Edge(u, w, (2.0,)),
            Edge(w, (2.0, 0.0), (1.0,)),
            Edge(w, (2.0, 1.0), (1.0,)),
            Edge((0.5, 10.0), w, (5.0,)),
            Edge(w, (1.5, 10.0), (5.0,)),
        )))
        cost = sum_alpha(1, 1.0)
        out = relocate_branch_points(T, cost)
        assert _edge_tuples(out) == _edge_tuples(_relocate_reference(T, cost))
        assert u not in out.vertices() and w not in out.vertices()

    def test_collinear_degree_two_chord(self):
        T = canonicalize(path_chain([(0.0, 0.0), (0.7, 0.31), (2.0, 0.0)], (1.0,)))
        cost = sum_alpha(1, 1.0)
        out = relocate_branch_points(T, cost)
        assert _edge_tuples(out) == _edge_tuples(_relocate_reference(T, cost))


class TestLocalSearch:
    def test_single_pair_straight_segment(self):
        mm = Chain0(2, 1, (Atom((0.0, 0.0), (3.0,)),))
        mp = Chain0(2, 1, (Atom((3.0, 4.0), (3.0,)),))
        cost = sum_alpha(1, 0.5)
        T, rep = local_search(mm, mp, cost)
        assert rep.energy == pytest.approx(math.sqrt(3.0) * 5.0, rel=1e-9)
        assert len(T.edges) == 1

    def test_shared_corridor_beats_disjoint(self):
        mm = Chain0(2, 2, (Atom((0.0, 0.2), (1.0, 0.0)), Atom((0.0, -0.2), (0.0, 1.0))))
        mp = Chain0(2, 2, (Atom((4.0, 0.2), (1.0, 0.0)), Atom((4.0, -0.2), (0.0, 1.0))))
        cost = sum_alpha(2, 0.5)
        disjoint = canonicalize(Chain1(2, 2, (
            Edge((0.0, 0.2), (4.0, 0.2), (1.0, 0.0)),
            Edge((0.0, -0.2), (4.0, -0.2), (0.0, 1.0)),
        )))
        merged = canonicalize(Chain1(2, 2, (
            Edge((0.0, 0.2), (0.3, 0.0), (1.0, 0.0)),
            Edge((0.0, -0.2), (0.3, 0.0), (0.0, 1.0)),
            Edge((0.3, 0.0), (3.7, 0.0), (1.0, 1.0)),
            Edge((3.7, 0.0), (4.0, 0.2), (1.0, 0.0)),
            Edge((3.7, 0.0), (4.0, -0.2), (0.0, 1.0)),
        )))
        assert energy(merged, cost) < energy(disjoint, cost)
        T, rep = local_search(mm, mp, cost)
        assert rep.energy <= energy(merged, cost) * (1 + 1e-6)

    def test_incompatible_rejected(self):
        mm = Chain0(2, 1, (Atom((0.0, 0.0), (1.0,)),))
        mp = Chain0(2, 1, (Atom((1.0, 0.0), (2.0,)),))
        with pytest.raises(ValueError):
            local_search(mm, mp, sum_alpha(1, 0.5))

    def test_energy_trace_verified_report(self, rng):
        mm, mp = compatible_pair(rng, atoms=5, m=2)
        T, rep = local_search(mm, mp, sum_alpha(2, 0.7))
        assert rep.ok
        assert rep.boundary_residual <= rep.eps_bnd
        assert all(rep.acyclic_per_component)
        assert rep.mass_bound_ok

    @pytest.mark.parametrize("init", ["cone", "cascade"])
    def test_empty_measures_give_empty_chain(self, init):
        empty = Chain0(2, 2)
        T, rep = local_search(empty, empty, sum_alpha(2, 0.7), OptimizerConfig(init=init))
        assert T.edges == () and T.canonical
        assert rep.ok and rep.energy == 0.0

    def test_cascade_init(self, rng):
        mm, mp = compatible_pair(rng, atoms=4, m=1, span=0.4)
        cfg = OptimizerConfig(init="cascade", max_iters=5)
        T, rep = local_search(mm, mp, sum_alpha(1, 0.8), cfg)
        assert rep.ok


class TestVerifySolution:
    def test_injected_cycle_fails_acyclicity(self):
        mm = Chain0(2, 1, (Atom((0.0, 0.5), (1.0,)),))
        mp = Chain0(2, 1, (Atom((2.0, 0.5), (1.0,)),))
        good = canonicalize(path_chain([(0.0, 0.5), (2.0, 0.5)], (1.0,)))
        cyc = path_chain([(3.0, 0.0), (4.0, 0.0), (4.0, 1.0), (3.0, 0.0)], (1.0,))
        bad = canonicalize(good + cyc)
        cost = sum_alpha(1, 0.5)
        assert verify_solution(good, mm, mp, cost).ok
        rep = verify_solution(bad, mm, mp, cost)
        assert not all(rep.acyclic_per_component) and not rep.ok

    def test_wrong_boundary_fails_residual(self):
        mm = Chain0(2, 1, (Atom((0.0, 0.0), (1.0,)),))
        mp = Chain0(2, 1, (Atom((1.0, 0.0), (1.0,)),))
        wrong = canonicalize(path_chain([(0.0, 0.0), (0.5, 0.8)], (1.0,)))
        rep = verify_solution(wrong, mm, mp, sum_alpha(1, 0.5))
        assert rep.boundary_residual > rep.eps_bnd and not rep.ok


class TestConfig:
    def test_bad_rel_tol_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig(rel_tol=0.0)

    def test_bad_init_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig(init="warm")
