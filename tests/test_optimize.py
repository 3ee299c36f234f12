import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchnet import optimize
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
    _significant,
)
from branchnet.construct import bounding_cube, cascade, shifted_grid
from branchnet.costs import BetaEnvelope, p_norm_alpha, sum_alpha
from branchnet.energy import energy
from branchnet.optimize import (
    OptimizerConfig,
    _apply_merge,
    _fermat_point,
    _merge_candidates,
    check_multiplicity_bound,
    local_search,
    relocate_branch_points,
    remove_cycles,
    straighten,
    verify_solution,
)
from conftest import COST_FAMILIES, bits, compatible_pair, path_chain, random_chain, signed_zero_chain
from test_chains import boundary_reference, length_scale_reference
from test_costs import evaluate_reference


# ---------------------------------------------------------------------------
# references: the graphs keyed by endpoint tuples that vertex ids replaced

def endpoint_tuples(T):
    """(a, b) endpoint tuples of every edge, in order."""
    return list(zip(map(tuple, T.A.tolist()), map(tuple, T.B.tolist())))


def arcs_reference(ends, flows, tol):
    """Directed arcs (u, v, edge_index, flow>0) from edge endpoints (a, b)
    and one commodity's multiplicities, reversing edges with negative flow."""
    arcs = []
    for i, ((a, b), f) in enumerate(zip(ends, flows)):
        if f > tol:
            arcs.append((a, b, i, f))
        elif f < -tol:
            arcs.append((b, a, i, -f))
    return arcs


def find_directed_cycle_reference(arcs):
    """One directed cycle as a list of arc indices, or None (iterative DFS)."""
    adj: dict = {}
    for k, (u, v, _, _) in enumerate(arcs):
        adj.setdefault(u, []).append((v, k))
        adj.setdefault(v, [])
    color = {u: 0 for u in adj}  # 0 white, 1 on stack, 2 done
    parent_arc: dict = {}
    for start in adj:
        if color[start] != 0:
            continue
        stack = [(start, iter(adj[start]))]
        color[start] = 1
        while stack:
            u, it = stack[-1]
            advanced = False
            for v, k in it:
                if color[v] == 0:
                    color[v] = 1
                    parent_arc[v] = k
                    stack.append((v, iter(adj[v])))
                    advanced = True
                    break
                if color[v] == 1:
                    cycle = [k]
                    w = u
                    while w != v:
                        ka = parent_arc[w]
                        cycle.append(ka)
                        w = arcs[ka][0]
                    cycle.reverse()
                    return cycle
            if not advanced:
                color[u] = 2
                stack.pop()
    return None


def _flow_tol_reference(theta):
    return 1e-14 * float(np.max(np.abs(theta), initial=0.0))


def cancel_cycles_reference(T):
    """(T canonicalized, its multiplicities after cycle canceling on arcs
    keyed by endpoint tuples, searching every commodity with the DFS until it
    finds no cycle)."""
    if not T.canonical:
        T = canonicalize(T)
    theta = np.array(T.Theta)
    tol = _flow_tol_reference(theta)
    ends = endpoint_tuples(T)
    for j in range(T.m):
        while True:
            arcs = arcs_reference(ends, theta[:, j].tolist(), tol)
            cycle = find_directed_cycle_reference(arcs)
            if cycle is None:
                break
            c = min(arcs[k][3] for k in cycle)
            for k in cycle:
                _, _, ei, _ = arcs[k]
                s = 1.0 if theta[ei, j] > 0 else -1.0
                theta[ei, j] -= s * c
                if abs(theta[ei, j]) <= tol:
                    theta[ei, j] = 0.0
    return T, theta


def remove_cycles_reference(T):
    """``cancel_cycles_reference``, keeping the rows longer than 1e-12 times
    the longest row of T, as canonical form keeps them."""
    T, theta = cancel_cycles_reference(T)
    longest = max((np.linalg.norm(th) for th in T.Theta), default=0.0)
    keep = np.array([np.linalg.norm(th) > 1e-12 * longest for th in theta], dtype=bool).reshape(-1)
    return Chain1.from_arrays(T.n, T.m, T.A[keep], T.B[keep], theta[keep], canonical=True)


def straighten_reference(T):
    """Straightening on an incidence map keyed by endpoint tuples, visiting
    vertices in order of first appearance until nothing changes."""
    if not T.canonical:
        T = canonicalize(T)
    edges = {i: (a, b, th) for i, ((a, b), th) in enumerate(zip(endpoint_tuples(T), T.Theta))}
    next_id = len(edges)
    incident: dict = {}
    for i, (a, b, _) in edges.items():
        incident.setdefault(a, set()).add(i)
        incident.setdefault(b, set()).add(i)
    changed = True
    while changed:
        changed = False
        for v, ids in list(incident.items()):
            if len(ids) != 2:
                continue
            i1, i2 = sorted(ids)
            (a1, b1, th1), (a2, b2, th2) = edges[i1], edges[i2]
            thru1 = th1 * (1.0 if b1 == v else -1.0)
            thru2 = th2 * (1.0 if a2 == v else -1.0)
            if np.max(np.abs(thru1 - thru2)) > 1e-12 * np.max(np.abs(thru1)):  # relative, unclamped
                continue
            x = a1 if b1 == v else b1
            y = b2 if a2 == v else a2
            if x == y:
                continue
            for i in (i1, i2):
                a, b, _ = edges.pop(i)
                incident[a].discard(i)
                incident[b].discard(i)
            edges[next_id] = (x, y, thru1)
            incident.setdefault(x, set()).add(next_id)
            incident.setdefault(y, set()).add(next_id)
            next_id += 1
            changed = True
    kept = [edges[i] for i in sorted(edges)]
    return canonicalize(Chain1.from_arrays(T.n, T.m, [a for a, _, _ in kept], [b for _, b, _ in kept],
                                           [th for _, _, th in kept]))


def free_vertices_reference(T):
    """Endpoint tuples that carry no boundary atom."""
    return {p for e in endpoint_tuples(T) for p in e} - set(map(tuple, boundary_reference(T).P.tolist()))


def multiplicity_bound_reference(T):
    """The bound by loops over components, then edges: |theta_j(e)| against
    half the boundary mass of component j, with slack 1e-9 times the least
    power of two at or above the largest |theta|."""
    tol = 1e-9 * length_scale_reference([(0.0,), (float(np.abs(T.Theta).max(initial=0.0)),)])
    violations, worst = [], 0.0
    for j in range(T.m):
        lift = Chain1.from_arrays(T.n, T.m, T.A, T.B, T.Theta * (np.arange(T.m) == j))
        half = 0.5 * sum(float(np.linalg.norm(w)) for w in boundary_reference(lift).W)
        for i, th in enumerate(T.Theta[:, j].tolist()):
            if abs(th) > tol:
                worst = max(worst, abs(th) / half if half > 0 else math.inf)
                if abs(th) > half + tol:
                    violations.append((i, j))
    return optimize.MultiplicityBoundReport(not violations, worst, tuple(violations))


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

    def test_matches_tuple_keyed_reference_bit_for_bit(self, rng):
        cancelled = 0
        for k in range(80):
            m = 1 + k % 3
            if k % 2:
                T = signed_zero_chain(rng, n=2 + k % 4 // 2, m=m, edges=12)
            else:
                T = random_chain(rng, edges=8, m=m, grid=2) + square_cycle(tuple(rng.normal(size=m)))
            for X in (T, canonicalize(T)):
                out = remove_cycles(X)
                assert bits(out) == bits(remove_cycles_reference(X))
            cancelled += not np.array_equal(out.Theta, canonicalize(T).Theta)
        assert cancelled > 20

    def test_keeps_the_rows_canonical_form_keeps(self, rng):
        """A planted cycle whose flows differ by 1e-14 to 1e-12 relative
        leaves rows that the flow tolerance counts as flows but canonical form
        drops: ``remove_cycles`` drops them too, keeps exactly the rows
        ``_significant`` keeps against T's rows, and returns a fixed point of
        ``canonicalize``.  The triangle beside a heavier edge is the measured
        case, where a -5.0e-13 row was kept."""
        square = [(5.0, 5.0), (6.0, 5.0), (6.0, 6.0), (5.0, 6.0)]
        tiny = 0
        for k in range(40):
            m = 1 + k % 3
            chain = random_chain(rng, edges=6, m=m, grid=2)
            theta = np.zeros((4, m))
            scale = float(np.abs(chain.Theta).max()) * rng.uniform(0.25, 1.0)
            theta[:, k % m] = scale * (1 + np.exp(rng.uniform(math.log(1e-14), math.log(1e-12), 4)))
            theta *= rng.choice([-1.0, 1.0])
            cycle = Chain1.from_arrays(2, m, square, np.roll(square, -1, axis=0), theta)
            T = canonicalize(chain + cycle)
            out = remove_cycles(T)
            _, cancelled = cancel_cycles_reference(T)
            keep = _significant(cancelled, T.Theta)
            assert bits(out) == bits(Chain1.from_arrays(2, m, T.A[keep], T.B[keep], cancelled[keep]))
            assert bits(out) == bits(remove_cycles_reference(T)) == bits(canonicalize(out)) and out.canonical
            tiny += int((~keep & (np.abs(cancelled) > _flow_tol_reference(T.Theta)).any(axis=1)).sum())
        assert tiny > 40

        triangle = Chain1.from_arrays(2, 1, [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (2.0, 0.0)],
                                      [(1.0, 0.0), (0.0, 1.0), (0.0, 0.0), (3.0, 0.0)],
                                      [[0.5], [0.5], [0.5 + 5e-13], [1.0]])
        out = remove_cycles(canonicalize(triangle))
        assert out.Theta.tolist() == [[1.0]] and bits(canonicalize(out)) == bits(out)

    def test_loop_edge_on_canonical_flagged_chain(self):
        # a chain flagged canonical may hold an edge with equal ends (here once
        # exactly, once as 0.0 against -0.0); such a loop is a cycle
        for loop_end in ((1.0, 0.0), (-0.0, 0.0)):
            A = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
            B = np.array([[1.0, 0.0], [2.0, 0.0], loop_end])
            A[2] = B[2] if loop_end[0] else A[2]
            T = Chain1.from_arrays(2, 2, A, B, np.array([[1.0, 0.5], [1.0, 0.5], [0.0, 2.0]]), canonical=True)
            tol = _flow_tol_reference(T.Theta)
            assert [find_directed_cycle_reference(arcs_reference(
                endpoint_tuples(T), T.Theta[:, j].tolist(), tol)) for j in range(2)] == [None, [2]]
            out = remove_cycles(T)
            assert bits(out) == bits(remove_cycles_reference(T))
            assert len(out.A) == 2


class TestMovesThatChangeNothing:
    """A move that changes nothing returns its canonical input itself, so
    the search takes the energy it already has.  The trees are drawn in
    3-space, where no two edges cross, so every branch point has degree 3
    and no directed cycle forms."""

    def test_straighten_returns_its_input(self, rng):
        kinked = Chain1(2, 1, (Edge((0.0, 0.0), (1.0, 0.0), (1.0,)), Edge((1.0, 0.0), (1.0, 1.0), (2.0,))))
        for T in (canonicalize(kinked), *(_random_tree(rng, 3, 1 + k % 3, 6) for k in range(6))):
            assert straighten(T) is T

    def test_remove_cycles_returns_its_input(self, rng):
        for T in (canonicalize(path_chain([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)], (1.0, -2.0))),
                  *(_random_tree(rng, 3, 1 + k % 3, 6) for k in range(6))):
            T.ij  # a cached graph stays with the chain it belongs to
            out = remove_cycles(T)
            assert out is T and "_graph" in out.__dict__
        cyclic = canonicalize(path_chain([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)], (1.0,)) + square_cycle())
        assert remove_cycles(cyclic) is not cyclic

    def test_relocate_returns_its_input_without_a_free_vertex(self):
        cost = sum_alpha(1, 0.75)
        segment = canonicalize(path_chain([(0.0, 0.0), (1.0, 1.0)], (1.0,)))
        # the hub takes in 2 and sends out 1.5: it carries an atom, so nothing moves
        star = canonicalize(Chain1(2, 1, (Edge((0.0, 0.0), (1.0, 0.0), (2.0,)), Edge((1.0, 0.0), (2.0, 1.0), (1.0,)),
                                          Edge((1.0, 0.0), (2.0, -1.0), (0.5,)))))
        for T in (segment, star):
            assert relocate_branch_points(T, cost) is T

    def test_straighten_canonicalizes_only_after_a_collapse(self, monkeypatch):
        calls = []
        monkeypatch.setattr(optimize, "canonicalize", lambda T: calls.append(len(T.A)) or canonicalize(T))
        kinked = Chain1(2, 1, (Edge((0.0, 0.0), (1.0, 0.0), (1.0,)), Edge((1.0, 0.0), (1.0, 1.0), (2.0,))))
        straighten(canonicalize(kinked))  # unequal flows: nothing collapses
        assert calls == []
        straighten(kinked)  # a chain not flagged canonical is canonicalized first, once
        assert calls == [2]
        calls.clear()
        bent = canonicalize(path_chain([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)], (1.0,)))
        assert len(straighten(bent).A) == 1 and calls == [1]


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

    def test_matches_loop_reference(self, rng):
        # component 1 carries only the cycle: half its boundary mass is 0, so
        # its ratio is inf; the cycle also breaks component 0's bound, so the
        # violations come from both components, component by component
        T = canonicalize(square_cycle((1.5, 2.0)) + path_chain([(3.0, 0.0), (4.0, 0.0)], (1.0, 0.0)))
        rep = check_multiplicity_bound(T)
        assert rep == multiplicity_bound_reference(T)
        assert rep.worst_ratio == math.inf and [j for _, j in rep.violations] == [0] * 4 + [1] * 4
        assert all(type(x) is int for pair in rep.violations for x in pair)
        for k in range(30):
            T = canonicalize(random_chain(rng, edges=10, m=1 + k % 3, grid=2))
            for X in (T, remove_cycles(T)):
                assert check_multiplicity_bound(X) == multiplicity_bound_reference(X)

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

    def test_two_edge_loop_not_collapsed(self):
        # straightening the triangle's first corner leaves a chord and an edge
        # between the same two vertices; collapsing that loop would make a
        # degenerate edge, so it is kept and cancels on canonicalization
        T = canonicalize(path_chain([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0)], (1.0,)))
        out = straighten(T)
        assert out.edges == () and bits(out) == bits(straighten_reference(T))
        # p -> q -> p flagged canonical keeps both edges; the bent path beside
        # it collapses, so both sides canonicalize the rest
        A = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0], [6.0, 0.0]])
        B = np.array([[1.0, 0.0], [0.0, 0.0], [6.0, 0.0], [6.0, 1.0]])
        T = Chain1.from_arrays(2, 1, A, B, np.ones((4, 1)), canonical=True)
        out = straighten(T)
        assert bits(out) == bits(straighten_reference(T))
        assert bits(out) == bits(canonicalize(path_chain([(5.0, 0.0), (6.0, 1.0)], (1.0,))))

    def test_path_through_three_degree_two_vertices(self):
        # each collapse appends a chord that the next vertex collapses again
        T = canonicalize(path_chain([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0), (4.0, 0.0)], (1.0, -2.0)))
        out = straighten(T)
        assert len(T.A) == 4 and len(out.A) == 1 and bits(out) == bits(straighten_reference(T))

    def test_a_later_pass_collapses_what_an_earlier_one_could_not(self):
        # v is visited first and its flows differ by 1.5e-12 relatively; u
        # then collapses, and its chord carries the flow of u's first edge,
        # within 1e-12 of v's outflow, so v collapses in the second pass
        s, u, v, t = (0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (3.0, 1.0)
        T = Chain1.from_arrays(2, 1, [v, s, u], [t, u, v], [[1.0 + 1.5e-12], [1.0 + 0.9e-12], [1.0]], canonical=True)
        out = straighten(T)
        assert len(out.A) == 1 and bits(out) == bits(straighten_reference(T))

    def test_loop_edge_counts_once_in_a_degree(self):
        # a loop edge (v, v) flagged canonical beside one edge (v, w): the
        # incidence sets give v degree 2 (a count of its row ends gives 3),
        # and the flows agree, so v collapses
        A = np.array([[0.0, 0.0], [0.0, 0.0]])
        B = np.array([[1.0, 0.0], [0.0, 0.0]])
        T = Chain1.from_arrays(2, 1, A, B, np.array([[1.0], [-1.0]]), canonical=True)
        out = straighten(T)
        assert bits(out) == bits(straighten_reference(T)) and len(out.A) == 1

    def test_matches_tuple_keyed_reference_bit_for_bit(self, rng):
        collapsed = 0
        for k in range(80):
            m = 1 + k % 3
            if k % 2:
                T = signed_zero_chain(rng, n=2 + k % 4 // 2, m=m, edges=12)
            else:
                theta = tuple(rng.normal(size=m))
                T = random_chain(rng, edges=6, m=m, grid=2) + square_cycle(theta) + path_chain(
                    [(5.0, 0.0), (6.0, 1.0), (7.0, 0.0), (8.0, 1.0)], theta)
            for X in (T, canonicalize(T)):
                out = straighten(X)
                assert bits(out) == bits(straighten_reference(X))
            collapsed += len(out.A) < len(canonicalize(T).A)
        assert collapsed > 20


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


def _weiszfeld_reference(v0, anchors, weights, iters, tol, scale):
    """A Weiszfeld loop capped at ``iters`` steps, damped at anchor
    coincidences: the point it returns is the bar every exact point must
    meet.  Tolerances are relative to the length scale ``scale``."""
    v = v0.copy()
    for _ in range(iters):
        d = np.linalg.norm(anchors - v, axis=1)
        hit = np.nonzero(d < 1e-12 * scale)[0]
        if hit.size:
            k = int(hit[0])
            away = np.nonzero(d >= 1e-12 * scale)[0]
            if away.size == 0:
                return anchors[k]
            dirs = anchors[away] - v
            nrm = np.linalg.norm(dirs, axis=1)
            R = np.sum(weights[away, None] * dirs / nrm[:, None], axis=0)
            slack = float(np.sum(weights[hit]))
            if np.linalg.norm(R) <= slack * (1 + 1e-12):
                return anchors[k]
            step = 1e-7 * scale
            v = v + 0.5 * step * R / np.linalg.norm(R)
            continue
        wd = weights / d
        v_new = (wd @ anchors) / np.sum(wd)
        if np.linalg.norm(v_new - v) <= tol * scale:
            return v_new
        v = v_new
    return v


def _objective(v, anchors, weights):
    return float(np.sum(weights * np.linalg.norm(anchors - v, axis=1)))


def _checked_fermat_point(v0, anchors, weights, scale):
    """``_fermat_point``, asserting on the way that its objective is at most
    the Weiszfeld reference's on the same input."""
    new = _fermat_point(v0, anchors, weights, scale)
    ref = _weiszfeld_reference(v0, anchors, weights, 200, 1e-12, scale)
    assert _objective(new, anchors, weights) <= _objective(ref, anchors, weights) * (1 + 1e-12)
    return new


def _relocate_reference(T, cost, solve=_checked_fermat_point):
    """Relocation sweep with a full O(V*E) incidence scan per free vertex and
    one scalar cost evaluation per incident edge, placing each vertex with
    ``solve``.  An edge with both ends on the vertex (one that an earlier
    vertex brought along when it landed there) moves with it and is no
    anchor."""
    if not T.canonical:
        T = canonicalize(T)
    if not T.edges:
        return T
    L = length_scale_reference(T.A.tolist() + T.B.tolist())
    edges = [(e.a, e.b, e.theta) for e in T.edges]
    for v in sorted(free_vertices_reference(T)):
        inc = [(i, 0) for i, (a, _, _) in enumerate(edges) if a == v]
        inc += [(i, 1) for i, (_, b, _) in enumerate(edges) if b == v]
        pulls = [(i, side) for i, side in inc if edges[i][0] != edges[i][1]]
        if not pulls:
            continue
        anchors = np.array([edges[i][1 - side] for i, side in pulls])
        weights = np.array([evaluate_reference(cost, edges[i][2]) for i, side in pulls])
        old = np.array(v)
        f_old = float(np.sum(weights * np.linalg.norm(anchors - old, axis=1)))
        new = solve(old, anchors, weights, L)
        d = np.linalg.norm(anchors - new, axis=1)
        k = int(np.argmin(d))
        if d[k] < 1e-9 * L:
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
    """Each sweep equals the tuple-keyed reference sweep bit for bit, and the
    reference checks every point it places against the Weiszfeld loop on
    the same input.  Whole sweeps are not compared with a Weiszfeld sweep:
    the Gauss-Seidel order makes a sweep's energy depend on where each
    earlier vertex went, so a vertex placed better can leave a later one
    worse off."""

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
            ref = _relocate_reference(T, cost)
            assert _edge_tuples(out) == _edge_tuples(ref) and bits(out) == bits(ref)
            assert energy(out, cost) <= energy(T, cost) * (1 + 1e-12)
            moved += out.edges != T.edges
        assert moved > 0

    def test_vertex_lands_on_later_free_neighbour(self):
        # u is sorted before w and is pulled exactly onto w; the edge (u, w)
        # degenerates and w must then see it on both sides, as an edge that
        # moves with w, together with the edges u brought along.  Those four
        # pull w to their unit-weight geometric median (x, 0.5).
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
        ref = _relocate_reference(T, cost)
        assert _edge_tuples(out) == _edge_tuples(ref) and bits(out) == bits(ref)
        assert u not in map(tuple, out.V.tolist()) and w not in map(tuple, out.V.tolist()) and len(out.edges) == 4
        hub = out.V[np.argmax(np.bincount(out.ij.ravel()))]
        ends = np.array([(1.0, -1.5), (1.0, 2.5), (3.0, 0.4), (3.0, 0.6)])
        pulls = (ends - hub) / np.linalg.norm(ends - hub, axis=1)[:, None]
        assert abs(hub[1] - 0.5) <= 1e-12 and np.linalg.norm(pulls.sum(axis=0)) <= 1e-12

    def test_vertices_land_on_a_fixed_vertex_one_after_another(self):
        # v is pulled onto the sink f, which no sweep visits; w, sorted after
        # v, then feels the edge (v, w) pull from f beside its own edge to f,
        # and lands there too
        v, w, f = (0.8, 0.1), (0.9, -0.1), (1.0, 0.0)
        T = canonicalize(Chain1(2, 1, (
            Edge((0.5, 1.0), v, (5.0,)),
            Edge((0.5, -1.0), v, (5.0,)),
            Edge(v, f, (9.0,)),
            Edge(v, w, (1.0,)),
            Edge((0.6, -1.0), w, (1.0,)),
            Edge(w, f, (2.0,)),
        )))
        cost = sum_alpha(1, 0.5)
        out = relocate_branch_points(T, cost)
        ref = _relocate_reference(T, cost)
        assert _edge_tuples(out) == _edge_tuples(ref) and bits(out) == bits(ref)
        assert [e.b for e in out.edges] == [f] * 3

    def test_coincident_anchors_take_the_damped_step(self):
        # as above, but w also carries a heavy through-flow pulling it up,
        # and a crossing vertex lands on w as well: no anchor holds w, so
        # it starts next to its best anchor and moves off it along its pull
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
        ref = _relocate_reference(T, cost)
        assert _edge_tuples(out) == _edge_tuples(ref) and bits(out) == bits(ref)
        assert u not in map(tuple, out.V.tolist()) and w not in map(tuple, out.V.tolist())

    def test_collinear_degree_two_chord(self):
        T = canonicalize(path_chain([(0.0, 0.0), (0.7, 0.31), (2.0, 0.0)], (1.0,)))
        cost = sum_alpha(1, 1.0)
        out = relocate_branch_points(T, cost)
        ref = _relocate_reference(T, cost)
        assert _edge_tuples(out) == _edge_tuples(ref) and bits(out) == bits(ref)
        assert bits(out) == bits(canonicalize(path_chain([(0.0, 0.0), (2.0, 0.0)], (1.0,))))

    @pytest.mark.parametrize("family", sorted(COST_FAMILIES))
    def test_signed_zero_chains_bit_identical(self, family):
        rng = np.random.default_rng(len(family))
        moved = 0
        for k in range(16):
            m = 1 + k % 3
            T = remove_cycles(signed_zero_chain(rng, n=2 + k % 2, m=m, edges=10))
            out = relocate_branch_points(T, COST_FAMILIES[family](m))
            assert bits(out) == bits(_relocate_reference(T, COST_FAMILIES[family](m)))
            moved += bits(out) != bits(T)
        assert moved > 0


def kuhn_ratios(anchors, weights, scale):
    """|R_k| / slack_k at each anchor a_k, by loops: R_k sums w_i times the
    unit vector from a_k to every anchor farther than 1e-12 ``scale``, and
    slack_k sums the weights of the others.  a_k is a minimizer iff <= 1."""
    ratios = []
    for a in anchors:
        R, slack = np.zeros(len(a)), 0.0
        for b, w in zip(anchors, weights):
            d = math.dist(a, b)
            if d < 1e-12 * scale:
                slack += w
            else:
                R += w * (b - a) / d
        ratios.append(float(np.linalg.norm(R)) / slack)
    return ratios


@st.composite
def fermat_inputs(draw):
    """(v0, anchors, weights, scale): n in {2, 3, 4}, 2-8 anchors, generic,
    near-collinear (offsets 1e-15 to 1e-5 off a line), with exact copies, or
    with one weight from 0.3 to 3 times the sum of the others; the start is
    an anchor or a point of the box."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, k = draw(st.sampled_from([2, 3, 4])), draw(st.integers(2, 8))
    shape = draw(st.sampled_from(["generic", "near_collinear", "copies", "dominant"]))
    anchors, weights = rng.uniform(0, 1, (k, n)), rng.uniform(0.1, 2.0, k)
    if shape == "near_collinear":
        direction = rng.normal(size=n)
        anchors = 0.2 + 0.6 * np.outer(rng.uniform(0, 1, k), direction / np.linalg.norm(direction))
        anchors += rng.normal(size=(k, n)) * 10.0 ** rng.uniform(-15, -5)
    elif shape == "copies":
        c = int(rng.integers(1, k + 1))
        anchors[rng.permutation(k)[:c]] = anchors[rng.integers(k, size=c)]
    elif shape == "dominant":
        i = int(rng.integers(k))
        weights[i] = rng.uniform(0.3, 3.0) * (weights.sum() - weights[i])
    start = draw(st.sampled_from(["anchor", "box"]))
    v0 = anchors[rng.integers(k)].copy() if start == "anchor" else rng.uniform(0, 1, n)
    return v0, anchors, weights, length_scale_reference(anchors.tolist())


class TestFermatPoint:
    @settings(max_examples=400, deadline=None)
    @given(fermat_inputs())
    def test_no_worse_than_weiszfeld_and_exact_at_anchors(self, case):
        v0, anchors, weights, L = case
        new = _fermat_point(v0, anchors, weights, L)
        ref = _weiszfeld_reference(v0, anchors, weights, 200, 1e-12, L)
        assert _objective(new, anchors, weights) <= _objective(ref, anchors, weights) * (1 + 1e-12)
        ratios = kuhn_ratios(anchors, weights, L)
        passing = [k for k, r in enumerate(ratios) if r <= 1 + 1e-12]
        if passing and ratios[passing[0]] < 1 - 1e-9 and all(r > 1 + 1e-9 for r in ratios[:passing[0]]):
            assert new.tobytes() == anchors[passing[0]].tobytes()
        elif min(ratios) > 1 + 1e-6:  # an interior minimizer: the gradient vanishes there
            u = (new - anchors) / np.linalg.norm(new - anchors, axis=1)[:, None]
            assert np.linalg.norm(weights @ u) <= 1e-9 * weights.sum()

    def test_start_on_a_failing_anchor_moves_off_it(self):
        anchors = np.array([(0.0, 0.0), (4.0, 0.0), (1.0, 3.0)])
        weights = np.array([1.0, 1.0, 1.0])
        for v0 in anchors:
            new = _fermat_point(v0.copy(), anchors, weights, 4.0)
            assert np.min(np.linalg.norm(anchors - new, axis=1)) > 0.1
            u = (new - anchors) / np.linalg.norm(new - anchors, axis=1)[:, None]
            assert np.linalg.norm(u.sum(axis=0)) <= 1e-12

    @pytest.mark.parametrize("k", [-30, 0, 30])
    def test_equal_weights_on_an_equilateral_triangle_meet_at_120_degrees(self, k):
        """The centroid, where every pair of unit pulls meets at 120 degrees:
        cos = (w_k^2 - w_i^2 - w_j^2) / (2 w_i w_j) = -1/2."""
        anchors = np.ldexp(np.array([(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2)]), k)
        rng = np.random.default_rng(k + 30)
        for v0 in np.ldexp(rng.uniform(-1, 2, (20, 2)), k):
            new = _fermat_point(v0, anchors, np.full(3, 0.7), math.ldexp(1.0, k))
            assert np.linalg.norm(new - anchors.mean(axis=0)) <= math.ldexp(1e-12, k)
            u = (anchors - new) / np.linalg.norm(anchors - new, axis=1)[:, None]
            for i, j in ((0, 1), (1, 2), (0, 2)):
                assert u[i] @ u[j] == pytest.approx(-0.5, abs=1e-12)

    def test_weighted_angles_follow_the_cosine_rule(self):
        """Weights that form a triangle, none of whose anchors passes Kuhn's
        test: the pulls meet at the angles of the weight triangle."""
        rng = np.random.default_rng(3)
        checked = 0
        for _ in range(200):
            anchors, w = rng.uniform(0, 1, (3, 2)), rng.uniform(0.5, 1.5, 3)
            if min(kuhn_ratios(anchors, w, 1.0)) > 1 + 1e-6:
                new = _fermat_point(rng.uniform(0, 1, 2), anchors, w, 1.0)
                u = (anchors - new) / np.linalg.norm(anchors - new, axis=1)[:, None]
                for i, j, m in ((0, 1, 2), (1, 2, 0), (0, 2, 1)):
                    assert u[i] @ u[j] == pytest.approx((w[m] ** 2 - w[i] ** 2 - w[j] ** 2) / (2 * w[i] * w[j]),
                                                        abs=1e-9)
                checked += 1
        assert checked > 50

    @pytest.mark.parametrize("solve", ["raises", "nan"])
    def test_no_newton_direction_returns_a_point_no_worse_than_the_start(self, monkeypatch, solve):
        """When ``np.linalg.solve`` raises or returns NaN, no step is taken:
        the result is finite, and its objective is at most the start's, from
        inside the triangle (kept as it is) or on an anchor (the damped start)."""
        def broken(H, b):
            if solve == "raises":
                raise np.linalg.LinAlgError("singular matrix")
            return np.full_like(b, np.nan)

        monkeypatch.setattr(np.linalg, "solve", broken)
        anchors, weights = np.array([(0.0, 0.0), (4.0, 0.0), (1.0, 3.0)]), np.array([1.0, 1.5, 1.2])
        for v0 in (np.array([1.5, 1.0]), anchors[0].copy()):
            new = _fermat_point(v0, anchors, weights, 4.0)
            assert np.isfinite(new).all()
            assert _objective(new, anchors, weights) <= _objective(v0, anchors, weights)
        assert _fermat_point(np.array([1.5, 1.0]), anchors, weights, 4.0).tolist() == [1.5, 1.0]


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

    def test_library_calls_write_nothing_to_stdout(self, rng, capsys):
        """Benchmark and CLI results are the last line of standard output,
        so the library's solver, constructor and verifier print nothing."""
        mm, mp = compatible_pair(rng, atoms=5, m=2, span=0.4)
        T, _ = local_search(mm, mp, sum_alpha(2, 0.7))
        cascade(mm, mp, shifted_grid((0.0, 0.0), 1.0, [mm, mp], seed=0, k_max=8), 4,
                cost=sum_alpha(2, 0.7), beta=BetaEnvelope.from_power(0.75))
        verify_solution(T, mm, mp, sum_alpha(2, 0.7))
        assert capsys.readouterr().out == ""

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

    def test_stopping_at_max_iters_leaves_no_cycle(self):
        # a move accepted after the fourth sweep's cycle removal closes a
        # cycle in both components; the final cycle removal cancels it
        rng = np.random.default_rng(1066)
        wm, wp = rng.uniform(0.2, 2, (5, 2)), rng.uniform(0.2, 2, (6, 2))
        pm, pp = rng.uniform(0, 1, (5, 2)), rng.uniform(0, 1, (6, 2))
        wp *= wm.sum(axis=0) / wp.sum(axis=0)
        mm, mp = Chain0.from_arrays(2, 2, pm, wm), Chain0.from_arrays(2, 2, pp, wp)
        T, rep = local_search(mm, mp, p_norm_alpha(2, 2.0, 0.7), OptimizerConfig(max_iters=4))
        assert rep.iterations == 4 and rep.stop_reason == "max_iters"
        assert rep.acyclic_per_component == (True, True) and rep.ok
        assert remove_cycles(T) == T
        _, rep = local_search(mm, mp, p_norm_alpha(2, 2.0, 0.7))
        assert rep.iterations < 50 and rep.stop_reason == "converged"

    def test_verify_solution_reports_no_stop_reason(self, rng):
        mm, mp = compatible_pair(rng, atoms=4, m=1)
        T, rep = local_search(mm, mp, sum_alpha(1, 0.7))
        assert rep.stop_reason == "converged"
        assert verify_solution(T, mm, mp, sum_alpha(1, 0.7)).stop_reason is None


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

    def test_acyclicity_matches_tuple_keyed_dfs(self, rng):
        cost = sum_alpha(2, 0.7)
        verdicts = set()
        for k in range(40):
            T = canonicalize(signed_zero_chain(rng, n=2, m=2, edges=3 + k % 10))
            mm, mp = Chain0(2, 2), Chain0(2, 2)
            tol = _flow_tol_reference(T.Theta)
            expected = tuple(find_directed_cycle_reference(arcs_reference(
                endpoint_tuples(T), T.Theta[:, j].tolist(), tol)) is None for j in range(T.m))
            assert verify_solution(T, mm, mp, cost).acyclic_per_component == expected
            verdicts.add(expected)
        assert len(verdicts) > 2

    def test_loop_edge_fails_acyclicity(self):
        A = np.array([[0.0, 0.0], [1.0, 1.0]])
        T = Chain1.from_arrays(2, 2, A, np.array([[1.0, 0.0], [1.0, 1.0]]),
                               np.array([[1.0, 0.0], [0.0, 1.0]]), canonical=True)
        mm = Chain0.from_arrays(2, 2, np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]))
        mp = Chain0.from_arrays(2, 2, np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]))
        rep = verify_solution(T, mm, mp, sum_alpha(2, 0.7))
        assert rep.acyclic_per_component == (True, False) and not rep.ok

    def test_wrong_boundary_fails_residual(self):
        mm = Chain0(2, 1, (Atom((0.0, 0.0), (1.0,)),))
        mp = Chain0(2, 1, (Atom((1.0, 0.0), (1.0,)),))
        wrong = canonicalize(path_chain([(0.0, 0.0), (0.5, 0.8)], (1.0,)))
        rep = verify_solution(wrong, mm, mp, sum_alpha(1, 0.5))
        assert rep.boundary_residual > rep.eps_bnd and not rep.ok


class TestReportFailures:
    """``SolutionReport.failures`` names each failed check with its margin,
    and is empty exactly when the report is ok."""

    def test_wrong_boundary_names_the_residual(self):
        mm = Chain0(2, 1, (Atom((0.0, 0.0), (1.0,)),))
        mp = Chain0(2, 1, (Atom((1.0, 0.0), (1.0,)),))
        wrong = canonicalize(path_chain([(0.0, 0.0), (0.5, 0.8)], (1.0,)))
        rep = verify_solution(wrong, mm, mp, sum_alpha(1, 0.5))
        r, eps = rep.boundary_residual, rep.eps_bnd
        assert rep.failures == (f"boundary residual {r!r} above eps_bnd {eps!r} by {r - eps!r}",)
        assert not rep.ok

    def test_directed_triangle_names_its_component(self):
        mm = Chain0(2, 2, (Atom((0.0, 0.5), (1.0, 1.0)),))
        mp = Chain0(2, 2, (Atom((2.0, 0.5), (1.0, 1.0)),))
        good = path_chain([(0.0, 0.5), (2.0, 0.5)], (1.0, 1.0))
        triangle = path_chain([(3.0, 0.0), (4.0, 0.0), (4.0, 1.0), (3.0, 0.0)], (0.0, 1.0))
        rep = verify_solution(canonicalize(good + triangle), mm, mp, sum_alpha(2, 0.5))
        assert rep.acyclic_per_component == (True, False)
        assert rep.failures == ("component 1 has a directed cycle",) and not rep.ok

    def test_mass_bound_names_its_margin(self):
        rep = optimize.SolutionReport(2.0, 3.5, 0.0, (True,), False, 1.5, 0)
        assert rep.failures == ("mass 3.5 above mass_bound_constant x energy 3.0 by 0.5",)
        assert not rep.ok

    @pytest.mark.parametrize("residual", [0.0, 1e-8, 2e-8, math.nan])
    @pytest.mark.parametrize("acyclic", [(), (True,), (True, False), (False, False)])
    @pytest.mark.parametrize("mass_ok", [True, False])
    def test_ok_keeps_its_truth_table(self, residual, acyclic, mass_ok):
        rep = optimize.SolutionReport(1.0, 1.0, residual, acyclic, mass_ok, 1.0, 0, eps_bnd=1e-8)
        assert rep.ok == (residual <= 1e-8 and all(acyclic) and mass_ok)
        assert len(rep.failures) == (not residual <= 1e-8) + acyclic.count(False) + (not mass_ok)


class TestLastGain:
    def test_a_converged_search_gained_less_than_rel_tol(self, rng):
        mm, mp = compatible_pair(rng, atoms=5, m=2)
        _, rep = local_search(mm, mp, sum_alpha(2, 0.7))
        assert rep.stop_reason == "converged" and 0.0 <= rep.last_gain < OptimizerConfig().rel_tol

    def test_a_capped_search_that_had_not_converged_reports_its_gain(self):
        mm = Chain0(2, 2, (Atom((0.0, 0.2), (1.0, 0.0)), Atom((0.0, -0.2), (0.0, 1.0))))
        mp = Chain0(2, 2, (Atom((4.0, 0.2), (1.0, 0.0)), Atom((4.0, -0.2), (0.0, 1.0))))
        config = OptimizerConfig(max_iters=1)
        _, rep = local_search(mm, mp, sum_alpha(2, 0.5), config)
        assert rep.stop_reason == "max_iters" and rep.last_gain >= config.rel_tol
        _, rep = local_search(mm, mp, sum_alpha(2, 0.5))
        assert rep.stop_reason == "converged"

    def test_no_sweep_reports_no_gain(self, rng):
        mm, mp = compatible_pair(rng, atoms=4, m=1)
        T, rep = local_search(mm, mp, sum_alpha(1, 0.7), OptimizerConfig(max_iters=0))
        assert rep.iterations == 0 and rep.last_gain is None
        assert verify_solution(T, mm, mp, sum_alpha(1, 0.7)).last_gain is None


class TestSweep:
    """``_sweep`` on fake rows whose trials are names with made-up energies."""

    ENERGIES = {"start": 10.0, "up": 11.0, "down": 8.0, "lower": 7.0, "low": 6.0}

    def test_first_accepted_trial_per_row(self, monkeypatch):
        priced, drawn = [], []
        monkeypatch.setattr(optimize, "energy", lambda T, cost: priced.append(T) or self.ENERGIES[T])

        def trials(*names):
            def propose(T):
                for name in names:
                    drawn.append(name)
                    yield T if name == "same" else name
            return propose

        lower, no_rise = (lambda E2, E: E2 < E), (lambda E2, E: E2 <= E)
        rows = ((trials("up", "down", "lower"), lower),  # "down" is kept, "lower" never drawn
                (trials("up"), lower),  # rejected
                (trials("same", "low"), no_rise))  # the input itself, kept at its energy
        assert optimize._sweep("start", 10.0, rows, None) == ("down", 8.0)
        assert drawn == ["up", "down", "up", "same"]
        assert priced == ["up", "down", "up"]
        assert optimize._sweep("start", 10.0, rows[1:2], None) == ("start", 10.0)


def merge_candidates_reference(T):
    """(dist, i, k, dot) of every candidate pair, sorted as tuples."""
    if len(T.A) < 2:
        return []
    A, B = T.A, T.B
    diam = bounding_cube(np.vstack([A, B]))[1]
    U = (B - A) / np.linalg.norm(B - A, axis=1)[:, None]
    M = 0.5 * (A + B)
    ii, jj = np.triu_indices(len(A), 1)
    dots = np.sum(U[ii] * U[jj], axis=1)
    dist = np.linalg.norm(M[ii] - M[jj], axis=1)
    keep = (np.abs(dots) >= math.cos(math.radians(30.0))) & (dist <= 0.1 * diam)
    return sorted((float(dist[k]), int(ii[k]), int(jj[k]), float(dots[k])) for k in np.nonzero(keep)[0])


class TestMergeCandidates:
    def test_order_matches_tuple_sort_with_ties(self, rng):
        # unit-spaced short segments, half of them reversed, and one far edge
        # to widen the diameter: many pairs share a midpoint distance exactly
        A = np.array([(x, y) for x in range(4) for y in range(3)] + [(100.0, 0.0)], dtype=float)
        B = A + [(0.5, 0.0)] * 13
        A[::2], B[::2] = B[::2].copy(), A[::2].copy()
        chains = [Chain1.from_arrays(2, 1, A, B, np.ones((13, 1))), Chain1(2, 1)]
        chains += [random_chain(rng, edges=12, m=2, grid=2) for _ in range(20)]
        for T in chains:
            ref = merge_candidates_reference(T)
            assert _merge_candidates(T).tolist() == [[i, k, int(dot > 0)] for _, i, k, dot in ref]
        ref = merge_candidates_reference(chains[0])
        assert len({d for d, *_ in ref}) < len(ref) and {dot > 0 for *_, dot in ref} == {False, True}

    def test_far_offset_and_many_edges_match_reference(self, rng):
        """Coordinates near 1e8 round the midpoints and their distances
        coarsely, and up to 500 short segments keep most pairs far apart."""
        chains, found = [], 0
        for E in (2, 30, 120, 500):
            A = rng.uniform(0, 1, (E, 2))
            B = A + 0.05 * rng.normal(size=(E, 2))
            chains.append(Chain1.from_arrays(2, 1, A, B, np.ones((E, 1))))
            lattice = rng.integers(0, 6, (E, 2)) * 0.1
            chains.append(Chain1.from_arrays(2, 1, lattice, lattice + [0.05, 0.0], np.ones((E, 1))))
        chains += [random_chain(rng, n=3, edges=10, m=2, grid=2) for _ in range(4)]
        for T in chains:
            for offset in (0.0, 1e8, -1e8):
                S = Chain1.from_arrays(T.n, T.m, T.A + offset, T.B + offset, T.Theta)
                ref = merge_candidates_reference(S)
                assert _merge_candidates(S).tolist() == [[i, k, int(dot > 0)] for _, i, k, dot in ref]
                found += len(ref)
        assert found > 1000

    @pytest.mark.parametrize("low, span", [(-0.2497060070067163, 10.0), (-0.6428562436512562, 7.3)])
    def test_pair_beyond_the_rounded_reach_is_kept(self, low, span):
        """Two short parallel edges whose midpoints are a rounded distance R
        apart, R = 0.1 * diam, while the upper midpoint lies above low + R
        as floats: only the broad phase's slack keeps that pair."""
        h = np.array([0.25, 0.0])
        A2, B2 = np.array([low, low + span]), np.array([low + 0.5, low + span])
        diam = bounding_cube(np.vstack([[low, low] - h, [low, low] + h, A2, B2]))[1]
        above, beyond = np.array([low, low + 0.1 * diam]), 0
        for _ in range(3):
            above[1] = np.nextafter(above[1], np.inf)
            T = Chain1.from_arrays(2, 1, [[low, low] - h, above - h, A2], [[low, low] + h, above + h, B2],
                                   np.ones((3, 1)))
            ref = merge_candidates_reference(T)
            assert _merge_candidates(T).tolist() == [[i, k, int(dot > 0)] for _, i, k, dot in ref]
            M = 0.5 * (T.A + T.B)
            beyond += bool(ref) and M[1, 1] > M[0, 1] + 0.1 * bounding_cube(np.vstack([T.A, T.B]))[1]
        assert beyond


def _merge_trials(rng):
    """(T, i, k, aligned, cost, ends): every pair of edges of random trees
    with m = 1..3 in 2- and 3-space, and the endpoint tuples of the new
    edges a merge of the pair builds (a1, b1, a2, b2 and the midpoints v, w)."""
    for t in range(6):
        n, m = 2 + t % 2, 1 + t % 3
        T, cost = _random_tree(rng, n, m, 5), sum_alpha(m, 0.6)
        U = T.B - T.A
        for i in range(len(T.A)):
            for k in range(i + 1, len(T.A)):
                aligned = float(U[i] @ U[k]) > 0
                a2, b2 = (T.A[k], T.B[k]) if aligned else (T.B[k], T.A[k])
                ends = (T.A[i], T.B[i], a2, b2, 0.5 * (T.A[i] + a2), 0.5 * (T.B[i] + b2))
                yield T, i, k, aligned, cost, set(map(tuple, np.array(ends).tolist()))


class TestApplyMerge:
    """A merge trial relocates only the ends of its new edges, on its own
    graph, and is canonicalized once."""

    def test_one_canonicalization_per_trial(self, rng, monkeypatch):
        calls = []
        monkeypatch.setattr(optimize, "canonicalize", lambda T: calls.append(1) or canonicalize(T))
        trials = 0
        for T, i, k, aligned, cost, _ in _merge_trials(rng):
            calls.clear()
            _apply_merge(T, i, k, aligned, cost, OptimizerConfig())
            assert len(calls) == 1, (i, k)
            trials += 1
        assert trials > 100

    def test_relocates_only_the_ends_of_its_new_edges(self, rng, monkeypatch):
        starts = []
        monkeypatch.setattr(optimize, "_fermat_point", lambda v0, *args: starts.append(tuple(v0.tolist()))
                            or _fermat_point(v0, *args))
        placed = 0
        for T, i, k, aligned, cost, ends in _merge_trials(rng):
            starts.clear()
            _apply_merge(T, i, k, aligned, cost, OptimizerConfig())
            assert set(starts) <= ends, (i, k)
            placed += len(starts)
        assert placed > 100

    def test_output_is_canonical_and_keeps_the_rest_of_the_network(self, rng):
        """The output is canonical, flagged so, with T's boundary, and every
        vertex of T that is not an end of a new edge stays where it was."""
        for T, i, k, aligned, cost, ends in _merge_trials(rng):
            out = _apply_merge(T, i, k, aligned, cost, OptimizerConfig())
            assert out.canonical and chains_close(canonicalize(out), out)
            assert chain0_close(boundary(out), boundary(T))
            assert set(map(tuple, T.V.tolist())) - ends <= set(map(tuple, out.V.tolist())), (i, k)


class TestConfig:
    def test_bad_rel_tol_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig(rel_tol=0.0)

    def test_bad_init_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig(init="warm")
