"""Energy-decreasing transformations and local-search solver.

Moves: per-component cycle canceling (yields the acyclic part),
degree-2 straightening, Weiszfeld branch-point relocation, and a
subadditivity-driven merge move that reroutes two near-parallel edge
bundles through a shared trunk.  Every accepted move is energy
non-increasing; there is no global optimality guarantee.  ``w_upper``
bounds the W transportation distance by the better of the cascade
competitor and local search.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from branchnet.chains import (
    Chain0,
    Chain1,
    Edge,
    boundary,
    canonicalize,
    canonicalize0,
    component_lift,
    divergence,
    edge_arrays,
    is_compatible,
    mass,
)
from branchnet.construct import GridShiftError, barycenter, bounding_cube, cascade, cone, shifted_grid
from branchnet.costs import CostSpec, evaluate_rows
from branchnet.energy import energy, mass_bound_constant
from branchnet.metrics import flat_bounds

_FLOW_TOL_REL = 1e-14
_WEISZFELD_ITERS = 200
_WEISZFELD_TOL = 1e-12
_MERGE_COS = math.cos(math.radians(30.0))  # bundles at most 30 degrees apart
_MERGE_DIST_FRAC = 0.1  # midpoints at most this fraction of the diameter apart


@dataclass(frozen=True)
class OptimizerConfig:
    rel_tol: float = 1e-6
    max_iters: int = 50
    seed: int = 0
    init: str = "cone"  # "cone" | "cascade"

    def __post_init__(self):
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be positive")
        if self.init not in ("cone", "cascade"):
            raise ValueError("init must be 'cone' or 'cascade'")


@dataclass(frozen=True)
class SolutionReport:
    energy: float
    mass: float
    boundary_residual: float
    acyclic_per_component: tuple[bool, ...]
    mass_bound_ok: bool
    mass_bound_constant: float
    iterations: int
    eps_bnd: float = 1e-8

    @property
    def ok(self) -> bool:
        return (
            self.boundary_residual <= self.eps_bnd
            and all(self.acyclic_per_component)
            and self.mass_bound_ok
        )


# ---------------------------------------------------------------------------
# cycle removal

def _arcs(ends, flows, tol: float):
    """Directed arcs (u, v, edge_index, flow>0) from edge endpoints (a, b)
    and one commodity's multiplicities, reversing edges with negative flow."""
    arcs = []
    for i, ((a, b), f) in enumerate(zip(ends, flows)):
        if f > tol:
            arcs.append((a, b, i, f))
        elif f < -tol:
            arcs.append((b, a, i, -f))
    return arcs


def _flow_tol(theta: np.ndarray) -> float:
    """Flows at most this small count as zero: relative to the largest."""
    return _FLOW_TOL_REL * float(np.max(np.abs(theta), initial=0.0))


def _flow_graph(T: Chain1, j: int, tol: float):
    """Directed arcs (u, v, edge_index, flow>0) for commodity j."""
    return _arcs([(e.a, e.b) for e in T.edges], [e.theta[j] for e in T.edges], tol)


def _find_directed_cycle(arcs):
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
                    # back edge: walk the stack from u back to v
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
        # unwind leaves color 1 entries; mark done
        for u in adj:
            if color[u] == 1:
                color[u] = 2
    return None


def remove_cycles(T: Chain1) -> Chain1:
    """Cancel all per-component directed cycles (the discrete acyclic part).

    Repeatedly finds a cycle in the sign-consistent flow support of each
    commodity and subtracts the minimum flow along it.  Divergence is
    preserved exactly, the result is a piece of T, and each component's
    support becomes acyclic.  Terminates: every cancellation zeroes at
    least one edge-component.
    """
    if not T.canonical:
        T = canonicalize(T)
    _, _, theta = edge_arrays(T)
    tol = _flow_tol(theta)

    ends = [(e.a, e.b) for e in T.edges]
    for j in range(T.m):
        while True:
            arcs = _arcs(ends, theta[:, j].tolist(), tol)
            cycle = _find_directed_cycle(arcs)
            if cycle is None:
                break
            c = min(arcs[k][3] for k in cycle)
            for k in cycle:
                _, _, ei, _ = arcs[k]
                s = 1.0 if theta[ei, j] > 0 else -1.0
                theta[ei, j] -= s * c
                if abs(theta[ei, j]) <= tol:
                    theta[ei, j] = 0.0

    out = [
        Edge(e.a, e.b, tuple(row))
        for e, row in zip(T.edges, theta)
        if float(np.linalg.norm(row)) > tol
    ]
    return Chain1(T.n, T.m, tuple(out), canonical=True)


@dataclass(frozen=True)
class MultiplicityBoundReport:
    ok: bool
    worst_ratio: float
    violations: tuple[tuple[int, int], ...]  # (edge index, component)


def check_multiplicity_bound(T: Chain1, tol: float = 1e-9) -> MultiplicityBoundReport:
    """Verify |theta_j(e)| <= half the boundary mass of each component lift
    (valid for acyclic chains)."""
    violations = []
    worst = 0.0
    for j in range(T.m):
        half = 0.5 * mass(boundary(component_lift(T, j)))
        for i, e in enumerate(T.edges):
            v = abs(e.theta[j])
            if v > tol:
                worst = max(worst, v / half if half > 0 else math.inf)
                if v > half + tol:
                    violations.append((i, j))
    return MultiplicityBoundReport(not violations, worst, tuple(violations))


# ---------------------------------------------------------------------------
# straightening

def straighten(T: Chain1, eps: float = 1e-12) -> Chain1:
    """Collapse interior degree-2 vertices with identical through-flow.

    Replaces the two incident edges by their chord; energy never increases
    (triangle inequality times the shared cost term) and the boundary is
    untouched since the collapsed vertex carries no net weight.
    """
    if not T.canonical:
        T = canonicalize(T)
    edges = {i: e for i, e in enumerate(T.edges)}
    next_id = len(T.edges)
    incident: dict = {}
    for i, e in edges.items():
        incident.setdefault(e.a, set()).add(i)
        incident.setdefault(e.b, set()).add(i)

    changed = True
    while changed:
        changed = False
        for v, ids in list(incident.items()):
            if len(ids) != 2:
                continue
            i1, i2 = sorted(ids)
            e1, e2 = edges[i1], edges[i2]
            thru1 = np.array(e1.theta) * (1.0 if e1.b == v else -1.0)  # flow into v
            thru2 = np.array(e2.theta) * (1.0 if e2.a == v else -1.0)  # flow out of v
            scale = max(1.0, float(np.max(np.abs(thru1))))
            if np.max(np.abs(thru1 - thru2)) > eps * scale:
                continue
            x = e1.a if e1.b == v else e1.b
            y = e2.b if e2.a == v else e2.a
            if x == y:
                continue  # two-edge loop; cycle removal's job
            new_edge = Edge(x, y, tuple(thru1))
            for i in (i1, i2):
                e = edges.pop(i)
                incident[e.a].discard(i)
                incident[e.b].discard(i)
            edges[next_id] = new_edge
            incident.setdefault(x, set()).add(next_id)
            incident.setdefault(y, set()).add(next_id)
            next_id += 1
            changed = True
    return canonicalize(Chain1(T.n, T.m, tuple(edges[i] for i in sorted(edges))))


# ---------------------------------------------------------------------------
# Weiszfeld branch-point relocation

def _weiszfeld(v0: np.ndarray, anchors: np.ndarray, weights: np.ndarray, diam: float) -> np.ndarray:
    """Weighted geometric median with damping at anchor coincidences."""
    scale = max(diam, 1.0)
    near, stop = 1e-12 * scale, _WEISZFELD_TOL * scale
    v = v0.copy()
    for _ in range(_WEISZFELD_ITERS):
        diff = anchors - v
        d = np.sqrt(np.add.reduce(diff * diff, axis=1))  # norm(axis=1), bit for bit
        if np.minimum.reduce(d) < near:
            hit = np.nonzero(d < near)[0]
            k = int(hit[0])
            away = np.nonzero(d >= near)[0]
            if away.size == 0:
                return anchors[k]
            dirs = anchors[away] - v
            nrm = np.linalg.norm(dirs, axis=1)
            R = np.sum(weights[away, None] * dirs / nrm[:, None], axis=0)
            # coincident anchors contribute a full subgradient ball each
            slack = float(np.sum(weights[hit]))
            if np.linalg.norm(R) <= slack * (1 + 1e-12):
                return anchors[k]  # subgradient optimality at the anchor
            step = 1e-7 * scale
            v = v + 0.5 * step * R / np.linalg.norm(R)
            continue
        wd = weights / d
        v_new = (wd @ anchors) / np.add.reduce(wd)
        dv = v_new - v
        if math.sqrt(dv.dot(dv)) <= stop:  # 1-D norm, bit for bit
            return v_new
        v = v_new
    return v


def _free_vertices(T: Chain1) -> set:
    bnd = {a.position for a in boundary(T).atoms}
    return {v for v in T.vertices() if v not in bnd}


def _chain_diam(T: Chain1) -> float:
    A, B, _ = edge_arrays(T)
    if not len(A):
        return 1.0
    return float(np.max(np.ptp(np.vstack([A, B]), axis=0))) or 1.0


def relocate_branch_points(T: Chain1, cost: CostSpec) -> Chain1:
    """One sweep of Weiszfeld relocation over the free vertices.

    A free vertex carries zero boundary weight; its optimal position for
    fixed topology minimizes sum_e C(theta_e) |v - other(e)|.  Moves are
    accepted only when the local objective does not increase, so the sweep
    is energy non-increasing.  Vertices that land on a neighbor make the
    connecting edge vanish.

    The edge costs are evaluated once and the incidence (position -> tail
    and head edge indices) is built once per call; the sweep is
    Gauss-Seidel over the free vertices in sorted order, and a moved
    vertex's edges join the incidence of its new position, so a later free
    vertex there sees them.
    """
    if not T.canonical:
        T = canonicalize(T)
    if not T.edges:
        return T
    diam = _chain_diam(T)
    edges = [(e.a, e.b, e.theta) for e in T.edges]
    W = evaluate_rows(cost, [th for _, _, th in edges])
    incidence: dict = {}
    for i, (a, b, _) in enumerate(edges):
        incidence.setdefault(a, ([], []))[0].append(i)
        incidence.setdefault(b, ([], []))[1].append(i)

    for v in sorted(_free_vertices(T)):
        tails, heads = incidence.pop(v)
        anchors = np.array([edges[i][1] for i in tails] + [edges[i][0] for i in heads])
        weights = W[tails + heads]
        old = np.array(v)
        f_old = float(np.sum(weights * np.linalg.norm(anchors - old, axis=1)))
        new = _weiszfeld(old, anchors, weights, diam)
        # snap to a coincident anchor so the degenerate edge can be dropped
        d = np.linalg.norm(anchors - new, axis=1)
        k = int(np.argmin(d))
        if d[k] < 1e-9 * max(diam, 1.0):
            new = anchors[k]
        f_new = float(np.sum(weights * np.linalg.norm(anchors - new, axis=1)))
        if f_new > f_old * (1 + 1e-12):
            continue
        vt = tuple(float(c) for c in new)
        for i in tails:
            _, b, th = edges[i]
            edges[i] = (vt, b, th)
        for i in heads:
            a, _, th = edges[i]
            edges[i] = (a, vt, th)
        there = incidence.pop(vt, ([], []))
        incidence[vt] = (sorted(there[0] + tails), sorted(there[1] + heads))

    kept = [Edge(a, b, th) for a, b, th in edges if a != b]
    return canonicalize(Chain1(T.n, T.m, tuple(kept)))


# ---------------------------------------------------------------------------
# merge/split topology move

def _merge_candidates(T: Chain1):
    """Pairs of distinct near-parallel nearby edges, best-first by closeness."""
    if len(T.edges) < 2:
        return []
    diam = _chain_diam(T)
    A, B, _ = edge_arrays(T)
    U = (B - A) / np.linalg.norm(B - A, axis=1)[:, None]
    M = 0.5 * (A + B)
    ii, jj = np.triu_indices(len(A), 1)
    dots = np.sum(U[ii] * U[jj], axis=1)
    dist = np.linalg.norm(M[ii] - M[jj], axis=1)
    keep = (np.abs(dots) >= _MERGE_COS) & (dist <= _MERGE_DIST_FRAC * diam)
    out = [(float(dist[k]), int(ii[k]), int(jj[k]), float(dots[k])) for k in np.nonzero(keep)[0]]
    out.sort()
    return out


def _apply_merge(T: Chain1, i: int, k: int, aligned: bool, cost: CostSpec, config: OptimizerConfig) -> Chain1:
    """Reroute edges i and k through a shared trunk and relocate its ends.
    ``config`` is unused; benchmark tracing reads its ``rel_tol``."""
    E = list(T.edges)
    e1, e2 = E[i], E[k]
    a2, b2, th2 = (e2.a, e2.b, e2.theta)
    if not aligned:
        a2, b2 = b2, a2
        th2 = tuple(-t for t in th2)
    v = tuple(0.5 * (np.array(e1.a) + a2))
    w = tuple(0.5 * (np.array(e1.b) + b2))
    if v == w:
        return T
    rest = [e for idx, e in enumerate(E) if idx not in (i, k)]
    trunk = tuple(x + y for x, y in zip(e1.theta, th2))
    new = [
        Edge(e1.a, v, e1.theta),
        Edge(a2, v, th2),
        Edge(v, w, trunk),
        Edge(w, e1.b, e1.theta),
        Edge(w, b2, th2),
    ]
    new = [e for e in new if e.a != e.b]
    trial = canonicalize(Chain1(T.n, T.m, tuple(rest + new)))
    return relocate_branch_points(trial, cost)


# ---------------------------------------------------------------------------
# local search driver

def local_search(
    mu_minus: Chain0,
    mu_plus: Chain0,
    cost: CostSpec,
    config: OptimizerConfig | None = None,
) -> tuple[Chain1, SolutionReport]:
    """Heuristic minimizer of the transportation energy between two
    compatible measures.

    Starts from the cone (or cascade) competitor and sweeps the move set,
    accepting only strict energy decreases; stops when a full sweep gains
    less than rel_tol relatively or after max_iters sweeps.
    """
    config = config or OptimizerConfig()
    if not is_compatible(mu_minus, mu_plus):
        raise ValueError("incompatible measures")
    nu = mu_plus - mu_minus

    if config.init == "cascade":
        grid = shifted_grid(*bounding_cube(nu), [mu_minus, mu_plus], seed=config.seed)
        T = cascade(mu_minus, mu_plus, grid, K=4).chain
    else:
        T = canonicalize(cone(nu, barycenter(nu)))

    E = energy(T, cost)
    iters = 0
    for iters in range(1, config.max_iters + 1):
        E_start = E
        T2 = remove_cycles(T)
        E2 = energy(T2, cost)
        if E2 <= E:
            T, E = T2, E2
        T2 = straighten(T)
        E2 = energy(T2, cost)
        if E2 <= E * (1 + 1e-12):
            T, E = T2, E2
        T2 = relocate_branch_points(T, cost)
        E2 = energy(T2, cost)
        if E2 <= E * (1 + 1e-12):
            T, E = T2, E2
        for _, i, k, dot in _merge_candidates(T)[:8]:
            T2 = _apply_merge(T, i, k, dot > 0, cost, config)
            E2 = energy(T2, cost)
            if E2 < E * (1 - config.rel_tol):
                T, E = T2, E2
                break
        if E_start - E < config.rel_tol * max(E_start, 1e-300):
            break

    report = verify_solution(T, mu_minus, mu_plus, cost, iterations=iters)
    return T, report


def verify_solution(
    T: Chain1,
    mu_minus: Chain0,
    mu_plus: Chain0,
    cost: CostSpec,
    iterations: int = 0,
    eps_bnd: float = 1e-8,
) -> SolutionReport:
    """Certify a produced network: boundary residual (flat upper bound of
    divergence minus target), per-component acyclicity, and the
    energy-controls-mass inequality."""
    if not T.canonical:
        T = canonicalize(T)
    target = mu_minus - mu_plus
    residual_chain = divergence(T) - target
    residual = flat_bounds(canonicalize0(residual_chain)).upper
    acyclic = []
    tol = _flow_tol(edge_arrays(T)[2])
    for j in range(T.m):
        arcs = _flow_graph(T, j, tol)
        acyclic.append(_find_directed_cycle(arcs) is None)

    bm = mass(canonicalize0(target))
    E = energy(T, cost)
    M = mass(T)
    if bm > 0:
        cconst = mass_bound_constant(cost, bm)
        mass_ok = bool(M <= cconst * E * (1 + 1e-9) + 1e-12)
    else:
        cconst = 0.0
        mass_ok = bool(M <= 1e-12)
    return SolutionReport(E, M, float(residual), tuple(bool(a) for a in acyclic), mass_ok, cconst, iterations, eps_bnd)


def w_upper(
    mu_minus: Chain0,
    mu_plus: Chain0,
    cost: CostSpec,
    K: int = 4,
    config: OptimizerConfig | None = None,
    grid=None,
) -> float:
    """Upper bound for the W transportation distance between compatible
    measures: the better of the cascade competitor and local search.

    Passing a shared ``grid`` makes sweeps over dyadic approximations of a
    fixed target coherent: the cascade between the level-h approximation
    and the target on the same grid reduces to the series tail from level
    h, which decreases with h.  Without one, a grid is shifted around the
    measures; if no shift clears every atom, the bound comes from local
    search alone, with a warning.
    """
    if not is_compatible(mu_minus, mu_plus):
        raise ValueError("incompatible measures")
    nu = canonicalize0(mu_plus - mu_minus)
    if not nu.atoms:
        return 0.0

    best = math.inf
    if grid is None:
        try:
            grid = shifted_grid(*bounding_cube(nu), [mu_minus, mu_plus], k_max=max(K + 1, 8))
        except GridShiftError as exc:
            warnings.warn(f"w_upper: {exc}; the bound comes from local search alone", stacklevel=2)
    if grid is not None:
        best = energy(cascade(mu_minus, mu_plus, grid, min(K, grid.k_max - 1)).chain, cost)

    T, _ = local_search(mu_minus, mu_plus, cost, config or OptimizerConfig())
    return min(best, energy(T, cost))
