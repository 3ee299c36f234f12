"""Energy-decreasing transformations and local-search solver.

Moves: per-component cycle canceling (yields the acyclic part),
degree-2 straightening, branch-point relocation to exact weighted
Fermat-Torricelli points, and a subadditivity-driven merge move that
reroutes two near-parallel edge bundles through a shared trunk.  Every
accepted move is energy non-increasing; there is no global optimality
guarantee.  ``w_upper`` bounds the W transportation distance by the
better of the cascade competitor and local search.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from branchnet.chains import (
    EPS_REL,
    Chain0,
    Chain1,
    boundary,
    canonicalize,
    canonicalize0,
    component_lift,
    divergence,
    is_compatible,
    mass,
    pow2_scale,
    _near_pairs,
    _norms,
    _significant,
    _snap_radius,
    _vertex_weights,
)
from branchnet.construct import GridShiftError, barycenter, bounding_cube, cascade, cone, shifted_grid
from branchnet.costs import CostSpec, evaluate_rows
from branchnet.energy import energy, mass_bound_constant
from branchnet.metrics import flat_bounds

_FLOW_TOL_REL = 1e-14
_NEWTON_ITERS = 100  # a cap that Newton's quadratic convergence does not reach
_STEP_TOL = 1e-12  # relative to the length scale L
_ROUNDING = 1 + 8 * np.finfo(float).eps  # sums of a few norms agree within this factor at a tie
_MERGE_COS = math.cos(math.radians(30.0))  # bundles at most 30 degrees apart
_MERGE_DIST_FRAC = 0.1  # midpoints at most this fraction of the diameter apart
_MERGE_TRIES = 8  # best merge candidates tried per sweep
_RISE = 1 + 1e-12  # straightening and relocation may raise the energy by this factor, a rounding slack


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
    iterations: int  # local_search's sweeps; 0 from verify_solution
    eps_bnd: float = 1e-8  # bound on boundary_residual: the tolerance times the weight scale S
    stop_reason: str | None = None  # local_search: "converged" or "max_iters"; None from verify_solution
    last_gain: float | None = None  # local_search: the last sweep's (E_start - E) / E_start; None otherwise

    @property
    def failures(self) -> tuple[str, ...]:
        """Each failed check with its margin; empty exactly when the report is ok."""
        r, eps, bound = self.boundary_residual, self.eps_bnd, self.mass_bound_constant * self.energy
        found = [] if r <= eps else [f"boundary residual {r!r} above eps_bnd {eps!r} by {r - eps!r}"]  # NaN fails
        found += [f"component {j} has a directed cycle" for j, a in enumerate(self.acyclic_per_component) if not a]
        if not self.mass_bound_ok:
            found.append(f"mass {self.mass!r} above mass_bound_constant x energy {bound!r} by {self.mass - bound!r}")
        return tuple(found)

    @property
    def ok(self) -> bool:
        return not self.failures


# ---------------------------------------------------------------------------
# cycle removal

def _arcs(ij: np.ndarray, flow: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """One commodity's flow support: the (u, v) vertex ids of each edge
    with |flow| > tol, oriented along the flow, and the edge indices, in
    edge order."""
    edges = (np.abs(flow) > tol).nonzero()[0]
    uv = np.where((flow[edges] < 0)[:, None], ij[edges, ::-1], ij[edges])
    return uv, edges


def _flow_tol(theta: np.ndarray) -> float:
    """Flows at most this small count as zero: relative to the largest."""
    return _FLOW_TOL_REL * float(np.abs(theta).max(initial=0.0))


def _find_directed_cycle(k: int, uv: np.ndarray):
    """One directed cycle of the arcs uv (vertex id pairs on k vertices) as
    arc indices, or None: an iterative DFS from each vertex in order of first
    appearance, along its arcs in order.  A loop arc (u, u) is a cycle."""
    order = np.argsort(uv[:, 0], kind="stable")  # arcs grouped by tail
    indptr = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(np.bincount(uv[:, 0], minlength=k), out=indptr[1:])
    ptr, heads, arcs, tails = indptr.tolist(), uv[order, 1].tolist(), order.tolist(), uv[:, 0].tolist()
    color = [0] * k  # 0 white, 1 on stack, 2 done
    parent_arc = [0] * k
    for start in uv.ravel().tolist():
        if color[start] != 0:
            continue
        stack = [(start, iter(range(ptr[start], ptr[start + 1])))]
        color[start] = 1
        while stack:
            u, it = stack[-1]
            advanced = False
            for p in it:
                v, a = heads[p], arcs[p]
                if color[v] == 0:
                    color[v] = 1
                    parent_arc[v] = a
                    stack.append((v, iter(range(ptr[v], ptr[v + 1]))))
                    advanced = True
                    break
                if color[v] == 1:
                    # back edge: walk the stack from u back to v
                    cycle = [a]
                    w = u
                    while w != v:
                        cycle.append(parent_arc[w])
                        w = tails[parent_arc[w]]
                    cycle.reverse()
                    return cycle
            if not advanced:
                color[u] = 2
                stack.pop()
    return None


def remove_cycles(T: Chain1) -> Chain1:
    """Cancel all per-component directed cycles (the discrete acyclic part).

    Repeatedly finds a cycle in the sign-consistent support of each
    commodity's flows above ``_flow_tol`` and subtracts the minimum flow
    along it.  Divergence is preserved exactly, the result is a piece of T
    with the rows canonical form keeps (``_significant``), and each
    component's support becomes acyclic.  Terminates: every cancellation
    zeroes at least one edge-component.  With no cycle to cancel, the result
    is T itself (canonicalized first if not flagged canonical), graph included.
    """
    if not T.canonical:
        T = canonicalize(T)
    theta = np.array(T.Theta)  # a writable copy
    tol = _flow_tol(theta)

    for j in range(T.m):
        while True:
            uv, edges = _arcs(T.ij, theta[:, j], tol)
            cycle = _find_directed_cycle(len(T.V), uv)
            if cycle is None:
                break
            e = edges[cycle]  # a cycle passes each edge once
            flow = theta[e, j]
            flow -= np.copysign(np.abs(flow).min(), flow)
            flow[np.abs(flow) <= tol] = 0.0
            theta[e, j] = flow
    if (theta == T.Theta).all():  # no cycle: a cancellation zeroes an edge-component, and none is <= tol
        return T

    keep = _significant(theta, T.Theta)  # the rows canonical form keeps
    return Chain1.from_arrays(T.n, T.m, T.A[keep], T.B[keep], theta[keep], canonical=True)


@dataclass(frozen=True)
class MultiplicityBoundReport:
    ok: bool
    worst_ratio: float
    violations: tuple[tuple[int, int], ...]  # (edge index, component)


def check_multiplicity_bound(T: Chain1) -> MultiplicityBoundReport:
    """Verify |theta_j(e)| <= half the boundary mass of each component lift,
    up to ``EPS_REL`` S, S of T's multiplicities (valid for acyclic chains)."""
    tol = EPS_REL * pow2_scale(T.Theta)
    half = 0.5 * np.array([mass(boundary(component_lift(T, j))) for j in range(T.m)])
    X = np.abs(T.Theta)
    ratio = np.divide(X, half, out=np.full(X.shape, math.inf), where=half > 0)
    j, i = (X > half + tol).T.nonzero()  # by component, then edge
    violations = tuple(zip(i.tolist(), j.tolist()))
    return MultiplicityBoundReport(not violations, float(ratio[X > tol].max(initial=0.0)), violations)


# ---------------------------------------------------------------------------
# straightening

def straighten(T: Chain1) -> Chain1:
    """Collapse interior degree-2 vertices whose through-flow agrees within a relative 1e-12.

    Replaces the two incident edges by their chord; energy never increases
    (triangle inequality times the shared cost term) and the boundary is
    untouched since the collapsed vertex carries no net weight.  With no
    collapse, the result is T itself (canonicalized first if not flagged).

    Vertices are visited by first appearance, in passes until none
    collapses, on the (E, 2) vertex-id array with room for one chord per
    vertex: a collapse sets its two rows to -1 and appends the chord.
    Degrees (a loop edge counted once) are read once, as a collapse
    changes no other vertex's degree.
    """
    if not T.canonical:
        T = canonicalize(T)
    E = len(T.ij)
    ends, theta = np.full((E + len(T.V), 2), -1), np.empty((E + len(T.V), T.m))
    ends[:E], theta[:E] = T.ij, T.Theta
    loop = T.ij[:, 0] == T.ij[:, 1]
    degree = np.bincount(np.concatenate([T.ij[:, 0], T.ij[~loop, 1]]), minlength=len(T.V))
    order = T.ij.ravel()[np.sort(np.unique(T.ij, return_index=True)[1])]  # vertices by first appearance
    k, changed = E, True
    while changed:
        changed = False
        for v in order[degree[order] == 2].tolist():
            i1, i2 = (ends == v).any(axis=1).nonzero()[0].tolist()
            (a1, b1), (a2, b2) = ends[[i1, i2]].tolist()
            thru1 = theta[i1] * (1.0 if b1 == v else -1.0)  # flow into v
            thru2 = theta[i2] * (1.0 if a2 == v else -1.0)  # flow out of v
            if np.abs(thru1 - thru2).max() > 1e-12 * np.abs(thru1).max():
                continue
            x = a1 if b1 == v else b1
            y = b2 if a2 == v else a2
            if x == y:
                continue  # two-edge loop; cycle removal's job
            ends[[i1, i2]] = -1
            ends[k], theta[k] = (x, y), thru1
            k += 1
            degree[v], changed = 0, True
    if k == E:  # no vertex collapsed
        return T
    kept = ends[:, 0] >= 0
    return canonicalize(Chain1.from_arrays(T.n, T.m, T.V[ends[kept, 0]], T.V[ends[kept, 1]], theta[kept]))


# ---------------------------------------------------------------------------
# branch-point relocation: exact weighted Fermat-Torricelli points

def _fermat_point(v0: np.ndarray, anchors: np.ndarray, weights: np.ndarray, scale: float) -> np.ndarray:
    """Minimizer of f(v) = sum_i w_i |v - a_i|, the weighted geometric median
    of the anchors, to tolerances relative to the length ``scale`` and to
    sum w.  The weights are divided by their power-of-two scale first, which
    is exact, so no square of a weight leaves the floating-point range.

    First Kuhn's test at every anchor: a_k is a minimizer when the pull of
    the other anchors, R_k = sum_i w_i (a_i - a_k)/|a_i - a_k|, has
    |R_k| <= w_k, where anchors within 1e-12 ``scale`` of a_k pool their
    weights with it.  The first anchor that passes is returned exactly; this
    covers collinear anchors, whose minimizer is always an anchor.
    Otherwise the minimizer is the interior zero of the gradient
    sum_i w_i u_i, u_i = (v - a_i)/|v - a_i|.  When some anchor is no worse
    than the start (a start on an anchor among them), the search starts with
    a damped step off the best anchor along its pull, so no iterate can
    approach an anchor's kink.  Then Newton steps with the Hessian
    sum_i (w_i/d_i)(I - u_i u_i^T), halved until f falls, until the gradient
    is at most 1e-12 sum w; v is returned as it is when no step longer than
    ``_STEP_TOL`` ``scale`` lowers f (a NaN step among them)."""
    weights = weights / pow2_scale(weights)
    near, stop = 1e-12 * scale, _STEP_TOL * scale
    D = anchors[None, :, :] - anchors[:, None, :]  # D[k, i] = a_i - a_k
    dist = _norms(D)
    on = dist < near
    R = np.add.reduce(weights[:, None] * D / np.where(on, np.inf, dist)[:, :, None], axis=1)
    pull = _norms(R)
    passes = pull <= (on @ weights) * (1 + 1e-12)
    if passes.any():
        return anchors[int(passes.argmax())]

    v, g_tol, eye = v0, 1e-12 * np.add.reduce(weights), np.eye(len(v0))
    d = _norms(v - anchors)
    f, f_at = weights @ d, dist @ weights
    k = int(f_at.argmin())
    if f_at[k] <= f or np.minimum.reduce(d) < near:
        v = anchors[k] + 0.5e-7 * scale * R[k] / pull[k]
        d = _norms(v - anchors)
        f = weights @ d
    for _ in range(_NEWTON_ITERS):
        if np.minimum.reduce(d) < near:
            return anchors[int(d.argmin())]  # as good as that anchor, to within 1e-12 scale
        U = (v - anchors) / d[:, None]
        g = weights @ U
        if _norms(g) <= g_tol:
            return v
        wd = weights / d
        H = np.add.reduce(wd) * eye - (U.T * wd) @ U
        try:
            p = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:  # H is singular only on collinear anchors, which Kuhn's test settles
            return v
        t, size = 1.0, _norms(p)
        while t * size > stop:  # backtrack until f falls
            trial = v + t * p
            d_t = _norms(trial - anchors)
            f_t = weights @ d_t
            # the full step may also stay within rounding of f, where Newton still converges
            if f_t < f or (t == 1.0 and f_t <= f * _ROUNDING):
                break
            t *= 0.5
        else:
            return v
        v, d, f = trial, d_t, f_t
    return v


def relocate_branch_points(T: Chain1, cost: CostSpec) -> Chain1:
    """One sweep of branch-point relocation over the free vertices.

    A free vertex carries zero boundary weight; its optimal position for
    fixed topology minimizes sum_e C(theta_e) |v - other(e)|, and
    ``_fermat_point`` finds that minimizer exactly.  Moves are accepted
    only when the local objective does not increase, so the sweep is energy
    non-increasing.  Vertices that land on a neighbor make the connecting
    edge vanish.  An unflagged T is canonicalized first, then ``_relocate``
    moves every free vertex; when none moves, the result is T itself.
    """
    if not T.canonical:
        T = canonicalize(T)
    return _relocate(T, cost, range(len(T.V)))


def _relocate(T: Chain1, cost: CostSpec, vertices) -> Chain1:
    """Relocate the free ones among ``vertices`` (ids into ``T.V``) on T's own graph, canonical or not, then
    canonicalize once: the result is T itself only when T is flagged canonical and no vertex moved.

    The edge costs are evaluated once; the sweep is Gauss-Seidel over the
    vertices in sorted order, on the (E, 2) vertex-id array.  A moved
    vertex's edges are relabeled to the last vertex at its new point: a
    listed free vertex there not yet visited has the largest id, so it sees
    them on its turn, and no other is visited again.  An edge with both ends
    on a vertex (it landed there) has zero length wherever it goes, so it
    moves with it and does not pull.
    """
    L, eps = pow2_scale(T.V, extent=True), _snap_radius(T.V)  # the extent of the endpoints
    W = evaluate_rows(cost, T.Theta)
    pos, ends = np.array(T.V), np.array(T.ij)  # vertex positions and each edge's (tail, head) ids
    listed = np.zeros(len(T.V), dtype=bool)
    listed[vertices] = True

    for v in (listed & ~_significant(_vertex_weights(T), T.Theta)).nonzero()[0].tolist():
        at = ends == v
        side, e = (at & ~at[:, ::-1]).T.nonzero()  # the edges with one end on v: tails, then heads
        if not len(e):
            continue
        anchors, weights = pos[ends[e, 1 - side]], W[e]
        old = pos[v]
        f_old = float(np.add.reduce(weights * _norms(anchors - old)))
        new = _fermat_point(old, anchors, weights, L)
        # snap to a coincident anchor so the degenerate edge can be dropped
        d = _norms(anchors - new)
        k = int(d.argmin())
        if d[k] < eps:
            new = anchors[k]
        f_new = float(np.add.reduce(weights * _norms(anchors - new)))
        if f_new > f_old * _RISE:
            continue
        pos[v] = new
        ends[at] = (pos == new).all(axis=1).nonzero()[0][-1]

    if pos.tobytes() == T.V.tobytes():  # no vertex moved, to the bit
        return T if T.canonical else canonicalize(T)
    A, B = pos[ends[:, 0]], pos[ends[:, 1]]
    kept = (A != B).any(axis=1)
    return canonicalize(Chain1.from_arrays(T.n, T.m, A[kept], B[kept], T.Theta[kept]))


# ---------------------------------------------------------------------------
# merge/split topology move

def _merge_candidates(T: Chain1) -> np.ndarray:
    """Pairs of distinct near-parallel nearby edges, best-first by closeness
    of their midpoints, then by edge indices: one row (i, k, aligned) each."""
    diam = bounding_cube(np.concatenate([T.A, T.B]))[1]
    A, B = T.A, T.B
    U = (B - A) / _norms(B - A)[:, None]
    M = 0.5 * (A + B)
    R = _MERGE_DIST_FRAC * diam
    ii, jj = _near_pairs(M, R)
    dots = np.add.reduce(U[ii] * U[jj], axis=1)
    dist = _norms(M[ii] - M[jj])
    keep = (np.abs(dots) >= _MERGE_COS) & (dist <= R)
    ii, jj = ii[keep], jj[keep]
    order = np.lexsort((jj, ii, dist[keep]))
    return np.stack([ii, jj, dots[keep] > 0], axis=1)[order]


def _apply_merge(T: Chain1, i: int, k: int, aligned: bool, cost: CostSpec, config: OptimizerConfig) -> Chain1:
    """Reroute edges i and k through a shared trunk, relocate the free ends of the new edges (v, w, a1, a2, b1 and
    b2) on the trial's own graph, blind to where they cross others, and canonicalize once (``_relocate``).
    ``config`` is unused; benchmark tracing reads its ``rel_tol``."""
    a1, b1, th1 = T.A[i], T.B[i], T.Theta[i]
    a2, b2, th2 = T.A[k], T.B[k], T.Theta[k]
    if not aligned:
        a2, b2, th2 = b2, a2, -th2
    v, w = 0.5 * (a1 + a2), 0.5 * (b1 + b2)
    P, Q, Th = np.array([a1, a2, v, w, w]), np.array([v, v, w, b1, b2]), np.array([th1, th2, th1 + th2, th1, th2])
    keep = (P != Q).any(axis=1)  # the new edges, less those of zero length
    trial = Chain1.from_arrays(T.n, T.m, *(np.concatenate([np.delete(X, [i, k], axis=0), Y[keep]])
                                           for X, Y in ((T.A, P), (T.B, Q), (T.Theta, Th))))
    return _relocate(trial, cost, trial.ij[len(T.A) - 2:])  # the new edges come last


# ---------------------------------------------------------------------------
# local search driver

def _sweep(T: Chain1, E: float, rows, cost: CostSpec) -> tuple[Chain1, float]:
    """Each row in turn: (T, E) become the first trial of ``propose(T)`` whose energy E2 passes
    ``accept(E2, E)``, and later trials are not drawn.  A trial that is T itself keeps E."""
    for propose, accept in rows:
        for T2 in propose(T):
            E2 = E if T2 is T else energy(T2, cost)
            if accept(E2, E):
                T, E = T2, E2
                break
    return T, E


def local_search(
    mu_minus: Chain0,
    mu_plus: Chain0,
    cost: CostSpec,
    config: OptimizerConfig | None = None,
) -> tuple[Chain1, SolutionReport]:
    """Heuristic minimizer of the transportation energy between two
    compatible measures.

    Starts from the cone (or cascade) competitor and sweeps the move table ``rows`` (``_sweep``), one
    (propose, accept) row per move: it keeps cycle removal when the energy does not rise (E2 <= E),
    straightening and branch-point relocation when it rises by at most a relative 1e-12
    (E2 <= E (1 + 1e-12)), and the first of the 8 best merge candidates that lowers it by more than
    rel_tol relatively (E2 < E (1 - rel_tol)); a merge trial relocates only the ends of its new edges
    (``_apply_merge``).  It stops when a full sweep gains less than rel_tol
    relatively or after max_iters sweeps, then removes cycles once more under the same rule.
    The report's ``stop_reason`` says which: "converged" or "max_iters",
    and its ``last_gain`` is the last sweep's relative gain.
    """
    config = config or OptimizerConfig()
    if not is_compatible(mu_minus, mu_plus):
        raise ValueError("incompatible measures")
    nu = mu_plus - mu_minus

    if config.init == "cascade":
        grid = shifted_grid(*bounding_cube(nu.P), [mu_minus, mu_plus], seed=config.seed)
        T = cascade(mu_minus, mu_plus, grid, K=4).chain
    else:
        T = canonicalize(cone(nu, barycenter(nu)))

    # built per call, not at import, so each move is read from the module when called (a tracer may rebind it)
    rows = ((lambda T: (remove_cycles(T),), lambda E2, E: E2 <= E),
            (lambda T: (straighten(T),), lambda E2, E: E2 <= E * _RISE),
            (lambda T: (relocate_branch_points(T, cost),), lambda E2, E: E2 <= E * _RISE),
            (lambda T: (_apply_merge(T, i, k, bool(aligned), cost, config)
                        for i, k, aligned in _merge_candidates(T)[:_MERGE_TRIES].tolist()),
             lambda E2, E: E2 < E * (1 - config.rel_tol)))
    E = energy(T, cost)
    iters, last_gain = 0, None
    for iters in range(1, config.max_iters + 1):
        E_start = E
        T, E = _sweep(T, E, rows, cost)
        last_gain = (E_start - E) / E_start if E_start else 0.0
        if E_start - E <= config.rel_tol * E_start:
            stop_reason = "converged"
            break
    else:
        stop_reason = "max_iters"
    T, E = _sweep(T, E, rows[:1], cost)  # a move after the last sweep's cycle removal can close a cycle

    return T, replace(verify_solution(T, mu_minus, mu_plus, cost), iterations=iters, stop_reason=stop_reason,
                      last_gain=last_gain)


def verify_solution(
    T: Chain1,
    mu_minus: Chain0,
    mu_plus: Chain0,
    cost: CostSpec,
    eps_bnd: float = 1e-8,
) -> SolutionReport:
    """Certify a produced network: boundary residual (flat upper bound of
    divergence minus target, positions in units of the target's L) at most
    ``eps_bnd`` S, per-component acyclicity, and mass controlled by energy."""
    if not T.canonical:
        T = canonicalize(T)
    target = mu_minus - mu_plus
    L, S = pow2_scale(target.P, extent=True), pow2_scale(target.W)
    R = divergence(T) - target
    residual = flat_bounds(Chain0.from_arrays(R.n, R.m, R.P / L, R.W)).upper  # flat_bounds canonicalizes it
    tol = _flow_tol(T.Theta)
    acyclic = tuple(_find_directed_cycle(len(T.V), _arcs(T.ij, T.Theta[:, j], tol)[0]) is None for j in range(T.m))

    bm = mass(canonicalize0(target))
    E = energy(T, cost)
    M = mass(T)
    cconst = mass_bound_constant(cost, bm) if bm > 0 else 0.0
    mass_ok = bool(M <= cconst * E * (1 + 1e-9) + 1e-12 * L * S)
    return SolutionReport(E, M, float(residual), acyclic, mass_ok, cconst, 0, eps_bnd * S)


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
    if not len(nu.P):
        return 0.0

    best = math.inf
    if grid is None:
        try:
            grid = shifted_grid(*bounding_cube(nu.P), [mu_minus, mu_plus], k_max=max(K + 1, 8))
        except GridShiftError as exc:
            warnings.warn(f"w_upper: {exc}; the bound comes from local search alone", stacklevel=2)
    if grid is not None:
        best = energy(cascade(mu_minus, mu_plus, grid, min(K, grid.k_max - 1)).chain, cost)

    return min(best, local_search(mu_minus, mu_plus, cost, config or OptimizerConfig())[1].energy)
