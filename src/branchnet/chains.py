"""Polyhedral 0- and 1-chains with vector multiplicities.

A ``Chain1`` is a finite list of oriented segments, each carrying a
multiplicity vector in R^m (one signed flow value per commodity); a
``Chain0`` is a finite atomic vector-valued measure.  Canonical chains have
non-overlapping edges (segments meet at most at endpoints), deterministic
edge orientation and no zero multiplicities, so that equality, boundary,
mass and energy are all well defined representation-independently.

All values are immutable after construction and every operation is a pure
function returning new values.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

DEFAULT_EPS_GEOM = 1e-9
EPS_MULT_REL = 1e-12


class DegenerateEdgeError(ValueError):
    """Raised when an edge's endpoints coincide within tolerance."""


@dataclass(frozen=True)
class Atom:
    position: tuple[float, ...]
    weight: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "position", tuple(float(c) for c in self.position))
        object.__setattr__(self, "weight", tuple(float(c) for c in self.weight))
        if not all(math.isfinite(c) for c in self.position + self.weight):
            raise ValueError("non-finite atom data")


@dataclass(frozen=True)
class Edge:
    a: tuple[float, ...]
    b: tuple[float, ...]
    theta: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(float(c) for c in self.a))
        object.__setattr__(self, "b", tuple(float(c) for c in self.b))
        object.__setattr__(self, "theta", tuple(float(c) for c in self.theta))
        if not all(math.isfinite(c) for c in self.a + self.b + self.theta):
            raise ValueError("non-finite edge data")

    @property
    def length(self) -> float:
        return math.dist(self.a, self.b)


@dataclass(frozen=True)
class Chain0:
    """Finite atomic R^m-valued measure."""

    n: int
    m: int
    atoms: tuple[Atom, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))
        for at in self.atoms:
            if len(at.position) != self.n or len(at.weight) != self.m:
                raise ValueError("atom dimension mismatch")

    def __add__(self, other: "Chain0") -> "Chain0":
        _check_dims(self, other)
        return Chain0(self.n, self.m, self.atoms + other.atoms)

    def __neg__(self) -> "Chain0":
        return Chain0(self.n, self.m, tuple(Atom(a.position, tuple(-w for w in a.weight)) for a in self.atoms))

    def __sub__(self, other: "Chain0") -> "Chain0":
        return self + (-other)

    def scaled(self, s: float) -> "Chain0":
        return Chain0(self.n, self.m, tuple(Atom(a.position, tuple(s * w for w in a.weight)) for a in self.atoms))

    def total_weight(self) -> np.ndarray:
        """Componentwise total weight (the augmentation of the measure)."""
        out = np.zeros(self.m)
        for a in self.atoms:
            out += a.weight
        return out


@dataclass(frozen=True)
class Chain1:
    """Polyhedral 1-chain with R^m multiplicities."""

    n: int
    m: int
    edges: tuple[Edge, ...] = ()
    canonical: bool = field(default=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(self.edges))
        for e in self.edges:
            if len(e.a) != self.n or len(e.b) != self.n or len(e.theta) != self.m:
                raise ValueError("edge dimension mismatch")

    def __add__(self, other: "Chain1") -> "Chain1":
        _check_dims(self, other)
        return Chain1(self.n, self.m, self.edges + other.edges, canonical=False)

    def __neg__(self) -> "Chain1":
        return Chain1(
            self.n,
            self.m,
            tuple(Edge(e.a, e.b, tuple(-t for t in e.theta)) for e in self.edges),
            canonical=self.canonical,
        )

    def __sub__(self, other: "Chain1") -> "Chain1":
        return self + (-other)

    def vertices(self) -> set[tuple[float, ...]]:
        out: set[tuple[float, ...]] = set()
        for e in self.edges:
            out.add(e.a)
            out.add(e.b)
        return out


def _check_dims(x, y) -> None:
    if x.n != y.n or x.m != y.m:
        raise ValueError(f"dimension mismatch: ({x.n},{x.m}) vs ({y.n},{y.m})")


def row_dots(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (k, d) arrays through a stacked matmul.

    Each row runs the same dot kernel as ``np.dot`` of two vectors, so
    ``np.sqrt(row_dots(X, X))`` equals ``np.linalg.norm`` of each row bit
    for bit; ``X @ y`` and ``norm(axis=1)`` use other kernels and can
    differ in the last bit.
    """
    return np.matmul(X[:, None, :], Y[:, :, None])[:, 0, 0]


def _norms(vectors, d: int) -> np.ndarray:
    """Euclidean norm of each length-d vector, as np.linalg.norm gives it."""
    X = np.array(vectors, dtype=float).reshape(len(vectors), d)
    return np.sqrt(row_dots(X, X))


# ---------------------------------------------------------------------------
# point snapping

class _PointRegistry:
    """Snaps nearby points to a single representative.

    Uses a uniform hash grid with cell size 4*eps: a point within eps of
    another lies in the same cell or, along each axis, in the neighbour
    across a face it is within eps of.  A lookup probes only those cells,
    in lexicographic order of their offsets, so registered points are
    visited in the same relative order as a full 3^n probe would visit them.
    """

    # a point within eps of a face lies within eps/h = 1/4 cell of it in
    # c/h, since rounding c/h is monotone; the slack covers a distance that
    # is <= eps only after rounding, which can move c/h one ulp past 1/4
    _FACE = 0.25 + 1e-12
    _ULP = 2.0**-51

    def __init__(self, n: int, eps: float):
        self.n = n
        self.eps = eps
        self.h = 4.0 * eps if eps > 0 else 1e-30
        self.cells: dict[tuple[int, ...], list[tuple[float, ...]]] = {}

    def snap(self, p: Sequence[float]) -> tuple[float, ...]:
        pt = tuple(float(c) for c in p)
        base = []
        probes = []
        for c in pt:
            u = c / self.h
            k = math.floor(u)
            f = u - k
            reach = self._FACE + abs(u) * self._ULP
            base.append(k)
            probes.append((k - 1,) * (f <= reach) + (k,) + (k + 1,) * (f >= 1.0 - reach))
        best = None
        best_d = self.eps
        for cell in itertools.product(*probes):
            for q in self.cells.get(cell, ()):
                d = math.dist(pt, q)
                if d <= best_d:
                    best, best_d = q, d
        if best is not None:
            return best
        self.cells.setdefault(tuple(base), []).append(pt)
        return pt


# ---------------------------------------------------------------------------
# canonicalization

def _segment_interactions(edges: list[Edge], eps: float) -> list[list[float]]:
    """Split parameters in (0,1) for each edge from pairwise interactions.

    Handles collinear overlaps (projecting the partner's endpoints), proper
    transverse crossings, and T-junctions (an endpoint of one edge interior
    to another).  Pairs are processed in vectorized blocks after a
    bounding-box rejection test.
    """
    ne = len(edges)
    splits: list[list[float]] = [[] for _ in range(ne)]
    if ne < 2:
        return splits

    A = np.array([e.a for e in edges])
    B = np.array([e.b for e in edges])
    lo = np.minimum(A, B) - eps
    hi = np.maximum(A, B) + eps
    D = B - A
    L = np.linalg.norm(D, axis=1)
    U = D / L[:, None]

    ii_all, jj_all = np.triu_indices(ne, 1)
    block = 1 << 20
    for start in range(0, len(ii_all), block):
        ii = ii_all[start : start + block]
        jj = jj_all[start : start + block]
        overlap = np.all(lo[ii] <= hi[jj], axis=1) & np.all(lo[jj] <= hi[ii], axis=1)
        ii, jj = ii[overlap], jj[overlap]
        if not len(ii):
            continue
        ui, uj = U[ii], U[jj]
        w = A[jj] - A[ii]
        cosa = np.sum(ui * uj, axis=1)
        denom = 1.0 - cosa * cosa
        parallel = np.abs(denom) < 1e-12

        # transverse pairs: closest points of the two supporting lines
        tv = np.nonzero(~parallel)[0]
        if len(tv):
            wu_i = np.sum(w[tv] * ui[tv], axis=1)
            wu_j = np.sum(w[tv] * uj[tv], axis=1)
            dn = denom[tv]
            s = (wu_i - cosa[tv] * wu_j) / dn
            t = (cosa[tv] * wu_i - wu_j) / dn
            gap = np.linalg.norm(
                A[ii[tv]] + s[:, None] * ui[tv] - A[jj[tv]] - t[:, None] * uj[tv], axis=1
            )
            Li, Lj = L[ii[tv]], L[jj[tv]]
            ti, tj = s / Li, t / Lj
            near = (
                (gap <= eps)
                & (ti > -eps / Li) & (ti < 1.0 + eps / Li)
                & (tj > -eps / Lj) & (tj < 1.0 + eps / Lj)
            )
            for k in np.nonzero(near)[0]:
                i, j = int(ii[tv[k]]), int(jj[tv[k]])
                if eps / L[i] < ti[k] < 1.0 - eps / L[i]:
                    splits[i].append(float(ti[k]))
                if eps / L[j] < tj[k] < 1.0 - eps / L[j]:
                    splits[j].append(float(tj[k]))

        # parallel pairs: collinear overlap iff the line offset vanishes
        pl = np.nonzero(parallel)[0]
        if len(pl):
            perp = w[pl] - np.sum(w[pl] * ui[pl], axis=1)[:, None] * ui[pl]
            coll = np.linalg.norm(perp, axis=1) <= eps
            for k in np.nonzero(coll)[0]:
                i, j = int(ii[pl[k]]), int(jj[pl[k]])
                for edge, other in ((i, j), (j, i)):
                    for endpoint in (A[other], B[other]):
                        t = float(np.dot(endpoint - A[edge], U[edge])) / L[edge]
                        if eps / L[edge] < t < 1.0 - eps / L[edge]:
                            splits[edge].append(t)
    return splits


def canonicalize(T: Chain1, eps_geom: float = DEFAULT_EPS_GEOM) -> Chain1:
    """Return an equivalent canonical chain.

    Endpoints within ``eps_geom`` are snapped together, edges are split at
    mutual intersections/overlap endpoints, coincident sub-segments are
    merged by summing multiplicities (sign-adjusted: flipping orientation
    negates theta), and edges with negligible multiplicity are dropped.
    Idempotent; preserves boundary and can only decrease mass.
    """
    if eps_geom <= 0:
        raise ValueError("eps_geom must be positive")
    if not T.edges:
        return Chain1(T.n, T.m, (), canonical=True)

    reg = _PointRegistry(T.n, eps_geom)
    snapped: list[Edge] = []
    for e in T.edges:
        if e.a == e.b:
            raise DegenerateEdgeError(f"degenerate edge at {e.a}")
        a = reg.snap(e.a)
        b = reg.snap(e.b)
        if a == b:
            continue  # collapsed by snapping: length below resolution, drop
        snapped.append(Edge(a, b, e.theta))
    if not snapped:
        return Chain1(T.n, T.m, (), canonical=True)
    eps_mult = EPS_MULT_REL * float(_norms([e.theta for e in snapped], T.m).max())

    splits = _segment_interactions(snapped, eps_geom)

    # split every edge at its parameter list, snapping new interior points
    pieces: list[Edge] = []
    for e, tlist in zip(snapped, splits):
        if not tlist:
            pieces.append(e)
            continue
        a = np.array(e.a)
        d = np.array(e.b) - a
        cuts = sorted(set(tlist))
        merged_cuts: list[float] = []
        tol = eps_geom / e.length
        for t in cuts:
            if not merged_cuts or t - merged_cuts[-1] > tol:
                merged_cuts.append(t)
        pts = [e.a]
        for t in merged_cuts:
            pts.append(reg.snap(a + t * d))
        pts.append(e.b)
        for p, q in zip(pts, pts[1:]):
            if p != q:
                pieces.append(Edge(p, q, e.theta))

    # canonical orientation and merge of coincident segments
    acc: dict[tuple[tuple[float, ...], tuple[float, ...]], np.ndarray] = {}
    for e in pieces:
        a, b, th = e.a, e.b, np.array(e.theta)
        if a > b:
            a, b, th = b, a, -th
        key = (a, b)
        if key in acc:
            acc[key] += th
        else:
            acc[key] = th

    keep = _norms(list(acc.values()), T.m) > eps_mult
    out = [Edge(a, b, tuple(th)) for ((a, b), th), k in zip(acc.items(), keep) if k]
    out.sort(key=lambda e: (e.a, e.b))
    return Chain1(T.n, T.m, tuple(out), canonical=True)


def canonicalize0(mu: Chain0, eps_geom: float = DEFAULT_EPS_GEOM) -> Chain0:
    """Merge atoms at coincident positions and drop negligible weights."""
    if not mu.atoms:
        return mu
    reg = _PointRegistry(mu.n, eps_geom)
    acc: dict[tuple[float, ...], np.ndarray] = {}
    for a in mu.atoms:
        p = reg.snap(a.position)
        if p in acc:
            acc[p] += a.weight
        else:
            acc[p] = np.array(a.weight)
    return _significant_atoms(mu.n, mu.m, acc, [a.weight for a in mu.atoms])


def _significant_atoms(n: int, m: int, acc: dict, inputs: list) -> Chain0:
    """Atoms of ``acc`` in sorted order, dropping weights within the
    relative tolerance of the largest input weight."""
    eps_w = EPS_MULT_REL * float(_norms(inputs, m).max(initial=0.0))
    items = sorted(acc.items())
    keep = _norms([w for _, w in items], m) > eps_w
    return Chain0(n, m, tuple(Atom(p, tuple(w)) for (p, w), k in zip(items, keep) if k))


# ---------------------------------------------------------------------------
# boundary / divergence / mass

def boundary(T: Chain1) -> Chain0:
    """Boundary 0-chain: sum over edges of theta * (delta_b - delta_a)."""
    acc: dict[tuple[float, ...], np.ndarray] = {}
    for e in T.edges:
        th = np.array(e.theta)
        for p, s in ((e.b, 1.0), (e.a, -1.0)):
            if p in acc:
                acc[p] += s * th
            else:
                acc[p] = s * th
    return _significant_atoms(T.n, T.m, acc, [e.theta for e in T.edges])


def divergence(T: Chain1) -> Chain0:
    """Net vertex inflow: div T = -boundary(T); equals mu- - mu+ for a flux."""
    return -boundary(T)


def mass(X: Chain0 | Chain1) -> float:
    """Total mass: Euclidean norm of multiplicities, weighted by length."""
    if isinstance(X, Chain0):
        return float(sum(_norms([a.weight for a in X.atoms], X.m).tolist()))
    lengths = [e.length for e in X.edges]
    return float(sum((_norms([e.theta for e in X.edges], X.m) * lengths).tolist()))


# ---------------------------------------------------------------------------
# restriction

@dataclass(frozen=True)
class Box:
    """Axis-aligned closed box [lo, hi]."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "lo", tuple(float(c) for c in self.lo))
        object.__setattr__(self, "hi", tuple(float(c) for c in self.hi))
        if any(l > h for l, h in zip(self.lo, self.hi)):
            raise ValueError("box with lo > hi")

    def contains(self, p: Sequence[float]) -> bool:
        return all(l <= c <= h for c, l, h in zip(p, self.lo, self.hi))


def _clip_param_interval(a: np.ndarray, b: np.ndarray, box: Box) -> tuple[float, float] | None:
    """Parameter range [t0,t1] of segment a->b inside the closed box."""
    t0, t1 = 0.0, 1.0
    d = b - a
    for i in range(len(a)):
        if d[i] == 0.0:
            if not (box.lo[i] <= a[i] <= box.hi[i]):
                return None
            continue
        ta = (box.lo[i] - a[i]) / d[i]
        tb = (box.hi[i] - a[i]) / d[i]
        if ta > tb:
            ta, tb = tb, ta
        t0 = max(t0, ta)
        t1 = min(t1, tb)
        if t0 >= t1:
            return None
    return (t0, t1)


def restrict(T: Chain1, box: Box, complement: bool = False) -> Chain1:
    """Clip T to a closed box (or to its open complement).

    Sub-segments inside are retained with endpoints placed exactly on the
    box faces, so restrict(T, B) + restrict(T, B, complement=True)
    canonically equals T.
    """
    out: list[Edge] = []
    for e in T.edges:
        a = np.array(e.a)
        b = np.array(e.b)
        iv = _clip_param_interval(a, b, box)
        if iv is None:
            if complement:
                out.append(e)
            continue
        t0, t1 = iv
        p0 = tuple(a + t0 * (b - a)) if t0 > 0.0 else e.a
        p1 = tuple(a + t1 * (b - a)) if t1 < 1.0 else e.b
        if complement:
            if t0 > 0.0:
                out.append(Edge(e.a, p0, e.theta))
            if t1 < 1.0:
                out.append(Edge(p1, e.b, e.theta))
        else:
            if p0 != p1:
                out.append(Edge(p0, p1, e.theta))
    return Chain1(T.n, T.m, tuple(out), canonical=T.canonical)


def restrict0(mu: Chain0, box: Box, complement: bool = False) -> Chain0:
    atoms = tuple(a for a in mu.atoms if box.contains(a.position) != complement)
    return Chain0(mu.n, mu.m, atoms)


def restrict_halfspace(T: Chain1, g: Sequence[float], c: float, y: float) -> Chain1:
    """Clip T to the halfspace {x : g.x + c <= y}, splitting crossing edges."""
    gv = np.array(g, dtype=float)
    out: list[Edge] = []
    for e in T.edges:
        fa = float(gv @ e.a) + c
        fb = float(gv @ e.b) + c
        if fa <= y and fb <= y:
            out.append(e)
        elif fa > y and fb > y:
            continue
        else:
            t = (y - fa) / (fb - fa)
            z = tuple(np.array(e.a) + t * (np.array(e.b) - np.array(e.a)))
            if fa <= y:
                if z != e.a:
                    out.append(Edge(e.a, z, e.theta))
            else:
                if z != e.b:
                    out.append(Edge(z, e.b, e.theta))
    return Chain1(T.n, T.m, tuple(out), canonical=T.canonical)


# ---------------------------------------------------------------------------
# components, pieces, compatibility

def component_lift(T: Chain1, j: int) -> Chain1:
    """Chain keeping only commodity j's multiplicities (others zeroed).

    Summing the lifts over j recovers the original chain.
    """
    if not 0 <= j < T.m:
        raise IndexError(f"component {j} out of range for m={T.m}")
    out = []
    for e in T.edges:
        if e.theta[j] != 0.0:
            th = [0.0] * T.m
            th[j] = e.theta[j]
            out.append(Edge(e.a, e.b, tuple(th)))
    return Chain1(T.n, T.m, tuple(out), canonical=T.canonical)


def component_lift0(mu: Chain0, j: int) -> Chain0:
    if not 0 <= j < mu.m:
        raise IndexError(f"component {j} out of range for m={mu.m}")
    out = []
    for a in mu.atoms:
        if a.weight[j] != 0.0:
            w = [0.0] * mu.m
            w[j] = a.weight[j]
            out.append(Atom(a.position, tuple(w)))
    return Chain0(mu.n, mu.m, tuple(out))


def _common_refinement(Tp: Chain1, T: Chain1, eps_geom: float):
    """Refine both chains onto shared sub-segments.

    Stacks the two multiplicity vectors into R^{2m} and canonicalizes the
    combined chain, so each resulting edge carries (theta', theta) blocks.
    """
    m = T.m
    stacked = []
    for e in Tp.edges:
        stacked.append(Edge(e.a, e.b, e.theta + (0.0,) * m))
    for e in T.edges:
        stacked.append(Edge(e.a, e.b, (0.0,) * m + e.theta))
    combined = canonicalize(Chain1(T.n, 2 * m, tuple(stacked)), eps_geom)
    return combined


def is_piece(Tp: Chain1, T: Chain1, eps: float = 1e-9, eps_geom: float = DEFAULT_EPS_GEOM) -> bool:
    """Whether Tp is a piece of T: per component, a sign-compatible
    sub-flow with |theta'_j| <= |theta_j| edgewise on the common refinement.
    """
    _check_dims(Tp, T)
    m = T.m
    for e in _common_refinement(Tp, T, eps_geom).edges:
        tp = e.theta[:m]
        t = e.theta[m:]
        for j in range(m):
            if abs(tp[j]) <= eps:
                continue
            if tp[j] * t[j] < 0.0 or abs(tp[j]) > abs(t[j]) + eps:
                return False
    return True


def is_compatible(mu_minus: Chain0, mu_plus: Chain0, eps: float = 1e-9) -> bool:
    """Whether per-component total weights agree (flux existence criterion)."""
    _check_dims(mu_minus, mu_plus)
    diff = mu_minus.total_weight() - mu_plus.total_weight()
    return bool(np.all(np.abs(diff) <= eps))


# ---------------------------------------------------------------------------
# equality helpers

def chains_close(S: Chain1, T: Chain1, tol: float = 1e-9, eps_geom: float = DEFAULT_EPS_GEOM) -> bool:
    """Canonical equality of 1-chains up to multiplicity tolerance."""
    diff = canonicalize(S - T, eps_geom) if (S.edges or T.edges) else None
    if diff is None:
        return True
    return all(float(np.linalg.norm(e.theta)) <= tol for e in diff.edges)


def chain0_close(a: Chain0, b: Chain0, tol: float = 1e-9, eps_geom: float = DEFAULT_EPS_GEOM) -> bool:
    """Canonical equality of 0-chains up to atom-weight tolerance."""
    diff = canonicalize0(a - b, eps_geom)
    return all(float(np.linalg.norm(at.weight)) <= tol for at in diff.atoms)


def from_arrays(n: int, m: int, a: np.ndarray, b: np.ndarray, theta: np.ndarray, canonical: bool = False) -> Chain1:
    edges = tuple(Edge(tuple(a[i]), tuple(b[i]), tuple(theta[i])) for i in range(len(a)))
    return Chain1(n, m, edges, canonical=canonical)


def edge_arrays(T: Chain1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A, B, Theta) arrays of shape (E,n), (E,n), (E,m)."""
    if not T.edges:
        return (np.zeros((0, T.n)), np.zeros((0, T.n)), np.zeros((0, T.m)))
    A = np.array([e.a for e in T.edges])
    B = np.array([e.b for e in T.edges])
    Th = np.array([e.theta for e in T.edges])
    return A, B, Th
