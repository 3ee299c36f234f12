"""Polyhedral 0- and 1-chains with vector multiplicities.

A ``Chain1`` is a finite list of oriented segments, each carrying a
multiplicity vector in R^m (one signed flow value per commodity), stored as
three arrays: tails ``A`` and heads ``B`` (E x n) and multiplicities
``Theta`` (E x m).  A ``Chain0`` is a finite atomic vector-valued measure,
stored as positions ``P`` (k x n) and weights ``W`` (k x m).  Canonical
chains have non-overlapping edges (segments meet at most at endpoints),
deterministic edge orientation and no negligible multiplicities (none
within ``EPS_MULT_REL`` times the longest), so that equality, boundary,
mass and energy are all well defined representation-independently.

All values are immutable after construction: ``from_arrays`` copies its
input into read-only float64 arrays, checked once for shape and
finiteness, and every operation is a pure function returning new values.
The ``Edge``/``Atom`` tuples of ``.edges``/``.atoms`` are views built on
first use, and so is a chain's graph ``V``/``ij`` (see ``Chain1.V``),
from which every incidence-based operation reads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

EPS_GEOM = 1e-9  # snapping and splitting tolerance of canonicalization
EPS_MULT_REL = 1e-12
EPS_COMPAT = 1e-9  # per-component total weights this close are equal


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


def _read_only(X, d: int, what: str) -> np.ndarray:
    """A read-only float64 copy of X with shape (k, d); an empty X gives (0, d)."""
    X = np.array(X, dtype=float)
    if X.size == 0:
        X = X.reshape(0, d)
    if X.ndim != 2 or X.shape[1] != d:
        raise ValueError(f"{what} dimension mismatch: expected (k, {d}), got {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError(f"non-finite {what} data")
    X.flags.writeable = False
    return X


class _Stored:
    """``n``, ``m`` and the read-only arrays named in ``_ARRAYS``, set once
    by ``from_arrays``; assignment raises, and equality compares the data."""

    _ARRAYS: tuple[str, ...] = ()

    @classmethod
    def _new(cls, **fields):
        self = object.__new__(cls)
        self.__dict__.update(fields)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.m) == (other.n, other.m) and all(
            np.array_equal(getattr(self, k), getattr(other, k)) for k in self._ARRAYS)

    def __sub__(self, other):
        return self + (-other)


class Chain0(_Stored):
    """Finite atomic R^m-valued measure: atom i sits at P[i] with weight W[i]."""

    _ARRAYS = ("P", "W")
    n: int
    m: int
    P: np.ndarray  # (k, n) positions
    W: np.ndarray  # (k, m) weights

    def __new__(cls, n: int, m: int, atoms: Iterable[Atom] = ()):
        atoms = tuple(atoms)
        return cls.from_arrays(n, m, [a.position for a in atoms], [a.weight for a in atoms])

    @classmethod
    def from_arrays(cls, n: int, m: int, P, W) -> "Chain0":
        """Measure from (k, n) positions and (k, m) weights, copied and
        checked for shape and finiteness."""
        P, W = _read_only(P, n, "atom"), _read_only(W, m, "atom")
        if len(P) != len(W):
            raise ValueError(f"atom count mismatch: {len(P)} positions, {len(W)} weights")
        return cls._new(n=n, m=m, P=P, W=W)

    @cached_property
    def atoms(self) -> tuple[Atom, ...]:
        """The atoms as ``Atom`` values, built on first use."""
        return tuple(map(Atom, self.P.tolist(), self.W.tolist()))

    def __hash__(self):
        return hash((self.n, self.m, self.atoms))

    def __repr__(self):
        return f"Chain0(n={self.n!r}, m={self.m!r}, atoms={self.atoms!r})"

    def __reduce__(self):  # pickle and copy go through from_arrays
        return Chain0.from_arrays, (self.n, self.m, self.P, self.W)

    def __add__(self, other: "Chain0") -> "Chain0":
        _check_dims(self, other)
        return Chain0.from_arrays(self.n, self.m, np.concatenate([self.P, other.P]),
                                  np.concatenate([self.W, other.W]))

    def __neg__(self) -> "Chain0":
        return Chain0.from_arrays(self.n, self.m, self.P, -self.W)

    def scaled(self, s: float) -> "Chain0":
        return Chain0.from_arrays(self.n, self.m, self.P, s * self.W)

    def total_weight(self) -> np.ndarray:
        """Componentwise total weight (the augmentation of the measure)."""
        out = np.zeros(self.m)
        for w in self.W:  # atom by atom, in order
            out += w
        return out


class Chain1(_Stored):
    """Polyhedral 1-chain with R^m multiplicities: edge i runs from A[i] to
    B[i] and carries Theta[i]."""

    _ARRAYS = ("A", "B", "Theta")
    n: int
    m: int
    A: np.ndarray  # (E, n) tails
    B: np.ndarray  # (E, n) heads
    Theta: np.ndarray  # (E, m) multiplicities
    canonical: bool

    def __new__(cls, n: int, m: int, edges: Iterable[Edge] = (), canonical: bool = False):
        edges = tuple(edges)
        return cls.from_arrays(n, m, [e.a for e in edges], [e.b for e in edges], [e.theta for e in edges],
                               canonical)

    @classmethod
    def from_arrays(cls, n: int, m: int, A, B, Theta, canonical: bool = False) -> "Chain1":
        """Chain from (E, n) tails and heads and (E, m) multiplicities,
        copied and checked for shape and finiteness.  ``canonical`` is the
        caller's promise that the edges are in canonical form."""
        A, B, Theta = _read_only(A, n, "edge"), _read_only(B, n, "edge"), _read_only(Theta, m, "edge")
        if not len(A) == len(B) == len(Theta):
            raise ValueError(f"edge count mismatch: {len(A)} tails, {len(B)} heads, {len(Theta)} multiplicities")
        return cls._new(n=n, m=m, A=A, B=B, Theta=Theta, canonical=canonical)

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """The edges as ``Edge`` values, built on first use."""
        return tuple(map(Edge, self.A.tolist(), self.B.tolist(), self.Theta.tolist()))

    def __hash__(self):
        return hash((self.n, self.m, self.edges))

    def __repr__(self):
        return f"Chain1(n={self.n!r}, m={self.m!r}, edges={self.edges!r}, canonical={self.canonical!r})"

    def __reduce__(self):  # pickle and copy go through from_arrays
        return Chain1.from_arrays, (self.n, self.m, self.A, self.B, self.Theta, self.canonical)

    def __add__(self, other: "Chain1") -> "Chain1":
        _check_dims(self, other)
        return Chain1.from_arrays(self.n, self.m, np.concatenate([self.A, other.A]),
                                  np.concatenate([self.B, other.B]), np.concatenate([self.Theta, other.Theta]))

    def __neg__(self) -> "Chain1":
        return Chain1.from_arrays(self.n, self.m, self.A, self.B, -self.Theta, self.canonical)

    @cached_property
    def _graph(self) -> tuple[np.ndarray, np.ndarray]:
        V, ids = _unique_rows(np.stack([self.A, self.B], axis=1).reshape(-1, self.n))  # a0, b0, a1, b1, ...
        ij = ids.reshape(-1, 2)
        V.flags.writeable = ij.flags.writeable = False
        return V, ij

    @property
    def V(self) -> np.ndarray:
        """(k, n) distinct endpoints in lexicographic order, built on first use
        with ``ij``.  Endpoints equal as floats (0.0 and -0.0 too) are one
        vertex, represented by its first occurrence among a0, b0, a1, b1, ..."""
        return self._graph[0]

    @property
    def ij(self) -> np.ndarray:
        """(E, 2) vertex ids: edge i runs from V[ij[i, 0]] to V[ij[i, 1]]."""
        return self._graph[1]

    def lengths(self) -> np.ndarray:
        """Edge lengths, each as ``math.dist`` gives it."""
        return np.array([math.dist(a, b) for a, b in zip(self.A.tolist(), self.B.tolist())], dtype=float)


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


def _unique_rows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct rows of X in lexicographic order, each row's index among
    them): ``np.unique(axis=0, return_inverse=True)`` at a third of its cost.
    A stable sort keeps equal rows (0.0 and -0.0 too) in order, so each
    distinct row is its first occurrence."""
    order = np.lexsort(X.T[::-1])
    X = X[order]
    first = np.ones(len(X), dtype=bool)
    first[1:] = np.any(X[1:] != X[:-1], axis=1)
    ids = np.empty(len(X), dtype=int)
    ids[order] = np.cumsum(first) - 1
    return X[first], ids


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
        self.h = 4.0 * eps
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

def _segment_interactions(A: np.ndarray, B: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Split points ``(edge, t)`` of the edges A[i] -> B[i] from pairwise
    interactions, as flat arrays in no particular order, repeats included:
    edge ``edge[k]`` splits at ``t[k]`` in (0, 1), more than eps from its ends.

    Handles collinear overlaps (projecting the partner's endpoints), proper
    transverse crossings, and T-junctions (an endpoint of one edge interior
    to another).  Pairs are tested with array masks, in blocks, after a
    bounding-box rejection test.
    """
    lo = np.minimum(A, B) - eps
    hi = np.maximum(A, B) + eps
    D = B - A
    L = np.linalg.norm(D, axis=1)
    U = D / L[:, None]

    edges, ts = [np.empty(0, dtype=int)], [np.empty(0)]  # candidates, the interior ones kept at the end
    ii_all, jj_all = np.triu_indices(len(A), 1)
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
            edges += [ii[tv][near], jj[tv][near]]
            ts += [ti[near], tj[near]]

        # parallel pairs: collinear overlap iff the line offset vanishes
        pl = np.nonzero(parallel)[0]
        if len(pl):
            perp = w[pl] - np.sum(w[pl] * ui[pl], axis=1)[:, None] * ui[pl]
            coll = pl[np.linalg.norm(perp, axis=1) <= eps]
            ci, cj = ii[coll], jj[coll]
            e = np.concatenate([ci, ci, cj, cj])
            edges.append(e)
            ts.append(row_dots(np.concatenate([A[cj], B[cj], A[ci], B[ci]]) - A[e], U[e]) / L[e])
    e, t = np.concatenate(edges), np.concatenate(ts)
    inside = (eps / L[e] < t) & (t < 1.0 - eps / L[e])
    return e[inside], t[inside]


def canonicalize(T: Chain1) -> Chain1:
    """Return an equivalent canonical chain.

    Endpoints within ``EPS_GEOM`` are snapped together, edges are split at
    mutual intersections/overlap endpoints, coincident sub-segments are
    merged by summing multiplicities (sign-adjusted: flipping orientation
    negates theta), and negligible edges are dropped: those no longer than
    ``EPS_MULT_REL`` times the longest multiplicity, input or merged.
    Idempotent; preserves boundary and can only decrease mass.
    """
    reg = _PointRegistry(T.n, EPS_GEOM)
    lines, rows = [], []  # each kept edge as the list of its points, tail to head
    for i, (a, b) in enumerate(zip(T.A.tolist(), T.B.tolist())):
        if a == b:
            raise DegenerateEdgeError(f"degenerate edge at {tuple(a)}")
        a, b = reg.snap(a), reg.snap(b)
        if a != b:  # a pair collapsed by snapping is below resolution: drop it
            lines.append([a, b])
            rows.append(i)
    if not rows:
        return Chain1.from_arrays(T.n, T.m, (), (), (), canonical=True)
    A, B = np.array(lines).swapaxes(0, 1)

    # split every edge at its cuts, in order of (edge, t); cuts closer than
    # EPS_GEOM to the last one kept are dropped, and new points are snapped
    cuts, _ = _unique_rows(np.column_stack(_segment_interactions(A, B, EPS_GEOM)))
    for k, cut in itertools.groupby(cuts.tolist(), lambda c: int(c[0])):
        tol = EPS_GEOM / math.dist(*lines[k])
        kept: list[float] = []
        for _, t in cut:
            if not kept or t - kept[-1] > tol:
                kept.append(t)
        lines[k][1:1] = [reg.snap(A[k] + t * (B[k] - A[k])) for t in kept]

    # a piece joins consecutive points of a line, unless snapping made them equal
    P = np.array([p for line in lines for p in line])
    row = np.repeat(rows, [len(line) for line in lines])
    i = np.flatnonzero((row[:-1] == row[1:]) & np.any(P[:-1] != P[1:], axis=1))
    Pa, Pb, Theta = P[i], P[i + 1], T.Theta[row[i]]

    # orient each piece from its lexicographically smaller end, then merge
    at = np.arange(len(i)), np.argmax(Pa != Pb, axis=1)
    flip = (Pa[at] > Pb[at])[:, None]
    keys = np.where(flip, np.hstack([Pb, Pa]), np.hstack([Pa, Pb]))
    ends, Theta = _merge_rows(keys, np.where(flip, -Theta, Theta))
    return Chain1.from_arrays(T.n, T.m, ends[:, : T.n], ends[:, T.n :], Theta, canonical=True)


def canonicalize0(mu: Chain0) -> Chain0:
    """Merge atoms within ``EPS_GEOM`` of each other, in lexicographic order,
    and drop negligible ones: those whose merged weight is no longer than
    ``EPS_MULT_REL`` times the longest weight, input or merged.  Idempotent."""
    if not len(mu.P):
        return mu
    reg = _PointRegistry(mu.n, EPS_GEOM)
    P, W = _merge_rows(np.array([reg.snap(p) for p in mu.P.tolist()]), mu.W)
    return Chain0.from_arrays(mu.n, mu.m, P, W)


def _merge_rows(keys: np.ndarray, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct rows of keys in lexicographic order, the sum of W's rows
    under each), for the significant sums only.  Each sum adds its rows in
    order from -0.0, which keeps a first term bit for bit, signed zeros too.
    Sums count as inputs of the threshold, so a second pass keeps every row."""
    K, ids = _unique_rows(keys)
    S = np.full((len(K), W.shape[1]), -0.0)
    np.add.at(S, ids, W)
    keep = _significant(S, np.concatenate([W, S]))
    return K[keep], S[keep]


def _significant(W: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Which rows of W are longer than the relative tolerance of the longest input row."""
    eps_w = EPS_MULT_REL * float(np.sqrt(row_dots(inputs, inputs)).max(initial=0.0))
    return np.sqrt(row_dots(W, W)) > eps_w


# ---------------------------------------------------------------------------
# boundary / divergence / mass

def _vertex_weights(T: Chain1) -> np.ndarray:
    """(k, m) net weight at each vertex ``T.V[k]``: the sum over edges, in
    order, of +theta at the head and then -theta at the tail.  Sums start
    from -0.0, which keeps the first term bit for bit, even a signed zero."""
    W = np.full((len(T.V), T.m), -0.0)
    np.add.at(W, T.ij[:, ::-1].ravel(), np.stack([T.Theta, -T.Theta], axis=1).reshape(-1, T.m))
    return W


def boundary(T: Chain1) -> Chain0:
    """Boundary 0-chain: sum over edges of theta * (delta_b - delta_a)."""
    W = _vertex_weights(T)
    keep = _significant(W, T.Theta)
    return Chain0.from_arrays(T.n, T.m, T.V[keep], W[keep])


def divergence(T: Chain1) -> Chain0:
    """Net vertex inflow: div T = -boundary(T); equals mu- - mu+ for a flux."""
    return -boundary(T)


def mass(X: Chain0 | Chain1) -> float:
    """Total mass: Euclidean norm of multiplicities, weighted by length."""
    if isinstance(X, Chain0):
        return float(sum(np.sqrt(row_dots(X.W, X.W)).tolist()))
    return float(sum((np.sqrt(row_dots(X.Theta, X.Theta)) * X.lengths()).tolist()))


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


def restrict(T: Chain1, box: Box, complement: bool = False) -> Chain1:
    """Clip T to a closed box (or to its open complement).

    Sub-segments inside are retained with endpoints placed exactly on the
    box faces, so restrict(T, B) + restrict(T, B, complement=True)
    canonically equals T.
    """
    A, B, D = T.A, T.B, T.B - T.A
    lo, hi = np.array(box.lo), np.array(box.hi)
    flat = D == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ta, tb = (lo - A) / D, (hi - A) / D
    t0 = np.max(np.where(flat, 0.0, np.minimum(ta, tb)), axis=1, initial=0.0)
    t1 = np.min(np.where(flat, 1.0, np.maximum(ta, tb)), axis=1, initial=1.0)
    hit = (t0 < t1) & ~np.any(flat & ((A < lo) | (A > hi)), axis=1)
    cut0, cut1 = hit & (t0 > 0.0), hit & (t1 < 1.0)
    P0 = np.where(cut0[:, None], A + t0[:, None] * D, A)
    P1 = np.where(cut1[:, None], A + t1[:, None] * D, B)
    if complement:  # per edge: the piece before t0 (the whole edge if it misses), then the piece after t1
        keep = np.stack([~hit | cut0, cut1], axis=1)
        tails = np.stack([A, P1], axis=1)[keep]
        heads = np.stack([np.where(hit[:, None], P0, B), B], axis=1)[keep]
        return Chain1.from_arrays(T.n, T.m, tails, heads, np.repeat(T.Theta, keep.sum(axis=1), axis=0),
                                  canonical=T.canonical)
    keep = hit & np.any(P0 != P1, axis=1)
    return Chain1.from_arrays(T.n, T.m, P0[keep], P1[keep], T.Theta[keep], canonical=T.canonical)


def restrict0(mu: Chain0, box: Box, complement: bool = False) -> Chain0:
    keep = np.array([box.contains(p) != complement for p in mu.P.tolist()], dtype=bool)
    return Chain0.from_arrays(mu.n, mu.m, mu.P[keep], mu.W[keep])


def restrict_halfspace(T: Chain1, g: Sequence[float], c: float, y: float) -> Chain1:
    """Clip T to the halfspace {x : g.x + c <= y}, splitting crossing edges."""
    G = np.broadcast_to(np.array(g, dtype=float), T.A.shape)
    fa, fb = row_dots(T.A, G) + c, row_dots(T.B, G) + c
    ina, inb = fa <= y, fb <= y
    cross = ina != inb
    with np.errstate(divide="ignore", invalid="ignore"):
        Z = T.A + ((y - fa) / (fb - fa))[:, None] * (T.B - T.A)
    P = np.where((cross & inb)[:, None], Z, T.A)
    Q = np.where((cross & ina)[:, None], Z, T.B)
    keep = (ina | inb) & ~(cross & np.all(P == Q, axis=1))
    return Chain1.from_arrays(T.n, T.m, P[keep], Q[keep], T.Theta[keep], canonical=T.canonical)


# ---------------------------------------------------------------------------
# components, pieces, compatibility

def component_lift(T: Chain1, j: int) -> Chain1:
    """Chain keeping only commodity j's multiplicities (others zeroed).

    Summing the lifts over j recovers the original chain.
    """
    if not 0 <= j < T.m:
        raise IndexError(f"component {j} out of range for m={T.m}")
    keep = T.Theta[:, j] != 0.0
    Theta = np.zeros((int(keep.sum()), T.m))
    Theta[:, j] = T.Theta[keep, j]
    return Chain1.from_arrays(T.n, T.m, T.A[keep], T.B[keep], Theta, canonical=T.canonical)


def component_lift0(mu: Chain0, j: int) -> Chain0:
    if not 0 <= j < mu.m:
        raise IndexError(f"component {j} out of range for m={mu.m}")
    keep = mu.W[:, j] != 0.0
    W = np.zeros((int(keep.sum()), mu.m))
    W[:, j] = mu.W[keep, j]
    return Chain0.from_arrays(mu.n, mu.m, mu.P[keep], W)


def _common_refinement(Tp: Chain1, T: Chain1):
    """Refine both chains onto shared sub-segments.

    Stacks the two multiplicity vectors into R^{2m} and canonicalizes the
    combined chain, so each resulting edge carries (theta', theta) blocks.
    """
    m, k = T.m, len(Tp.Theta)
    stacked = np.zeros((k + len(T.Theta), 2 * m))
    stacked[:k, :m] = Tp.Theta
    stacked[k:, m:] = T.Theta
    combined = Chain1.from_arrays(T.n, 2 * m, np.concatenate([Tp.A, T.A]), np.concatenate([Tp.B, T.B]), stacked)
    return canonicalize(combined)


def is_piece(Tp: Chain1, T: Chain1, eps: float = 1e-9) -> bool:
    """Whether Tp is a piece of T: per component, a sign-compatible
    sub-flow with |theta'_j| <= |theta_j| edgewise on the common refinement.
    """
    _check_dims(Tp, T)
    R = _common_refinement(Tp, T).Theta
    tp, t = R[:, : T.m], R[:, T.m :]
    bad = (np.abs(tp) > eps) & ((tp * t < 0.0) | (np.abs(tp) > np.abs(t) + eps))
    return not bad.any()


def is_compatible(mu_minus: Chain0, mu_plus: Chain0) -> bool:
    """Flux existence criterion: per-component totals agree within ``EPS_COMPAT``."""
    _check_dims(mu_minus, mu_plus)
    diff = mu_minus.total_weight() - mu_plus.total_weight()
    return bool(np.all(np.abs(diff) <= EPS_COMPAT))


# ---------------------------------------------------------------------------
# equality helpers

def chains_close(S: Chain1, T: Chain1, tol: float = 1e-9) -> bool:
    """Canonical equality of 1-chains up to multiplicity tolerance."""
    Theta = canonicalize(S - T).Theta
    return bool(np.all(np.sqrt(row_dots(Theta, Theta)) <= tol))


def chain0_close(a: Chain0, b: Chain0, tol: float = 1e-9) -> bool:
    """Canonical equality of 0-chains up to atom-weight tolerance."""
    W = canonicalize0(a - b).W
    return bool(np.all(np.sqrt(row_dots(W, W)) <= tol))
