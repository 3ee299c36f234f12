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

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

EPS_REL = 1e-9  # every length or weight tolerance is EPS_REL times the input's pow2_scale, unclamped
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

    def total_weight(self) -> np.ndarray:
        """Componentwise total weight (the augmentation), summed in atom order (``_sum_rows``)."""
        return _sum_rows(np.zeros(len(self.W), dtype=int), self.W, 1)[0]


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
        V, ids, _ = _unique_rows(np.concatenate([self.A, self.B], axis=1).reshape(-1, self.n))  # a0, b0, a1, b1, ...
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


def _norms(X: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis, bit for bit ``np.linalg.norm(X, axis=-1)`` without its wrapper.
    ``row_dots`` matches ``np.linalg.norm`` of one row instead, another kernel: never swap the two."""
    return np.sqrt(np.add.reduce(X * X, axis=-1))


def weight_norms(W: np.ndarray) -> np.ndarray:
    """The package's one norm of weight rows: each row is divided by 2^e, e the frexp exponent of its largest |entry|,
    which is exact, so no square leaves the float range.  ``np.sqrt(row_dots(W, W))`` bit for bit wherever those
    squares are normal, and each row's norm is its own in any batch."""
    e = np.frexp(np.abs(W).max(axis=1, initial=0.0))[1]
    Y = np.ldexp(W, -e[:, None])
    return np.ldexp(np.sqrt(row_dots(Y, Y)), e)


def pow2_scale(X: np.ndarray, extent: bool = False) -> float:
    """S of weights X, the least power of two >= max |X|, or with ``extent`` L of (k, n) points X, the least
    power of two >= their largest coordinate range; 1.0 for 0 or empty X.  Exact under 2^k scaling (frexp)."""
    frac, exp = math.frexp(float((X.max(axis=0) - X.min(axis=0) if extent else np.abs(X)).max()) if X.size else 0.0)
    return math.ldexp(1.0, exp - (frac == 0.5)) if frac else 1.0


def _unique_rows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(distinct rows of X in lexicographic order, each row's index among
    them, each distinct row's index in X): ``np.unique(axis=0,
    return_index=True, return_inverse=True)`` at a third of its cost.  A
    stable sort keeps equal rows (0.0 and -0.0 too) in order, so each
    distinct row is its first occurrence."""
    order = np.lexsort(X.T[::-1])
    X = X[order]
    first = np.ones(len(X), dtype=bool)
    first[1:] = (X[1:] != X[:-1]).any(axis=1)
    ids = np.empty(len(X), dtype=int)
    ids[order] = first.cumsum() - 1
    return X[first], ids, order[first]


def _sum_rows(ids: np.ndarray, W: np.ndarray, k: int) -> np.ndarray:
    """(k, m) group sums: row g adds the rows W[i] with ids[i] == g, in row
    order, starting from -0.0, which keeps a first term bit for bit, signed
    zeros too.  The package's one group sum."""
    S = np.full((k, W.shape[1]), -0.0)
    np.add.at(S, ids, W)
    return S


# ---------------------------------------------------------------------------
# point snapping

class _PointRegistry:
    """Snaps nearby points to a single representative.

    ``snap`` takes rows in order.  A row goes to the nearest representative
    registered before it with ``math.dist`` <= eps (of equally near ones,
    the last in order of cell ``floor(x / 4 eps)``, then registration), or
    becomes one.  Representatives persist across calls.  Rows are grouped
    by ``_unique_rows``; only those of a group with a nearby group
    (``_near_pairs``) are taken one by one, since a later copy of such a row
    can go to a nearer representative registered in between.
    """

    def __init__(self, n: int, eps: float):
        self.eps = eps
        self.P = np.empty((0, n))  # representatives in registration order

    def snap(self, X: np.ndarray) -> np.ndarray:
        """The (k, n) rows of X, each replaced by its representative."""
        if not len(X):
            return X
        # replaying the representatives registers each of them again, unchanged
        Q = np.concatenate([self.P, X])
        U, ids, rep = _unique_rows(Q)
        i, j = _near_pairs(U, self.eps)
        if not len(i):  # no two groups are near: each row goes to its group's first row
            self.P = Q[np.sort(rep)]
            return U[ids[len(Q) - len(X):]]
        ends = np.concatenate([i, j])
        order = ends.argsort(kind="stable")
        partner, start = np.concatenate([j, i])[order], ends[order].searchsorted(np.arange(len(U) + 1))
        near = start[1:] > start[:-1]
        rep[near] = -1  # a lone group's first row represents it; the loop places the others
        out = U[ids]
        rows = {k: Q[k].tolist() for k in near[ids].nonzero()[0].tolist()}  # the rows the loop reads
        for k in rows:
            g = ids[k]
            best = rep[g]
            if best < 0:  # the nearest representative of a nearby group, or k itself
                best, best_d = k, self.eps
                found = rep[partner[start[g]:start[g + 1]]]
                for _, c in sorted(([math.floor(x / (4 * self.eps)) for x in rows[c]], c) for c in found[found >= 0]):
                    d = math.dist(rows[k], rows[c])
                    if d <= best_d:
                        best, best_d = c, d
                rep[g] = k if best == k else -1
            out[k] = Q[best]
        self.P = Q[np.sort(rep[rep >= 0])]
        return out[len(Q) - len(X):]


# ---------------------------------------------------------------------------
# broad phase

_BLOCK = 1 << 16  # candidate pairs held at once


def _box_pairs(lo: np.ndarray, hi: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every pair ``(i, j)``, i < j, whose closed boxes [lo, hi] overlap on
    every axis, and no other pair, as chunks of two index arrays in no
    particular order; no chunk when no two boxes meet along the sweep axis.

    Sort and sweep: with the boxes sorted by ``lo[:, d]``, the later boxes
    that meet box p along axis d are the run of those with
    ``lo[:, d] <= hi[p, d]``.  d is the first axis whose runs hold the
    fewest candidates.  The runs are expanded and box-tested on every axis
    at most ``_BLOCK`` candidates at a time.
    """
    orders = lo.argsort(axis=0, kind="stable").T
    runs = [l[o].searchsorted(h[o], side="right") - np.arange(len(o)) - 1 for l, h, o in zip(lo.T, hi.T, orders)]
    order, run = min(zip(orders, runs), key=lambda s: s[1].sum())
    total = np.concatenate([[0], run.cumsum()])  # candidates before each sorted position
    p = 0
    while total[p] < total[-1]:
        q = max(int(total.searchsorted(total[p] + _BLOCK, side="right")) - 1, p + 1)
        first = np.arange(p, q).repeat(run[p:q])
        second = first + 1 + np.arange(len(first)) - (total[p:q] - total[p]).repeat(run[p:q])
        i, j = order[first], order[second]
        overlap = (lo[i] <= hi[j]).all(axis=1) & (lo[j] <= hi[i]).all(axis=1)
        i, j = i[overlap], j[overlap]
        yield np.minimum(i, j), np.maximum(i, j)
        p = q


def _near_pairs(X: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j), i < j, of every pair of rows of X within r on every axis, as any pair within distance r
    is: ``_box_pairs`` of the one-sided boxes [X, X + r (1 + 1e-9)].  A computed distance that reads r may be a few
    ulps short of the true one, which the 1e-9 covers, and X + reach rounds monotonically, so no such pair is lost."""
    return tuple(np.concatenate([np.empty((2, 0), dtype=int), *map(np.array, _box_pairs(X, X + r * (1 + 1e-9)))], 1))


# ---------------------------------------------------------------------------
# canonicalization

_ROUND = 2.0**-53  # unit roundoff
_PARALLEL = 1e-12  # two segments with 1 - cos^2 below this are parallel


def _snap_radius(X: np.ndarray) -> float:
    """eps of canonical form for the (k, n) points X: ``EPS_REL`` L, within which two points are one."""
    return EPS_REL * pow2_scale(X, extent=True)


def _rounding_bound(n: int, alpha, eps: float, offset=0.0):
    """The least 1 - cos^2 at which the closest-point solve of
    ``_segment_interactions`` puts the crossing of two segments through a
    common point X within eps/2 of X, by each of two causes.

    Lemma.  Take two segments in R^n, each no longer than alpha, with tails
    at most alpha apart, whose lines pass through X, or, as the points are
    rounded, within ``offset`` of it.  To first order in the unit roundoff u,
    the solve moves the computed crossing off the lines' true one by at most
    (4n + 2) u alpha / (1 - cos^2), 1 - cos^2 as computed, and an offset moves
    the true one off X by at most offset / sin.  Each is at most eps/2 at a
    1 - cos^2 of at least this bound.
    """
    return np.maximum((8 * n + 4) * _ROUND * alpha / eps, (2 * offset / eps) ** 2)


def _segment_interactions(A: np.ndarray, B: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Split points ``(edge, t)`` of the edges A[i] -> B[i] from pairwise
    interactions, as flat arrays in no particular order, repeats included:
    edge ``edge[k]`` splits at ``t[k]`` in (0, 1), more than eps from its ends.

    Handles collinear overlaps (projecting the partner's endpoints), proper
    transverse crossings, and T-junctions (an endpoint of one edge interior
    to another).  Only pairs whose boxes, widened by eps, overlap are tested
    (``_box_pairs``), with array masks, one chunk of pairs at a time.

    A pair that shares an endpoint exactly, with 1 - cos^2 at least
    ``_rounding_bound`` for alpha the sum of its lengths, is dropped before
    the solve: its lines meet at that endpoint, and the computed crossing
    stays within eps/2 of it, so no t of the pair falls more than eps from
    an end.  A star hub's pairs are such pairs.
    """
    n = A.shape[1]
    lo = np.minimum(A, B) - eps
    hi = np.maximum(A, B) + eps
    D = B - A
    L = _norms(D)
    U = D / L[:, None]
    ends = _unique_rows(np.concatenate([A, B]))[1].reshape(2, -1).T  # (E, 2) vertex ids, equal for equal points

    edges, ts = [np.empty(0, dtype=int)], [np.empty(0)]  # each chunk's interior split points
    for ii, jj in _box_pairs(lo, hi):
        ui, uj = U[ii], U[jj]
        cosa = np.add.reduce(ui * uj, axis=1)
        denom = 1.0 - cosa * cosa
        parallel = np.abs(denom) < _PARALLEL
        shared = (ends[ii, :, None] == ends[jj, None, :]).any(axis=(1, 2))
        meet = shared & (denom >= _rounding_bound(n, L[ii] + L[jj], eps))

        # a block runs only on a chunk with pairs of its kind: on a small chunk numpy's fixed per-call cost dominates
        found_e, found_t = [], []  # this chunk's candidates

        # transverse pairs: closest points of the two supporting lines
        tv = (~(parallel | meet)).nonzero()[0]
        if len(tv):
            it, jt, uit, ujt, ct, dn = ii[tv], jj[tv], ui[tv], uj[tv], cosa[tv], denom[tv]
            Ai, Aj = A[it], A[jt]
            wt = Aj - Ai
            wu_i = np.add.reduce(wt * uit, axis=1)
            wu_j = np.add.reduce(wt * ujt, axis=1)
            s = (wu_i - ct * wu_j) / dn
            t = (ct * wu_i - wu_j) / dn
            gap = _norms(Ai + s[:, None] * uit - Aj - t[:, None] * ujt)
            Li, Lj = L[it], L[jt]
            ti, tj = s / Li, t / Lj
            near = (
                (gap <= eps)
                & (ti > -eps / Li) & (ti < 1.0 + eps / Li)
                & (tj > -eps / Lj) & (tj < 1.0 + eps / Lj)
            )
            found_e += [it[near], jt[near]]
            found_t += [ti[near], tj[near]]

        # parallel pairs: collinear overlap iff the line offset vanishes
        pl = parallel.nonzero()[0]
        if len(pl):
            wp, uip = A[jj[pl]] - A[ii[pl]], ui[pl]
            perp = wp - np.add.reduce(wp * uip, axis=1)[:, None] * uip
            coll = pl[_norms(perp) <= eps]
            ci, cj = ii[coll], jj[coll]
            c = np.concatenate([ci, ci, cj, cj])
            found_e.append(c)
            found_t.append(row_dots(np.concatenate([A[cj], B[cj], A[ci], B[ci]]) - A[c], U[c]) / L[c])

        # keep the interior candidates of this chunk only, so that no more than a chunk's are held
        if found_e:
            e, t = np.concatenate(found_e), np.concatenate(found_t)
            inside = (eps / L[e] < t) & (t < 1.0 - eps / L[e])
            edges.append(e[inside])
            ts.append(t[inside])
    return np.concatenate(edges), np.concatenate(ts)


def canonicalize(T: Chain1) -> Chain1:
    """Return an equivalent canonical chain.

    The endpoints a0, b0, a1, b1, ..., then the kept cut points in order of
    (edge, t), each go to the nearest earlier representative within
    ``_snap_radius`` of the endpoints or become one (``_PointRegistry``),
    edges are split at mutual intersections/overlap endpoints, coincident
    sub-segments are merged by summing multiplicities (sign-adjusted:
    flipping orientation negates theta), and negligible edges are dropped:
    those no longer than ``EPS_MULT_REL`` times the longest multiplicity,
    input or merged.  Idempotent; preserves boundary and can only decrease mass.

    A chain in which no edge has an interior cut, the common case in the
    local search, goes from the narrow phase straight to the merge: it skips
    the cuts' sort, the per-edge cut tolerances, the cut loop and the second
    snap, each of which would produce nothing on it.
    """
    same = (T.A == T.B).all(axis=1).nonzero()[0]
    if len(same):
        raise DegenerateEdgeError(f"degenerate edge at {tuple(T.A[same[0]].tolist())}")
    reg = _PointRegistry(T.n, _snap_radius(np.concatenate([T.A, T.B])))
    A, B = reg.snap(np.concatenate([T.A, T.B], axis=1).reshape(-1, T.n)).reshape(-1, 2, T.n).swapaxes(0, 1)
    rows = (A != B).any(axis=1).nonzero()[0]  # a pair collapsed by snapping is below resolution: drop it
    A, B, Theta = A[rows], B[rows], T.Theta[rows]
    edge, t = _segment_interactions(A, B, reg.eps)
    if not len(edge):  # no interior cut: the snapped edges are the pieces
        return _split_merge(A, B, Theta, edge, A[:0])

    # split every edge at its cuts, in order of (edge, t); a cut closer than
    # the snap radius to the last one kept on its edge is dropped
    cuts = _unique_rows(np.stack([edge, t], axis=1))[0]
    tol = [reg.eps / math.dist(a, b) for a, b in zip(A.tolist(), B.tolist())]
    keep, last = [], (-1.0, 0.0)
    for k, (e, u) in enumerate(cuts.tolist()):
        if e != last[0] or u - last[1] > tol[int(e)]:
            keep.append(k)
            last = e, u
    edge, t = cuts[keep, 0].astype(int), cuts[keep, 1]
    C = reg.snap(A[edge] + t[:, None] * (B[edge] - A[edge]))
    return _split_merge(A, B, Theta, edge, C)


def _split_merge(A: np.ndarray, B: np.ndarray, Theta: np.ndarray, edge: np.ndarray, C: np.ndarray) -> Chain1:
    """The canonical chain of the edges A[i] -> B[i] carrying Theta[i], each
    split at its points C[k] (edge[k] == i), given in order of (edge, t).
    Each line's points are its tail, cuts and head; a piece joins consecutive
    points of a line, unless they are equal.  Each piece is oriented from its
    lexicographically smaller end and coincident pieces are merged in order
    (``_merge_rows``)."""
    n, m = A.shape[1], Theta.shape[1]
    line = np.concatenate([np.arange(len(A)), edge, np.arange(len(A))])
    order = line.argsort(kind="stable")
    P, line = np.concatenate([A, C, B])[order], line[order]
    i = ((line[:-1] == line[1:]) & (P[:-1] != P[1:]).any(axis=1)).nonzero()[0]
    Pa, Pb, Theta = P[i], P[i + 1], Theta[line[i]]
    at = np.arange(len(i)), (Pa != Pb).argmax(axis=1)
    flip = (Pa[at] > Pb[at])[:, None]
    keys = np.where(flip, np.concatenate([Pb, Pa], axis=1), np.concatenate([Pa, Pb], axis=1))
    ends, Theta = _merge_rows(keys, np.where(flip, -Theta, Theta))
    return Chain1.from_arrays(n, m, ends[:, :n], ends[:, n:], Theta, canonical=True)


def canonicalize0(mu: Chain0) -> Chain0:
    """Snap the atoms in order within ``_snap_radius`` (``_PointRegistry``), sum
    the weights at each position, in lexicographic order, and drop sums no
    longer than ``EPS_MULT_REL`` times the longest weight, input or merged."""
    P, W = _merge_rows(_PointRegistry(mu.n, _snap_radius(mu.P)).snap(mu.P), mu.W)
    return Chain0.from_arrays(mu.n, mu.m, P, W)


def _merge_rows(keys: np.ndarray, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct rows of keys in lexicographic order, the sum of W's rows
    under each, by ``_sum_rows``), for the significant sums only.  Sums
    count as inputs of the threshold, so a second pass keeps every row.  A
    sum past the float range raises: it would otherwise drop every row."""
    K, ids, _ = _unique_rows(keys)
    S = _sum_rows(ids, W, len(K))
    if not np.isfinite(S).all():
        raise ValueError("a sum of coincident multiplicities overflows the float range")
    keep = _significant(S, np.concatenate([W, S]))
    return K[keep], S[keep]


def _significant(W: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Which rows of W are longer than the relative tolerance of the longest input row.  This is a verdict relative
    to the largest row, not a value, on the hot path: one S for the array, not ``weight_norms``' per-row scale."""
    S = pow2_scale(inputs)
    W, inputs = W / S, inputs / S  # exact, S a power of two; the squares near the threshold stay in range
    eps_w = EPS_MULT_REL * float(np.sqrt(row_dots(inputs, inputs)).max(initial=0.0))
    return np.sqrt(row_dots(W, W)) > eps_w


# ---------------------------------------------------------------------------
# boundary / divergence / mass

def _vertex_weights(T: Chain1) -> np.ndarray:
    """(k, m) net weight at each vertex ``T.V[k]``: the sum over edges, in
    order, of +theta at the head and then -theta at the tail (``_sum_rows``)."""
    return _sum_rows(T.ij[:, ::-1].ravel(), np.stack([T.Theta, -T.Theta], axis=1).reshape(-1, T.m), len(T.V))


def boundary(T: Chain1) -> Chain0:
    """Boundary 0-chain: sum over edges of theta * (delta_b - delta_a)."""
    W = _vertex_weights(T)
    keep = _significant(W, T.Theta)
    return Chain0.from_arrays(T.n, T.m, T.V[keep], W[keep])


def divergence(T: Chain1) -> Chain0:
    """Net vertex inflow: div T = -boundary(T); equals mu- - mu+ for a flux."""
    return -boundary(T)


def mass(X: Chain0 | Chain1) -> float:
    """Total mass: Euclidean norm of multiplicities, via ``weight_norms``, weighted by length."""
    W, lengths = (X.W, 1.0) if isinstance(X, Chain0) else (X.Theta, X.lengths())
    return float(sum((weight_norms(W) * lengths).tolist()))


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


def is_piece(Tp: Chain1, T: Chain1, eps: float | None = None) -> bool:
    """Whether Tp is a piece of T: per component, a sign-compatible
    sub-flow with |theta'_j| <= |theta_j| edgewise on the common refinement,
    up to ``eps``, by default ``EPS_REL`` S of both chains' multiplicities."""
    _check_dims(Tp, T)
    eps = EPS_REL * pow2_scale(np.concatenate([Tp.Theta, T.Theta])) if eps is None else eps
    R = _common_refinement(Tp, T).Theta
    tp, t = R[:, : T.m], R[:, T.m :]
    bad = (np.abs(tp) > eps) & ((np.sign(tp) * np.sign(t) < 0.0) | (np.abs(tp) > np.abs(t) + eps))
    return not bad.any()


def is_compatible(mu_minus: Chain0, mu_plus: Chain0) -> bool:
    """Flux existence criterion: per-component totals agree within ``EPS_REL`` S."""
    _check_dims(mu_minus, mu_plus)
    diff = mu_minus.total_weight() - mu_plus.total_weight()
    return bool(np.all(np.abs(diff) <= EPS_REL * pow2_scale(np.concatenate([mu_minus.W, mu_plus.W]))))


# ---------------------------------------------------------------------------
# equality helpers

def chains_close(S: Chain1, T: Chain1, tol: float | None = None) -> bool:
    """Canonical equality of 1-chains up to ``tol``, by default ``EPS_REL`` S of both chains' multiplicities."""
    Theta = canonicalize(S - T).Theta
    tol = EPS_REL * pow2_scale(np.concatenate([S.Theta, T.Theta])) if tol is None else tol
    return bool(np.all(weight_norms(Theta) <= tol))


def chain0_close(a: Chain0, b: Chain0, tol: float | None = None) -> bool:
    """Canonical equality of 0-chains up to ``tol``, by default ``EPS_REL`` S of both measures' weights."""
    W = canonicalize0(a - b).W
    tol = EPS_REL * pow2_scale(np.concatenate([a.W, b.W])) if tol is None else tol
    return bool(np.all(weight_norms(W) <= tol))
