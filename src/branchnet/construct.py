"""Constructors for admissible networks.

* ``cone``: straight segments from a vertex to every atom of a measure --
  the universal competitor connecting any compatible pair.
* ``shifted_grid`` / ``dyadic_approx``: randomly shifted dyadic cube grids
  keeping atoms off the skeleton, and grid approximations of measures.
* ``cascade``: the hierarchical cube-refinement flux whose energy is
  certified by the dyadic series of the cost's concave envelope.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from branchnet.chains import (_PARALLEL, _ROUND, Chain0, Chain1, _near_pairs, _rounding_bound, _snap_radius,
                              _split_merge, _sum_rows, _unique_rows, canonicalize, canonicalize0, is_compatible, mass,
                              pow2_scale, row_dots, weight_norms)
from branchnet.costs import BetaEnvelope, admissibility_check, s_beta
from branchnet.energy import EnergyCertificate, digest_inputs, energy

_GRID_TRIES = 100  # random shifts shifted_grid tries before it gives up


def cone(nu: Chain0, vertex) -> Chain1:
    """Cone over the measure nu with the given vertex.

    For nu = mu_plus - mu_minus the result is a flux between mu_minus and
    mu_plus: divergence(cone(nu, v)) = -nu (plus an atom at v collecting the
    total weight, which vanishes for compatible pairs).  Atoms sitting at
    the vertex contribute nothing.
    """
    v = np.array([float(c) for c in vertex])
    if len(v) != nu.n:
        raise ValueError("vertex dimension mismatch")
    away = ~np.all(nu.P == v, axis=1)
    return Chain1.from_arrays(nu.n, nu.m, np.broadcast_to(v, (int(away.sum()), nu.n)), nu.P[away], nu.W[away])


def barycenter(nu: Chain0) -> tuple[float, ...]:
    """Default cone vertex: atom positions weighted by |w|_2; the origin if empty."""
    if not len(nu.P):
        return (0.0,) * nu.n
    wts = weight_norms(nu.W)
    return tuple((wts @ nu.P) / np.sum(wts))


def bounding_cube(P: np.ndarray) -> tuple[tuple[float, ...], float]:
    """(center, edge) of the smallest coordinate cube holding the (k, n) points P;
    edge ``pow2_scale(P)`` when all points coincide (1 at the origin), the unit
    cube at the origin if k = 0."""
    if not len(P):
        return (0.0,) * P.shape[1], 1.0
    lo, hi = P.min(axis=0), P.max(axis=0)
    return tuple(0.5 * (lo + hi)), float(np.max(hi - lo)) or pow2_scale(P)


@dataclass(frozen=True)
class DyadicGrid:
    """Shifted coordinate cube with its dyadic refinements.

    Level k splits the cube into 2^(k n) congruent coordinate cubes; the
    shift is chosen so that no relevant atom lies on any skeleton hyperplane
    up to ``k_max``.
    """

    center: tuple[float, ...]
    edge: float
    k_max: int
    shift: tuple[float, ...] = ()
    tries_used: int = 0

    @property
    def n(self) -> int:
        return len(self.center)

    @property
    def diam(self) -> float:
        return self.edge * math.sqrt(self.n)

    @property
    def origin(self) -> np.ndarray:
        return np.array(self.center) - 0.5 * self.edge

    def cell_width(self, k: int) -> float:
        return self.edge / 2**k

    def cell_index(self, p, k: int) -> np.ndarray:
        """Level-k cell of one point (n,) or of each point (..., n)."""
        r = (np.asarray(p, dtype=float) - self.origin) / self.cell_width(k)
        return np.clip(np.floor(r).astype(int), 0, 2**k - 1)

    def cell_center(self, idx, k: int) -> np.ndarray:
        return self.origin + (np.asarray(idx, dtype=float) + 0.5) * self.cell_width(k)

    def skeleton_distance(self, p, k: int) -> np.ndarray:
        """Distance from each point to its nearest level-k skeleton hyperplane."""
        h = self.cell_width(k)
        r = (np.asarray(p, dtype=float) - self.origin) / h
        frac = r - np.floor(r)
        return np.min(np.minimum(frac, 1.0 - frac), axis=-1) * h

    def contains(self, p) -> np.ndarray:
        q = np.asarray(p, dtype=float) - self.origin
        return np.all((q >= 0) & (q <= self.edge), axis=-1)


class GridShiftError(RuntimeError):
    """No valid shift found; carries the nearest-violation distance."""

    def __init__(self, tries: int, nearest: float):
        super().__init__(f"no valid grid shift in {tries} tries (nearest skeleton distance {nearest:.3e})")
        self.tries = tries
        self.nearest = nearest


def shifted_grid(Qprime_center, Qprime_edge: float, atom_measures: list[Chain0], k_max: int = 12,
                 seed: int = 0) -> DyadicGrid:
    """Coordinate cube containing Q' whose dyadic skeletons avoid all atoms.

    The cube's edge is 2 e + 2 S(e) for Q' of edge e, S(e) the power of two
    ``pow2_scale`` reads off e, so the grid follows the unit of length.
    Randomly shifts that enlarged cube, at most ``_GRID_TRIES`` times, until
    every atom of every input measure keeps a distance of at least 1e-6
    level-k_max cell widths from the level-k_max skeleton (which contains
    all coarser skeletons).  Almost every shift works since the skeleton is
    a null set; the retry loop is deterministic given the seed.
    """
    c0 = np.asarray(Qprime_center, dtype=float)
    n = len(c0)
    edge = 2.0 * float(Qprime_edge) + 2.0 * pow2_scale(np.array([Qprime_edge], dtype=float))
    h_fine = edge / 2**k_max
    points = np.concatenate([np.empty((0, n)), *(mu.P for mu in atom_measures)])

    rng = np.random.default_rng(seed)
    nearest = math.inf
    for t in range(1, _GRID_TRIES + 1):
        shift = rng.uniform(0.0, 1.0, size=n) * h_fine * 0.98
        grid = DyadicGrid(tuple(c0 + shift), edge, k_max, tuple(shift), t)
        if not len(points):
            return grid
        d = float(grid.skeleton_distance(points, k_max).min())
        nearest = min(nearest, d)
        if d >= 1e-6 * h_fine and grid.contains(points).all():
            return grid
    raise GridShiftError(_GRID_TRIES, nearest)


def dyadic_approx(mu: Chain0, grid: DyadicGrid, k: int) -> Chain0:
    """Grid approximation at level k: one atom per occupied cell, placed at
    the cell center with the cell's total weight, summed in atom order
    (``_sum_rows``)."""
    if k < 0 or k > grid.k_max:
        raise ValueError(f"level {k} outside [0, {grid.k_max}]")
    outside = ~grid.contains(mu.P)
    bad = outside | (grid.skeleton_distance(mu.P, grid.k_max) <= 0.0)
    if bad.any():  # the first offending atom decides the message
        i = int(np.argmax(bad))
        where = "outside grid cube" if outside[i] else "on grid skeleton; re-run shifted_grid"
        raise ValueError(f"atom {tuple(mu.P[i].tolist())} {where}")
    cells, ids, _ = _unique_rows(grid.cell_index(mu.P, k))
    return Chain0.from_arrays(mu.n, mu.m, grid.cell_center(cells, k), _sum_rows(ids, mu.W, len(cells)))


@dataclass(frozen=True)
class CascadeResult:
    chain: Chain1
    certificate: EnergyCertificate
    depth: int
    residual0: Chain0


def cascade(
    mu_minus: Chain0,
    mu_plus: Chain0,
    grid: DyadicGrid,
    K: int,
    cost=None,
    beta: BetaEnvelope | None = None,
) -> CascadeResult:
    """Hierarchical dyadic flux between mu_minus and mu_plus, in canonical form.

    The edges are those of ``_cascade_edges``, and the chain is what
    ``canonicalize`` makes of them, built on the lattice of half leaf
    widths (``_lattice_chain``).  A cell's parent center is a corner of the
    cell, so the cell's edge runs along a main diagonal of it, and any other
    edge meeting it inside the cell belongs to a descendant: collinear with
    it, or meeting it at that descendant's center.  So each diagonal edge is
    split exactly at the chain's centers strictly inside it.  Atom edges meet
    other edges only at their leaf's center, and are not split, unless an
    atom sits at one of a few special positions; then the edges go through
    ``canonicalize`` instead.  Divergence of the result equals
    mu_minus - mu_plus, and the single level-0 cell left at the end is
    ``residual0``.

    When ``beta`` is supplied (and ``cost`` for the energy evaluation), the
    certificate carries the dyadic-series bound
    (m/2) * diam(Q) * sum_{k=1}^{K+2} S_beta(n,k) * max(1, mass(nu-) + mass(nu+)).
    """
    if not is_compatible(mu_minus, mu_plus):
        raise ValueError("incompatible measures: per-component totals differ")
    if K < 0 or K + 1 > grid.k_max:
        raise ValueError(f"depth K={K} outside [0, {grid.k_max - 1}]")
    n, m = mu_minus.n, mu_minus.m
    nu = canonicalize0(mu_plus - mu_minus)
    if not len(nu.P):
        empty = Chain1(n, m, (), canonical=True)
        cert = EnergyCertificate(0.0, 0.0, "none")
        return CascadeResult(empty, cert, K, Chain0(n, m))

    (A, B, Theta), levels, atoms, (P, W) = _cascade_edges(nu, grid, K)
    chain = _lattice_chain(grid, K, levels, atoms, A, B, Theta)
    if chain is None:
        chain = canonicalize(Chain1.from_arrays(n, m, A, B, Theta))

    ener = 0.0
    bound = math.inf
    kind = "none"
    if cost is not None:
        ener = energy(chain, cost)
    if beta is not None:
        if not admissibility_check(beta, n)[0]:
            warnings.warn("beta envelope is not admissible; cascade bound may be meaningless", stacklevel=2)
        series = sum(s_beta(beta, n, k) for k in range(1, K + 3))
        minus, plus = (mass(Chain0.from_arrays(n, m, nu.P, np.maximum(s * nu.W, 0.0))) for s in (-1.0, 1.0))
        bound = 0.5 * m * grid.diam * series * max(1.0, minus + plus)  # nu's negative and positive parts
        kind = "cascade"
    cert = EnergyCertificate(ener, bound, kind, digest_inputs(mu_minus, mu_plus, K, grid.center, grid.edge))
    return CascadeResult(chain, cert, K, canonicalize0(Chain0.from_arrays(n, m, P, W)))


def _cascade_edges(nu: Chain0, grid: DyadicGrid, K: int):
    """The cascade's edges in emission order, before canonicalization.

    One loop over the levels k = K+1, K, ..., 0 of the grid: level k
    connects its points to the centers of their level-k cells (one edge per
    point, carrying the point's weight, skipped when the point is its
    center or its weight is zero) and passes the cells, with their summed
    weights, up as the points of level k-1.  Level K+1 starts from the
    atoms of nu, and each parent weight sums its children's in their order
    (``_sum_rows``).  Edges are emitted coarse to fine, the atoms grouped by
    leaf cell.

    Returns the edge arrays (A, B, Theta); per level k = 0, ..., K+1 its
    cells, their centers, the cell of each point it connects and whether
    that point got an edge; the atoms in leaf order; and the single level-0
    point with its weight.
    """
    cells, ids, _ = _unique_rows(grid.cell_index(nu.P, K + 1))
    leaf_order = np.argsort(ids, kind="stable")  # stable: atoms keep their order within a cell
    P, W, ids = nu.P[leaf_order], nu.W[leaf_order], ids[leaf_order]
    atoms, edges, levels = P, [], []
    for k in range(K + 1, -1, -1):
        centers = grid.cell_center(cells, k)
        tails = centers[ids]
        keep = np.any(tails != P, axis=1) & np.any(W != 0.0, axis=1)
        edges.append((tails[keep], P[keep], W[keep]))
        levels.append((cells, centers, ids, keep))
        P, W = centers, _sum_rows(ids, W, len(cells))
        cells, ids, _ = _unique_rows(cells // 2)
    return tuple(np.concatenate(x) for x in zip(*reversed(edges))), levels[::-1], atoms, (P, W)


_NEAR = 4  # "a few eps": the snap radius, the reach of an interaction and the interior margin, with one to spare


def _lattice_chain(grid: DyadicGrid, K: int, levels, atoms: np.ndarray, A, B, Theta) -> Chain1 | None:
    """``canonicalize`` of the cascade edges (A, B, Theta), byte for byte,
    built from the lattice; None where an atom's position could make the two
    differ.  ``levels`` and ``atoms`` are those of ``_cascade_edges``.

    For eps = ``chains._snap_radius`` of the endpoints, the snap radius of
    ``canonicalize``, it returns None when
    - an atom lies within ``_NEAR`` eps of the level-(K+1) skeleton, of its
      leaf's center or of another atom: it could snap, or reach an edge of
      another cell.  Every atom lies within h/2 of the skeleton, h the leaf
      width, so otherwise h/2 > ``_NEAR`` eps; in units of h/2 lattice points
      are 1 apart, and a lattice point off a diagonal line, or two skew
      diagonal lines, 1/sqrt(2), so no centers snap or meet off the lattice;
    - two atom edges of one leaf point within 2 sqrt(``2 * _PARALLEL``) of
      each other on every axis; a pair with cos > 0 under the parallel test,
      1 - cos^2 < ``_PARALLEL``, is within half that, which rounding cannot
      undo.  That test would project one atom onto the other's edge;
    - an atom edge has 1 - cos^2 < ``2 * _PARALLEL`` with its leaf's diagonal
      through the parent's center, the only main diagonal along which other
      edges enter the leaf, or 1 - cos^2 below ``chains._rounding_bound``,
      where rounding could move the computed crossing of the two lines eps/2
      off the leaf's center: alpha is the longest diagonal edge through the
      center, and rounding puts the center up to 2 sqrt(n) u C off that
      edge, u the unit roundoff and C the largest |coordinate|.
    """
    n = grid.n
    ends = np.concatenate([A, B])
    eps = _snap_radius(ends)
    # the cells of levels 1..K+1 as one list of nodes, in emission order;
    # node i gets the edge_of[i]-th edge, from its parent's center, if kept[i]
    cells, centers, ids, keep = zip(*levels)
    start = np.cumsum([0, *map(len, cells[1:])])  # first node of each level 1..K+2
    level = np.repeat(np.arange(1, K + 2), np.diff(start))
    idx, center = np.concatenate(cells[1:]), np.concatenate(centers[1:])
    parent = np.concatenate([np.full(len(cells[1]), -1), *(ids[k] + start[k - 1] for k in range(1, K + 1))])
    kept = np.concatenate(keep[:-1])
    edge_of = np.cumsum(kept) - 1
    leaf = ids[K + 1][keep[K + 1]] + start[K]  # the leaf of each atom edge
    used = kept.copy()  # the centers that are vertices of the chain
    used[parent[kept & (parent >= 0)]] = True
    used[leaf] = True

    D = atoms[keep[K + 1]] - center[leaf]
    length = np.sqrt(row_dots(D, D))
    U = D / length[:, None]
    if ((length <= _NEAR * eps).any() or (grid.skeleton_distance(atoms, K + 1) <= _NEAR * eps).any()
            or len(_near_pairs(atoms, _NEAR * eps)[0])
            or len(_near_pairs(np.column_stack([leaf, U]), 2 * math.sqrt(2 * _PARALLEL))[0])):
        return None

    # a center v is strictly inside the kept edge of an ancestor cell a iff,
    # in units of v's half width, its offset z from a's center is a negative
    # multiple of the sign vector from a's parent center to a's; top is the
    # coarsest level of a diagonal edge through each center
    top = level.copy()
    v = np.flatnonzero(used & (level > 1))
    a = parent[v]
    cut_edge, cut_t, cut_v = [np.empty(0, int)], [np.empty(0)], [np.empty(0, int)]
    while len(v):
        shift = level[v] - level[a]
        z = 2 * (idx[v] - (idx[a] << shift[:, None])) + 1 - (1 << shift)[:, None]
        z *= 2 * (idx[a] & 1) - 1
        on = kept[a] & (z[:, 0] < 0) & np.all(z == z[:, :1], axis=1)
        cut_edge.append(edge_of[a[on]])
        cut_t.append(1.0 + np.ldexp(z[on, 0].astype(float), -shift[on]))
        cut_v.append(v[on])
        top[v[on]] = level[a[on]]
        up = level[a] > 1
        v, a = v[up], parent[a[up]]

    slack = 1.0 - row_dots(U, 2.0 * (idx[leaf] & 1) - 1) ** 2 / n
    alpha = 0.5 * math.sqrt(n) * np.ldexp(grid.edge, -top[leaf])
    moved = _rounding_bound(n, alpha, eps, 2 * math.sqrt(n) * _ROUND * np.abs(ends).max())
    if (slack < np.maximum(2 * _PARALLEL, moved)).any():
        return None
    cut_edge, cut_t, cut_v = map(np.concatenate, (cut_edge, cut_t, cut_v))
    order = np.lexsort((cut_t, cut_edge))
    return _split_merge(A, B, Theta, cut_edge[order], center[cut_v[order]])
