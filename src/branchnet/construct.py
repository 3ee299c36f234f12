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

from branchnet.chains import Chain0, Chain1, canonicalize, canonicalize0, is_compatible, mass, row_dots
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
    wts = np.sqrt(row_dots(nu.W, nu.W))
    return tuple((wts @ nu.P) / np.sum(wts))


def bounding_cube(mu: Chain0) -> tuple[tuple[float, ...], float]:
    """(center, edge) of the smallest coordinate cube holding every atom; edge 1
    when all atoms share one position, the unit cube at the origin if empty."""
    if not len(mu.P):
        return (0.0,) * mu.n, 1.0
    lo, hi = mu.P.min(axis=0), mu.P.max(axis=0)
    return tuple(0.5 * (lo + hi)), float(np.max(hi - lo)) or 1.0


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

    def cell_index(self, p, k: int) -> tuple[int, ...]:
        h = self.cell_width(k)
        r = (np.asarray(p, dtype=float) - self.origin) / h
        idx = np.floor(r).astype(int)
        idx = np.clip(idx, 0, 2**k - 1)
        return tuple(int(i) for i in idx)

    def cell_center(self, idx, k: int) -> tuple[float, ...]:
        h = self.cell_width(k)
        return tuple(self.origin + (np.asarray(idx, dtype=float) + 0.5) * h)

    def skeleton_distance(self, p, k: int) -> float:
        """Distance from p to the nearest level-k skeleton hyperplane."""
        h = self.cell_width(k)
        r = (np.asarray(p, dtype=float) - self.origin) / h
        frac = r - np.floor(r)
        return float(np.min(np.minimum(frac, 1.0 - frac)) * h)

    def contains(self, p) -> bool:
        q = np.asarray(p, dtype=float) - self.origin
        return bool(np.all(q >= 0) and np.all(q <= self.edge))


class GridShiftError(RuntimeError):
    """No valid shift found; carries the nearest-violation distance."""

    def __init__(self, tries: int, nearest: float):
        super().__init__(f"no valid grid shift in {tries} tries (nearest skeleton distance {nearest:.3e})")
        self.tries = tries
        self.nearest = nearest


def shifted_grid(Qprime_center, Qprime_edge: float, atom_measures: list[Chain0], k_max: int = 12,
                 seed: int = 0) -> DyadicGrid:
    """Coordinate cube containing Q' whose dyadic skeletons avoid all atoms.

    Randomly shifts an enlarged cube, at most ``_GRID_TRIES`` times, until
    every atom of every input measure keeps a distance of at least 1e-6
    level-k_max cell widths from the level-k_max skeleton (which contains
    all coarser skeletons).  Almost every shift works since the skeleton is
    a null set; the retry loop is deterministic given the seed.
    """
    c0 = np.asarray(Qprime_center, dtype=float)
    n = len(c0)
    edge = 2.0 * float(Qprime_edge) + 2.0
    h_fine = edge / 2**k_max
    points = [p for mu in atom_measures for p in mu.P]

    rng = np.random.default_rng(seed)
    nearest = math.inf
    for t in range(1, _GRID_TRIES + 1):
        shift = rng.uniform(0.0, 1.0, size=n) * h_fine * 0.98
        grid = DyadicGrid(tuple(c0 + shift), edge, k_max, tuple(shift), t)
        if not points:
            return grid
        d = min(grid.skeleton_distance(p, k_max) for p in points)
        nearest = min(nearest, d)
        if d >= 1e-6 * h_fine and all(grid.contains(p) for p in points):
            return grid
    raise GridShiftError(_GRID_TRIES, nearest)


def dyadic_approx(mu: Chain0, grid: DyadicGrid, k: int) -> Chain0:
    """Grid approximation at level k: one atom per occupied cell, placed at
    the cell center with the cell's total weight."""
    if k < 0 or k > grid.k_max:
        raise ValueError(f"level {k} outside [0, {grid.k_max}]")
    cells: dict[tuple[int, ...], list[int]] = {}
    for i, p in enumerate(mu.P.tolist()):
        if not grid.contains(p):
            raise ValueError(f"atom {tuple(p)} outside grid cube")
        if grid.skeleton_distance(p, grid.k_max) <= 0.0:
            raise ValueError(f"atom {tuple(p)} on grid skeleton; re-run shifted_grid")
        cells.setdefault(grid.cell_index(p, k), []).append(i)
    order = sorted(cells)
    return Chain0.from_arrays(mu.n, mu.m, [grid.cell_center(idx, k) for idx in order],
                              [np.sum(mu.W[cells[idx]], axis=0) for idx in order])


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
    """Hierarchical dyadic flux between mu_minus and mu_plus.

    Builds, for k = 0..K, the cones connecting the level-k grid
    approximation of nu = mu_plus - mu_minus to the level-(k+1) one (edges
    from each cell center to its occupied children's centers), then closes
    the truncation exactly with cones from the level-(K+1) centers to the
    true atoms.  Divergence of the result equals mu_minus - mu_plus.

    When ``beta`` is supplied (and ``cost`` for the energy evaluation), the
    certificate carries the dyadic-series bound
    (m/2) * diam(Q) * sum_{k=1}^{K+2} S_beta(n,k) * max(1, mass(nu-) + mass(nu+)).
    """
    if not is_compatible(mu_minus, mu_plus):
        raise ValueError("incompatible measures: per-component totals differ")
    if K + 1 > grid.k_max:
        raise ValueError(f"depth K={K} needs grid.k_max >= {K + 1}")
    n, m = mu_minus.n, mu_minus.m
    nu = canonicalize0(mu_plus - mu_minus)
    if not len(nu.P):
        empty = Chain1(n, m, (), canonical=True)
        cert = EnergyCertificate(0.0, 0.0, "none")
        return CascadeResult(empty, cert, K, Chain0(n, m))

    # leaf cells at level K+1, then aggregate upward so parent weights are
    # the exact floating-point sums of their children's
    levels: list[dict[tuple[int, ...], np.ndarray]] = [dict() for _ in range(K + 2)]
    leaf_atoms: dict[tuple[int, ...], list[int]] = {}
    for i, p in enumerate(nu.P):
        leaf_atoms.setdefault(grid.cell_index(p, K + 1), []).append(i)
    for idx in sorted(leaf_atoms):
        levels[K + 1][idx] = np.sum(nu.W[leaf_atoms[idx]], axis=0)
    for k in range(K, -1, -1):
        acc: dict[tuple[int, ...], list] = {}
        for idx, w in levels[k + 1].items():
            parent = tuple(i // 2 for i in idx)
            acc.setdefault(parent, []).append((idx, w))
        for parent in sorted(acc):
            children = sorted(acc[parent], key=lambda t: t[0])
            levels[k][parent] = np.sum(np.array([w for _, w in children]), axis=0)

    A, B, Theta = [], [], []
    for k in range(K + 1):
        for idx in sorted(levels[k + 1]):
            w = levels[k + 1][idx]
            parent = tuple(i // 2 for i in idx)
            a = grid.cell_center(parent, k)
            b = grid.cell_center(idx, k + 1)
            if a != b and np.any(w):
                A.append(a)
                B.append(b)
                Theta.append(w)
    positions = nu.P.tolist()
    for idx in sorted(leaf_atoms):
        c = grid.cell_center(idx, K + 1)
        for i in leaf_atoms[idx]:
            if tuple(positions[i]) != c:
                A.append(c)
                B.append(positions[i])
                Theta.append(nu.W[i])

    chain = canonicalize(Chain1.from_arrays(n, m, A, B, Theta))

    ener = 0.0
    bound = math.inf
    kind = "none"
    if cost is not None:
        ener = energy(chain, cost)
    if beta is not None:
        if not admissibility_check(beta, n)[0]:
            warnings.warn("beta envelope is not admissible; cascade bound may be meaningless", stacklevel=2)
        nu_plus, nu_minus = _signed_parts(nu)
        series = sum(s_beta(beta, n, k) for k in range(1, K + 3))
        bound = 0.5 * m * grid.diam * series * max(1.0, mass(nu_minus) + mass(nu_plus))
        kind = "cascade"
    cert = EnergyCertificate(ener, bound, kind, digest_inputs(mu_minus, mu_plus, K, grid.center, grid.edge))

    sigma0 = Chain0.from_arrays(n, m, [grid.cell_center((0,) * n, 0)], [levels[0][(0,) * n]])
    return CascadeResult(chain, cert, K, canonicalize0(sigma0))


def _signed_parts(nu: Chain0) -> tuple[Chain0, Chain0]:
    """Componentwise positive and negative parts (nu = plus - minus)."""
    parts = []
    for W in (np.maximum(nu.W, 0.0), np.maximum(-nu.W, 0.0)):
        keep = W.any(axis=1)
        parts.append(Chain0.from_arrays(nu.n, nu.m, nu.P[keep], W[keep]))
    return tuple(parts)
