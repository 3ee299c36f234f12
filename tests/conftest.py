"""Shared generators for randomized tests.

All randomness is seeded; every helper returns plain branchnet objects.
"""

import numpy as np
import pytest

from branchnet import Atom, Chain0, Chain1, Edge, canonicalize
from branchnet.costs import component_sum, custom_cost, p_norm_alpha, sum_alpha

# one cost of each family for m = 1..3, by name
COST_FAMILIES = {
    "sum_alpha": lambda m: sum_alpha(m, 0.7),
    "p_norm_alpha": lambda m: p_norm_alpha(m, 2.0, 0.8),
    "component_sum": lambda m: component_sum(m, [1.0, 2.0, 0.5][:m], [0.3, 1.0, 0.7][:m]),
    "custom": lambda m: custom_cost(m, lambda t: float(np.abs(t).sum()) ** 0.6),
}


def random_chain(rng, n=2, m=1, edges=6, span=4.0, grid=None) -> Chain1:
    """Random canonical chain; with ``grid`` set, endpoints snap to an
    integer lattice so intersections and overlaps occur frequently."""
    out = []
    for _ in range(edges):
        while True:
            a = rng.uniform(-span, span, n)
            b = rng.uniform(-span, span, n)
            if grid:
                a = np.round(a * grid) / grid
                b = np.round(b * grid) / grid
            if not np.allclose(a, b):
                break
        theta = tuple(rng.normal(scale=2.0, size=m))
        out.append(Edge(tuple(a), tuple(b), theta))
    return canonicalize(Chain1(n, m, tuple(out)))


def signed_zero_chain(rng, n=2, m=1, edges=8) -> Chain1:
    """Non-canonical chain on the lattice {-1, -0.0, 0.0, 0.5, 1}^n, so that
    endpoints coincide often and 0.0 and -0.0 both occur; a fifth of the
    multiplicities are signed zeros.  No edge is degenerate."""
    coords = np.array([-1.0, -0.0, 0.0, 0.5, 1.0])
    ends = []
    while len(ends) < edges:
        a, b = coords[rng.integers(5, size=n)], coords[rng.integers(5, size=n)]
        if not np.array_equal(a, b):
            ends.append((a, b))
    Theta = rng.normal(scale=2.0, size=(edges, m))
    zero = rng.random((edges, m)) < 0.2
    Theta[zero] = rng.choice([0.0, -0.0], size=int(zero.sum()))
    return Chain1.from_arrays(n, m, [a for a, _ in ends], [b for _, b in ends], Theta)


def bits(X) -> tuple:
    """Shape and bytes of every array of a chain: equal iff the chains agree
    bit for bit, signs of zeros included."""
    arrays = (X.A, X.B, X.Theta) if isinstance(X, Chain1) else (X.P, X.W)
    return tuple((a.shape, a.tobytes()) for a in arrays)


def random_measure(rng, n=2, m=1, atoms=8, span=4.0, weights=None) -> Chain0:
    pts = rng.uniform(-span, span, (atoms, n))
    if weights is None:
        weights = rng.normal(scale=2.0, size=(atoms, m))
    return Chain0(n, m, tuple(Atom(tuple(p), tuple(w)) for p, w in zip(pts, weights)))


def compatible_pair(rng, n=2, m=1, atoms=8, span=4.0):
    """(mu_minus, mu_plus) with positive weights and equal componentwise totals."""
    wm = rng.uniform(0.2, 2.0, (atoms, m))
    wp = rng.uniform(0.2, 2.0, (atoms, m))
    wp *= wm.sum(axis=0) / wp.sum(axis=0)
    mu_minus = Chain0(n, m, tuple(
        Atom(tuple(p), tuple(w)) for p, w in zip(rng.uniform(-span, span, (atoms, n)), wm)
    ))
    mu_plus = Chain0(n, m, tuple(
        Atom(tuple(p), tuple(w)) for p, w in zip(rng.uniform(-span, span, (atoms, n)), wp)
    ))
    return mu_minus, mu_plus


def path_chain(points, theta) -> Chain1:
    """Polyline through ``points`` carrying constant multiplicity."""
    n, m = len(points[0]), len(theta)
    edges = tuple(Edge(tuple(a), tuple(b), tuple(theta)) for a, b in zip(points, points[1:]))
    return Chain1(n, m, edges)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
