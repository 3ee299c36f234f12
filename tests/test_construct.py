import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import branchnet.construct as construct
from branchnet.chains import (
    EPS_REL,
    Atom,
    Chain0,
    Chain1,
    boundary,
    canonicalize,
    canonicalize0,
    chain0_close,
    divergence,
    mass,
    pow2_scale,
)
from branchnet.construct import (
    DyadicGrid,
    barycenter,
    bounding_cube,
    cascade,
    cone,
    dyadic_approx,
    shifted_grid,
)
from branchnet.costs import BetaEnvelope, sum_alpha
from conftest import compatible_pair, random_measure
from test_scale import _workloads


class TestCone:
    def test_divergence_is_minus_nu(self, rng):
        for _ in range(30):
            nu = canonicalize0(random_measure(rng, n=3, m=2, atoms=10))
            T = cone(nu, (0.5, 0.5, 0.5))
            # div(cone(nu, v)) = -nu away from v (plus the collecting atom at v)
            d = canonicalize0(divergence(T))
            away = Chain0(3, 2, tuple(a for a in d.atoms if a.position != (0.5, 0.5, 0.5)))
            assert chain0_close(away, -nu, tol=1e-12)

    def test_vertex_atom_skipped(self):
        nu = Chain0(2, 1, (Atom((1.0, 1.0), (2.0,)), Atom((0.0, 0.0), (3.0,))))
        T = cone(nu, (1.0, 1.0))
        assert len(T.edges) == 1

    def test_empty_measure(self):
        assert cone(Chain0(2, 1), (0.0, 0.0)).edges == ()



class TestBarycenter:
    @pytest.mark.parametrize("n, m", [(2, 1), (3, 2), (2, 3), (4, 7)])
    def test_matches_per_atom_norms_bit_for_bit(self, rng, n, m):
        for _ in range(20):
            nu = random_measure(rng, n=n, m=m, atoms=int(rng.integers(1, 12)))
            pts = np.array([a.position for a in nu.atoms])
            wts = np.array([np.linalg.norm(a.weight) for a in nu.atoms])
            assert barycenter(nu) == tuple((wts @ pts) / np.sum(wts))

    def test_empty_measure_gives_origin(self):
        assert barycenter(Chain0(3, 2)) == (0.0, 0.0, 0.0)


class TestBoundingCube:
    def test_encloses_atoms(self):
        mu = Chain0(2, 1, (Atom((1.0, -2.0), (1.0,)), Atom((3.0, 2.0), (-1.0,))))
        assert bounding_cube(mu.P) == ((2.0, 0.0), 4.0)

    def test_zero_extent_gets_pow2_scale_edge(self):
        # the edge follows the unit of length: the least power of two >= the largest |coordinate|
        mu = Chain0(2, 1, (Atom((0.5, 0.25), (1.0,)), Atom((0.5, 0.25), (2.0,))))
        assert bounding_cube(mu.P) == ((0.5, 0.25), 0.5)
        assert bounding_cube(np.array([[-3.0, 1.0]])) == ((-3.0, 1.0), 4.0)
        assert bounding_cube(np.zeros((2, 3))) == ((0.0, 0.0, 0.0), 1.0)

    def test_empty_measure_gets_unit_cube_at_origin(self):
        assert bounding_cube(Chain0(3, 1).P) == ((0.0, 0.0, 0.0), 1.0)


class TestShiftedGrid:
    def test_atoms_inside_and_off_skeleton(self, rng):
        mu = random_measure(rng, atoms=40, span=3.0)
        grid = shifted_grid((0.0, 0.0), 6.0, [mu], seed=3)
        for a in mu.atoms:
            assert grid.contains(a.position)
            assert grid.skeleton_distance(a.position, grid.k_max) > 0

    def test_deterministic_given_seed(self, rng):
        mu = random_measure(rng, atoms=10)
        g1 = shifted_grid((0.0, 0.0), 8.0, [mu], seed=7)
        g2 = shifted_grid((0.0, 0.0), 8.0, [mu], seed=7)
        assert g1 == g2

    def test_cell_geometry(self):
        grid = DyadicGrid((0.0, 0.0), 4.0, 5)
        idx = grid.cell_index((0.3, -0.7), 2)
        c = grid.cell_center(idx, 2)
        assert all(abs(ci - pi) <= grid.cell_width(2) / 2 for ci, pi in zip(c, (0.3, -0.7)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_methods_on_arrays_match_per_row(self, rng, n):
        grid = DyadicGrid(tuple(rng.uniform(-1, 1, n)), 3.0, 6, tuple(rng.uniform(0, 0.01, n)))
        # points inside, outside and exactly on the cube's faces
        P = np.vstack([rng.uniform(-3, 3, (40, n)), grid.origin, grid.origin + grid.edge])
        for k in (0, 3, 6):
            idx = grid.cell_index(P, k)
            assert np.array_equal(idx, [grid.cell_index(p, k) for p in P])
            assert grid.cell_center(idx, k).tobytes() == np.array([grid.cell_center(i, k) for i in idx]).tobytes()
            d = grid.skeleton_distance(P, k)
            assert d.shape == (len(P),)
            assert d.tobytes() == np.array([grid.skeleton_distance(p, k) for p in P]).tobytes()
        inside = grid.contains(P)
        assert np.array_equal(inside, [grid.contains(p) for p in P])
        assert inside[-2:].all() and not inside.all()


class TestDyadicApprox:
    def test_total_weight_preserved(self, rng):
        mu = random_measure(rng, m=2, atoms=30, span=2.0)
        grid = shifted_grid((0.0, 0.0), 4.0, [mu], seed=0)
        for k in (0, 2, 4):
            ap = dyadic_approx(mu, grid, k)
            assert np.allclose(ap.total_weight(), mu.total_weight(), atol=1e-12)

    def test_level0_single_atom(self, rng):
        mu = random_measure(rng, atoms=5)
        grid = shifted_grid((0.0, 0.0), 10.0, [mu], seed=0)
        ap = dyadic_approx(mu, grid, 0)
        assert len(ap.atoms) == 1

    def test_refinement_splits_cells(self, rng):
        mu = random_measure(rng, atoms=30, span=3.0)
        grid = shifted_grid((0.0, 0.0), 6.0, [mu], seed=0)
        counts = [len(dyadic_approx(mu, grid, k).atoms) for k in range(0, 6)]
        assert counts == sorted(counts)

    @pytest.mark.parametrize("positions, error", [
        ([(5.0, 0.1), (0.0, 0.1)], r"atom \(5\.0, 0\.1\) outside grid cube"),
        ([(0.0, 0.1), (5.0, 0.1)], r"atom \(0\.0, 0\.1\) on grid skeleton"),
        ([(0.3, 0.1), (6.0, 0.0), (0.0, 0.1)], r"atom \(6\.0, 0\.0\) outside grid cube"),
    ], ids=["outside-first", "skeleton-first", "outside-and-on-skeleton"])
    def test_first_offending_atom_decides_the_error(self, positions, error):
        # origin (-2, -2), level-3 cells of width 0.5: x = 0 is a skeleton line
        grid = DyadicGrid((0.0, 0.0), 4.0, 3)
        mu = Chain0.from_arrays(2, 1, positions, np.ones((len(positions), 1)))
        with pytest.raises(ValueError, match=error):
            dyadic_approx(mu, grid, 1)

    def test_empty_measure(self):
        ap = dyadic_approx(Chain0(2, 3), DyadicGrid((0.0, 0.0), 4.0, 3), 2)
        assert ap.P.shape == (0, 2) and ap.W.shape == (0, 3)


def _row_order_sum(rows, m):
    """The rows added one at a time, in order, starting from -0.0."""
    s = np.full(m, -0.0)
    for w in rows:
        s = s + w
    return s


def _reference_cascade(nu, grid, K):
    """The per-point, dict-of-levels cascade assembly: leaf cells, then
    parent sums level by level, each in row order from -0.0, then tree
    edges for levels 0..K in sorted child order, then the leaf cones.
    Returns the chain before canonicalization and residual0."""
    key = lambda a: tuple(np.asarray(a).tolist())  # noqa: E731
    levels = [dict() for _ in range(K + 2)]
    leaf_atoms = {}
    for i, p in enumerate(nu.P):
        leaf_atoms.setdefault(key(grid.cell_index(p, K + 1)), []).append(i)
    for idx in sorted(leaf_atoms):
        levels[K + 1][idx] = _row_order_sum(nu.W[leaf_atoms[idx]], nu.m)
    for k in range(K, -1, -1):
        acc = {}
        for idx, w in levels[k + 1].items():
            acc.setdefault(tuple(i // 2 for i in idx), []).append((idx, w))
        for parent in sorted(acc):
            levels[k][parent] = _row_order_sum([w for _, w in sorted(acc[parent], key=lambda t: t[0])], nu.m)
    A, B, Theta = [], [], []
    for k in range(K + 1):
        for idx in sorted(levels[k + 1]):
            w = levels[k + 1][idx]
            a = key(grid.cell_center(tuple(i // 2 for i in idx), k))
            b = key(grid.cell_center(idx, k + 1))
            if a != b and np.any(w):
                A.append(a)
                B.append(b)
                Theta.append(w)
    for idx in sorted(leaf_atoms):
        c = key(grid.cell_center(idx, K + 1))
        for i in leaf_atoms[idx]:
            if key(nu.P[i]) != c:
                A.append(c)
                B.append(key(nu.P[i]))
                Theta.append(nu.W[i])
    root = (0,) * nu.n  # a nu whose atoms all cancel has no level-0 cell: its residual is zero
    residual0 = Chain0.from_arrays(nu.n, nu.m, [grid.cell_center(root, 0)], [levels[0].get(root, np.zeros(nu.m))])
    return Chain1.from_arrays(nu.n, nu.m, A, B, Theta), canonicalize0(residual0)


def _bits(*arrays):
    return [X.tobytes() for X in arrays]


def _layout_case(rng, layout):
    """(mu_minus, mu_plus, grid, K) with 9-39 atoms per side: uniform,
    clustered in one leaf cell, or at leaf cell centers of a lattice grid."""
    n, m, K = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(0, 5))
    atoms = int(rng.integers(9, 40))
    if layout == "lattice":
        # atoms at level-(K+1) cell centers, where the leaf cones skip
        # them; integer weights cancel exactly in some cells
        grid = DyadicGrid((0.5,) * n, 1.0, K + 2)
        h = grid.cell_width(K + 1)
        pm = grid.origin + (rng.integers(0, 2 ** (K + 1), (atoms, n)) + 0.5) * h
        pp = grid.origin + (rng.integers(0, 2 ** (K + 1), (atoms, n)) + 0.5) * h
        wm = rng.integers(1, 4, (atoms, m)).astype(float)
        wp = wm[rng.permutation(atoms)]
    else:
        pm, pp = rng.uniform(0, 1, (2, atoms, n))
        wm, wp = rng.uniform(0.1, 2.0, (2, atoms, m))
        wp *= wm.sum(axis=0) / wp.sum(axis=0)
        if layout == "clustered":
            # one leaf cell holds every source: a sum of more than 8
            # rows of one column, which np.sum would add pairwise,
            # must still run in row order
            m, pm, wm, wp = 1, 0.3 + 1e-6 * pm, wm[:, :1], wp[:, :1]
    mm, mp = Chain0.from_arrays(n, m, pm, wm), Chain0.from_arrays(n, m, pp, wp)
    if layout != "lattice":
        grid = shifted_grid((0.5,) * n, 1.0, [mm, mp], k_max=K + 2, seed=int(rng.integers(100)))
    return mm, mp, grid, K


class TestCascade:
    @pytest.mark.parametrize("layout", ["uniform", "clustered", "lattice"])
    def test_matches_reference_assembly_bit_for_bit(self, rng, layout):
        # the raw edges in emission order, and the chain canonicalize makes of them
        for _ in range(12):
            mm, mp, grid, K = _layout_case(rng, layout)
            nu = canonicalize0(mp - mm)
            if layout == "clustered":
                _, counts = np.unique(grid.cell_index(nu.P, K + 1), axis=0, return_counts=True)
                assert counts.max() > 8
            res = cascade(mm, mp, grid, K)
            chain, residual0 = _reference_cascade(nu, grid, K)
            (A, B, Theta), *_ = construct._cascade_edges(nu, grid, K)
            assert _bits(A, B, Theta) == _bits(chain.A, chain.B, chain.Theta)
            want = canonicalize(chain)
            assert _bits(res.chain.A, res.chain.B, res.chain.Theta) == _bits(want.A, want.B, want.Theta)
            assert res.chain.A.shape == want.A.shape and res.chain.canonical
            assert _bits(res.residual0.P, res.residual0.W) == _bits(residual0.P, residual0.W)

    def test_divergence_exact_unit_weights(self, rng):
        for i in range(5):
            atoms = 16
            mk = lambda: Chain0(2, 2, tuple(
                Atom(tuple(rng.uniform(0, 1, 2)), (1.0, 1.0)) for _ in range(atoms)
            ))
            mm, mp = mk(), mk()
            grid = shifted_grid((0.5, 0.5), 1.0, [mm, mp], seed=i, k_max=8)
            res = cascade(mm, mp, grid, 4)
            target = canonicalize0(mm - mp)
            assert chain0_close(divergence(res.chain), target, tol=0.0)

    def test_certificate_bound_holds(self, rng):
        mm, mp = compatible_pair(rng, atoms=12, span=0.45)
        grid = shifted_grid((0.0, 0.0), 1.0, [mm, mp], seed=1, k_max=8)
        res = cascade(mm, mp, grid, 5, cost=sum_alpha(1, 0.75), beta=BetaEnvelope.from_power(0.75))
        assert res.certificate.energy <= res.certificate.bound
        assert res.certificate.bound_kind == "cascade"

    def test_inadmissible_beta_warns(self, rng):
        """x^0.4 in the plane is not admissible (0.4 <= 1 - 1/2): the cascade
        still returns its bound, with a warning; x^0.75 gets none."""
        mm, mp = compatible_pair(rng, atoms=8, span=0.45)
        grid = shifted_grid((0.0, 0.0), 1.0, [mm, mp], seed=1, k_max=8)
        with pytest.warns(UserWarning, match="beta envelope is not admissible"):
            res = cascade(mm, mp, grid, 4, beta=BetaEnvelope.from_power(0.4))
        assert res.certificate.bound_kind == "cascade" and math.isfinite(res.certificate.bound)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cascade(mm, mp, grid, 4, beta=BetaEnvelope.from_power(0.75))

    def test_identical_measures_give_empty_chain(self, rng):
        mu = random_measure(rng, atoms=6, span=0.4, weights=np.ones((6, 1)))
        grid = shifted_grid((0.0, 0.0), 1.0, [mu], seed=0, k_max=8)
        res = cascade(mu, mu, grid, 3)
        assert res.chain.edges == ()

    def test_incompatible_rejected(self, rng):
        mm = Chain0(2, 1, (Atom((0.1, 0.1), (1.0,)),))
        mp = Chain0(2, 1, (Atom((0.2, 0.2), (2.0,)),))
        grid = shifted_grid((0.0, 0.0), 1.0, [mm, mp], seed=0, k_max=8)
        with pytest.raises(ValueError):
            cascade(mm, mp, grid, 3)

    def test_depth_beyond_grid_rejected(self, rng):
        mm, mp = compatible_pair(rng, atoms=4, span=0.4)
        grid = shifted_grid((0.0, 0.0), 1.0, [mm, mp], seed=0, k_max=5)
        with pytest.raises(ValueError, match=r"^depth K=5 outside \[0, 4\]$"):
            cascade(mm, mp, grid, 5)

    @pytest.mark.parametrize("K", [-1, -2])
    def test_negative_depth_rejected(self, rng, K):
        mm, mp = compatible_pair(rng, atoms=4, span=0.4)
        grid = shifted_grid((0.0, 0.0), 1.0, [mm, mp], seed=0, k_max=5)
        with pytest.raises(ValueError, match=rf"^depth K={K} outside \[0, 4\]$"):
            cascade(mm, mp, grid, K)


def _canonical_cascade(mm, mp, grid, K):
    """(cascade's chain, whether cascade called canonicalize, canonicalize of
    the reference assembly's raw chain)."""
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(construct, "canonicalize", lambda T: calls.append(T) or canonicalize(T))
        chain = cascade(mm, mp, grid, K).chain
    return chain, bool(calls), canonicalize(_reference_cascade(canonicalize0(mp - mm), grid, K)[0])


def _assert_same_chain(chain, want):
    assert chain.A.shape == want.A.shape and chain.canonical
    assert _bits(chain.A, chain.B, chain.Theta) == _bits(want.A, want.B, want.Theta)


PLACEMENTS = ("uniform", "center", "diagonal", "collinear", "ray", "skeleton", "pair", "cancel")


def _placed_case(rng, n, m, K, placement):
    """(mu_minus, mu_plus, grid, K): 2-11 atoms per side with integer weights
    (mu_plus's a permutation of mu_minus's), in random leaf cells of a grid
    with a random center and edge, at the given special positions."""
    grid = DyadicGrid(tuple(rng.uniform(-1, 1, n)), float(rng.uniform(0.5, 2.0)), K + 2)
    h, k = grid.cell_width(K + 1), int(rng.integers(2, 12))
    eps = EPS_REL * pow2_scale(np.array([grid.edge]))  # about the snap radius
    cells = rng.integers(0, 2 ** (K + 1), (2 * k, n))
    C = grid.cell_center(cells, K + 1)
    P = C + rng.uniform(-0.45, 0.45, (2 * k, n)) * h
    unit = rng.normal(size=(2 * k, n))
    unit /= np.linalg.norm(unit, axis=1)[:, None]
    if placement == "center":  # atoms at leaf centers, where the leaf cones skip them
        P = np.where(rng.random((2 * k, 1)) < 0.7, C, P)
    elif placement == "diagonal":  # on a main diagonal of the leaf, or 1e-12 or 1e-10 off it
        signs = rng.choice([-1.0, 1.0], (2 * k, n)) / math.sqrt(n)
        off = rng.choice([0.0, 1e-12, 1e-10], (2 * k, 1)) * grid.edge
        P = C + rng.uniform(-0.49, 0.49, (2 * k, 1)) * h * signs + off * unit
    elif placement in ("collinear", "ray"):  # one leaf's atoms on a line, or on a ray from its center
        start = C[0] if placement == "ray" else P[0]
        P[:k] = start + rng.uniform(0.05, 0.4, (k, 1)) * h * unit[0]
    elif placement == "skeleton":  # within a few eps of a level-(K+1) face
        axis = rng.integers(0, n, 2 * k)
        face = grid.origin[axis] + (cells[np.arange(2 * k), axis] + rng.integers(0, 2, 2 * k)) * h
        P[np.arange(2 * k), axis] = face + rng.choice([-8, -2, -0.5, 0.5, 2, 8], 2 * k) * eps
    elif placement == "pair":  # atoms within a few eps of each other
        P[1::2] = P[::2] + rng.choice([0.5, 2.0, 8.0], (k, 1)) * eps * unit[::2]
    elif placement == "cancel":  # each sink shares its source's leaf: cell sums cancel
        P[k:] = C[:k] + rng.uniform(-0.45, 0.45, (k, n)) * h
    W = rng.integers(1, 4, (k, m)).astype(float)
    mm = Chain0.from_arrays(n, m, P[:k], W)
    mp = Chain0.from_arrays(n, m, P[k:], W[rng.permutation(k)])
    return mm, mp, grid, K


@st.composite
def placed_cases(draw):
    n, m, K = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(0, 5))
    placement = draw(st.sampled_from(PLACEMENTS))
    return _placed_case(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n, m, K, placement)


def _leaf_point(grid, K, p, offset):
    """The center of the leaf cell of p, moved by offset leaf widths."""
    idx = grid.cell_index(np.asarray(p, dtype=float), K + 1)
    return grid.cell_center(idx, K + 1) + np.asarray(offset) * grid.cell_width(K + 1)


def _unit_pair(sources, sinks):
    n = len(sources[0])
    return (Chain0.from_arrays(n, 1, sources, np.ones((len(sources), 1))),
            Chain0.from_arrays(n, 1, sinks, np.ones((len(sinks), 1))))


def _special_case(name):
    """A planar unit-weight pair with an atom at one special position, on a
    grid of edge 1 at (0.5, 0.5), where eps = EPS_REL (for `offset`, of edge
    4/3 near 2^20): (mm, mp, grid, K)."""
    eps = EPS_REL
    K = {"coarse-lattice": 30, "near-corner": 20, "parallel-deep": 22}.get(name, 4)
    grid = DyadicGrid((0.5, 0.5), 1.0, K + 2)
    h = grid.cell_width(K + 1)
    far = [_leaf_point(grid, K, (0.0371, 0.0437), (0.31, -0.17)), _leaf_point(grid, K, (0.9629, 0.9563), (-0.23, 0.29))]
    C = _leaf_point(grid, K, (0.4113, 0.6724), (0.0, 0.0))
    d = 2.0 * (grid.cell_index(C, K + 1) & 1) - 1  # the leaf's diagonal, from its parent's center
    v = np.array([0.6, 0.8])  # a direction off every main diagonal
    if name == "near-center":  # snaps to its leaf's center
        sources = [C + 0.5 * eps * v]
    elif name == "near-corner":  # snaps to the parent's center, a corner of its leaf
        sources = [C - 0.5 * h * d + 0.5 * eps * np.array([0.8, 0.6]) * d]
    elif name == "near-atom":  # two atoms less than eps apart, whose edges are not parallel; the
        # atoms span less than the endpoints do, so canonicalize0 of nu snaps within eps/2 only
        C = _leaf_point(grid, K, (0.1813, 0.1324), (0.0, 0.0))
        sources = [C + 1e-5 * v, C + 1e-5 * v + 0.8 * eps * np.array([-0.8, 0.6])]
        far = [[0.5537, 0.2211], [0.5843, 0.1717]]
    elif name == "ray":  # two atoms on a ray from the leaf's center
        sources = [C + 0.1 * h * v, C + 0.3 * h * v]
    elif name == "parallel-deep":  # 9e-7 rad off the leaf's diagonal, toward the parent's center
        theta = 9e-7
        sources = [C + 0.3 * h * (-math.cos(theta) * d + math.sin(theta) * d[::-1] * [-1, 1]) / math.sqrt(2)]
    elif name == "coarse-lattice":  # atoms at leaf centers, half a leaf width < eps apart
        sources = [C, _leaf_point(grid, K, (0.2, 0.3), (0.0, 0.0))]
        far = [_leaf_point(grid, K, p, (0.0, 0.0)) for p in ((0.0371, 0.0437), (0.9629, 0.9563))]
    elif name == "alpha":  # 6e-5 rad off a diagonal edge from the root center through its leaf
        sources = [[0.05350371316987489, 0.05350453895165623]]
        far = [[0.9137, 0.8071], [0.8533, 0.9519]]
        sources.append([0.2612, 0.2431])
    elif name == "offset":  # 7e-3 rad off a diagonal through its leaf, coordinates rounded at 2^20
        grid = DyadicGrid((0.5 + 2.0**20 + 0.1234567, 0.5 + 2.0**20 + 0.7654321), 1.0 + 1 / 3, K + 2)
        sources = [[1048576.2179900333, 1048576.8418654334], [1048576.06985741, 1048576.7117086235]]
        far = [[1048576.8704900334, 1048577.4058654334], [1048576.8100900333, 1048577.5506654333]]
    if name not in ("near-atom", "alpha", "offset"):
        sources.append(far[0])
        far = far[1:] * len(sources)
    return (*_unit_pair(np.array(sources), np.array(far[:len(sources)])), grid, K)


SPECIAL = ("near-center", "near-corner", "near-atom", "ray", "parallel-deep", "coarse-lattice", "alpha", "offset")


class TestCascadeLattice:
    """``cascade`` builds its canonical chain on the lattice, and it is
    ``canonicalize`` of the raw edges byte for byte."""

    @settings(max_examples=150, deadline=None)
    @given(placed_cases())
    def test_matches_canonicalize_of_the_raw_chain(self, case):
        chain, _, want = _canonical_cascade(*case)
        _assert_same_chain(chain, want)

    @pytest.mark.parametrize("name", SPECIAL)
    def test_special_positions_go_through_canonicalize(self, name):
        mm, mp, grid, K = _special_case(name)
        nu = canonicalize0(mp - mm)
        raw = _reference_cascade(nu, grid, K)[0]
        if grid.edge == 1.0:
            assert EPS_REL * pow2_scale(np.concatenate([raw.A, raw.B]), extent=True) == EPS_REL
        chain, fell_back, want = _canonical_cascade(mm, mp, grid, K)
        _assert_same_chain(chain, want)
        assert fell_back

    def test_bench_instance_with_an_atom_near_a_leaf_diagonal(self):
        # seed 2, instance 36 of the cascade benchmark: an atom 2.3e-9 from
        # its leaf's diagonal, at which canonicalize splits that diagonal
        spec = _workloads().WORKLOADS["cascade"].generate(2)[36]
        mm, mp = (Chain0.from_arrays(2, 2, spec[p], spec[w]) for p, w in (("pm", "wm"), ("pp", "wp")))
        grid = shifted_grid((0.5, 0.5), 1.0, [mm, mp], seed=spec["grid_seed"], k_max=8)
        chain, fell_back, want = _canonical_cascade(mm, mp, grid, spec["K"])
        _assert_same_chain(chain, want)
        assert fell_back

    def test_deep_cascade_takes_the_lattice_path(self):
        # 8 atoms off the skeleton at K = 20: no canonicalize, and no cost exponential in K
        K = 20
        grid = DyadicGrid((0.5, 0.5), 1.0, K + 2)
        rng = np.random.default_rng(20)
        P = [_leaf_point(grid, K, p, o) for p, o in zip(rng.uniform(0, 1, (8, 2)), rng.uniform(-0.4, 0.4, (8, 2)))]
        mm, mp = _unit_pair(np.array(P[:4]), np.array(P[4:]))
        chain, fell_back, want = _canonical_cascade(mm, mp, grid, K)
        _assert_same_chain(chain, want)
        assert not fell_back and len(chain.A) > 4 * K
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            cascade(mm, mp, grid, K)
            best = min(best, time.perf_counter() - t0)
        assert best < 0.1
