import math

import numpy as np
import pytest

import branchnet.construct as construct
from branchnet.chains import (
    Atom,
    Chain0,
    Chain1,
    boundary,
    canonicalize,
    canonicalize0,
    chain0_close,
    divergence,
    mass,
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

    def test_zero_extent_gets_unit_edge(self):
        mu = Chain0(2, 1, (Atom((0.5, 0.25), (1.0,)), Atom((0.5, 0.25), (2.0,))))
        assert bounding_cube(mu.P) == ((0.5, 0.25), 1.0)

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
    root = (0,) * nu.n
    residual0 = Chain0.from_arrays(nu.n, nu.m, [grid.cell_center(root, 0)], [levels[0][root]])
    return Chain1.from_arrays(nu.n, nu.m, A, B, Theta), canonicalize0(residual0)


def _bits(*arrays):
    return [X.tobytes() for X in arrays]


class TestCascade:
    @pytest.mark.parametrize("layout", ["uniform", "clustered", "lattice"])
    def test_matches_reference_assembly_bit_for_bit(self, rng, monkeypatch, layout):
        # compare the edges in emission order, before canonicalization
        monkeypatch.setattr(construct, "canonicalize", lambda T: T)
        for _ in range(12):
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
            nu = canonicalize0(mp - mm)
            if layout == "clustered":
                _, counts = np.unique(grid.cell_index(nu.P, K + 1), axis=0, return_counts=True)
                assert counts.max() > 8
            res = cascade(mm, mp, grid, K)
            chain, residual0 = _reference_cascade(nu, grid, K)
            assert _bits(res.chain.A, res.chain.B, res.chain.Theta) == _bits(chain.A, chain.B, chain.Theta)
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
