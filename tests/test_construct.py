import math

import numpy as np
import pytest

from branchnet.chains import (
    Atom,
    Chain0,
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
        assert bounding_cube(mu) == ((2.0, 0.0), 4.0)

    def test_zero_extent_gets_unit_edge(self):
        mu = Chain0(2, 1, (Atom((0.5, 0.25), (1.0,)), Atom((0.5, 0.25), (2.0,))))
        assert bounding_cube(mu) == ((0.5, 0.25), 1.0)

    def test_empty_measure_gets_unit_cube_at_origin(self):
        assert bounding_cube(Chain0(3, 1)) == ((0.0, 0.0, 0.0), 1.0)


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


class TestCascade:
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
        with pytest.raises(ValueError):
            cascade(mm, mp, grid, 5)
