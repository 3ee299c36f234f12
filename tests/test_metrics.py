import math
import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from branchnet.chains import (
    Atom,
    Box,
    Chain0,
    Chain1,
    Edge,
    boundary,
    canonicalize,
    canonicalize0,
    chain0_close,
    mass,
    restrict,
    restrict0,
    restrict_halfspace,
)
from branchnet.costs import sum_alpha
from branchnet.energy import energy
from branchnet.metrics import (
    FlatBounds,
    _calibration_constant,
    augmentation,
    coarea_check,
    flat_bounds,
    flat_norm_0chain_component,
    ig_identity_mc,
    slice_chain,
)
from branchnet import optimize
from branchnet.construct import GridShiftError
from branchnet.optimize import local_search, w_upper
from conftest import bits, compatible_pair, path_chain, random_chain, random_measure, signed_zero_chain


def dipole(d, w=1.0):
    return Chain0(2, 1, (Atom((0.0, 0.0), (w,)), Atom((d, 0.0), (-w,))))


class TestFlatNorm0Chain:
    @pytest.mark.parametrize("d", [0.5, 1.0, 1.9, 2.0, 3.5, 10.0])
    def test_dipole_matches_two_candidate_oracle(self, d):
        # transport everything (cost d*w) or pay both residuals (cost 2w)
        for w in (1.0, 0.3, 2.5):
            val = flat_norm_0chain_component(dipole(d, w), 0)
            assert val == pytest.approx(min(d, 2.0) * w, abs=1e-9)

    def test_zero_measure(self):
        assert flat_norm_0chain_component(Chain0(2, 1), 0) == 0.0

    def test_unmatched_atom_pays_residual(self):
        nu = Chain0(2, 1, (Atom((1.0, 1.0), (3.0,)),))
        assert flat_norm_0chain_component(nu, 0) == pytest.approx(3.0, abs=1e-12)

    def test_partial_transport(self):
        # positive 2 at origin, negative 1 nearby: ship 1 cheaply, residual 1
        nu = Chain0(2, 1, (Atom((0.0, 0.0), (2.0,)), Atom((0.1, 0.0), (-1.0,))))
        assert flat_norm_0chain_component(nu, 0) == pytest.approx(0.1 + 1.0, abs=1e-9)

    @pytest.mark.parametrize("a, b, d", [(3.0, 1.0, 0.5), (1.0, 2.5, 1.3), (0.7, 0.2, 3.0)])
    def test_unequal_dipole_matches_closed_form(self, a, b, d):
        # ship the smaller side if that is cheaper than paying for it twice; the excess pays 1 per unit
        nu = Chain0(2, 1, (Atom((0.0, 0.0), (a,)), Atom((d, 0.0), (-b,))))
        assert abs(flat_norm_0chain_component(nu, 0) - (min(a, b) * min(d, 2.0) + abs(a - b))) <= 1e-14 * (a + b)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 3), st.floats(0.5, 4.0), st.integers(0, 8), st.integers(0, 8),
           st.sampled_from([-8, 0, 8]), st.booleans(), st.integers(0, 2**32 - 1))
    def test_matches_primal_reference(self, n, m, side, npos, nneg, k, coincident, seed):
        """Random measures in a cube of side 0.5-4, so that some pairs are
        at d >= 2 and some measures have no pair closer.  P != N in general,
        and about one component in four is made one-sided."""
        rng = np.random.default_rng(seed)
        P = rng.uniform(0.0, side, (npos + nneg, n))
        W = np.ldexp(rng.uniform(0.1, 3.0, (npos + nneg, m)), k)
        W[npos:] *= -1.0
        W *= rng.choice([-1.0, 1.0], m)  # either side may be the larger
        one_sided = rng.uniform(size=m) < 0.25
        W[:, one_sided] = np.abs(W[:, one_sided])
        if coincident and npos and nneg:
            P[npos] = P[0]  # a positive and a negative atom at distance 0
        nu = Chain0.from_arrays(n, m, P, W)
        for j in range(m):
            total = float(np.abs(W[:, j]).sum())
            assert abs(flat_norm_0chain_component(nu, j) - flat_norm_reference(nu, j)) <= 1e-9 * total

    def test_lp_has_a_column_per_atom_and_a_row_per_close_pair(self, rng, monkeypatch):
        calls = []
        monkeypatch.setattr(scipy.optimize, "linprog",
                            lambda *args, **kw: calls.append((args, kw)) or linprog(*args, **kw))
        for n, npos, nneg, side in ((2, 5, 4, 3.0), (3, 7, 3, 2.5), (1, 4, 6, 6.0)):
            P = rng.uniform(0.0, side, (npos + nneg, n))
            nu = Chain0.from_arrays(n, 1, P, np.r_[rng.uniform(0.5, 2.0, npos), -rng.uniform(0.5, 2.0, nneg)][:, None])
            D = np.linalg.norm(P[:npos, None, :] - P[None, npos:, :], axis=2)
            close = {(i, npos + kk) for i, kk in zip(*np.nonzero(D < 2.0))}
            assert 0 < len(close) < npos * nneg
            calls.clear()
            flat_norm_0chain_component(nu, 0)
            ((c,), kw), = calls
            A = kw["A_ub"].tocsr()
            assert len(c) == A.shape[1] == npos + nneg != npos * nneg
            assert A.shape[0] == len(kw["b_ub"]) == len(close)
            assert {tuple(sorted(A[r].indices)) for r in range(A.shape[0])} == close

    def test_far_pairs_need_no_lp(self, monkeypatch):
        def refuse(*args, **kw):
            raise AssertionError("linprog called with no pair at d < 2")

        monkeypatch.setattr(scipy.optimize, "linprog", refuse)
        nu = Chain0.from_arrays(2, 2, [[0.0, 0.0], [2.0, 0.0], [0.0, 3.0], [5.0, 5.0]],
                                [[1.5, 0.0], [-0.5, 1.0], [-2.0, -1.0], [0.25, 0.0]])
        assert flat_norm_0chain_component(nu, 0) == 1.5 + 0.25 + 0.5 + 2.0
        assert flat_norm_0chain_component(nu, 1) == 2.0


def flat_norm_reference(nu: Chain0, j: int) -> float:
    """The primal transport LP, one flow variable per (positive, negative)
    pair: shipping a unit at cost d saves the two residual units it would
    otherwise leave, so each flow costs d - 2 on top of P + N."""
    w = nu.W[:, j]
    src, dst = nu.P[w > 0], nu.P[w < 0]
    supply, demand = w[w > 0], -w[w < 0]
    total = math.fsum(supply) + math.fsum(demand)
    if not len(supply) or not len(demand):
        return total
    d = np.linalg.norm(src[:, None, :] - dst[None, :, :], axis=2)
    A = np.vstack([np.kron(np.eye(len(src)), np.ones(len(dst))), np.kron(np.ones(len(src)), np.eye(len(dst)))])
    res = linprog((d - 2.0).ravel(), A_ub=A, b_ub=np.concatenate([supply, demand]), bounds=(0, None),
                  method="highs")
    assert res.success, res.message
    return total + res.fun


class TestFlatBounds:
    def test_bracket_ordering(self, rng):
        for _ in range(20):
            nu = canonicalize0(random_measure(rng, m=3, atoms=8))
            fb = flat_bounds(nu)
            assert fb.lower == max(fb.per_component)
            assert fb.upper == pytest.approx(sum(fb.per_component))
            assert fb.lower <= fb.upper + 1e-12

    def test_flat_leq_mass(self, rng):
        for _ in range(20):
            nu = canonicalize0(random_measure(rng, m=2, atoms=8))
            fb = flat_bounds(nu)
            for j, val in enumerate(fb.per_component):
                comp_mass = math.fsum(abs(a.weight[j]) for a in nu.atoms)
                assert val <= comp_mass + 1e-9

    def test_chain1_upper_is_mass(self, rng):
        T = random_chain(rng, edges=6, m=2)
        fb = flat_bounds(T)
        assert fb.upper <= mass(T) * 2 + 1e-9  # sum of component masses
        assert not fb.exact

    def test_flat_monotone_under_boundary(self, rng):
        for _ in range(20):
            T = random_chain(rng, edges=6, m=2)
            assert flat_bounds(boundary(T)).upper <= flat_bounds(T).upper + 1e-9

    def test_invalid_bracket_rejected(self):
        with pytest.raises(AssertionError):
            FlatBounds(5.0, 1.0, (1.0, 1.0))

    @pytest.mark.parametrize("k", [-60, 0, 60])
    def test_ordering_is_checked_at_every_weight_scale(self, k):
        """Each bracket breaks one ordering by half its weight scale 2^k;
        the checks' slack is relative to that scale, so every one is refused."""
        s = math.ldexp(1.0, k)
        for lower, upper, per_component in ((0.5 * s, 2 * s, (s, s)),  # lower below a component
                                            (s, 3 * s, (s, s)),  # upper above their sum
                                            (2 * s, s, (s,))):  # lower above upper
            with pytest.raises(AssertionError):
                FlatBounds(lower, upper, per_component)
        FlatBounds(s, 2 * s, (s, s))


class TestSlice:
    def test_single_crossing(self):
        T = canonicalize(Chain1(2, 1, (Edge((0.0, 0.0), (1.0, 0.0), (2.0,)),)))
        sl = slice_chain(T, [1.0, 0.0], 0.5)
        assert len(sl.atoms) == 1
        (a,) = sl.atoms
        assert a.position == pytest.approx((0.5, 0.0)) and a.weight == (2.0,)

    def test_parallel_edge_no_atom(self):
        T = canonicalize(Chain1(2, 1, (Edge((0.0, 1.0), (1.0, 1.0), (2.0,)),)))
        assert slice_chain(T, [0.0, 1.0], 0.5).atoms == ()

    def test_orientation_signs(self):
        # V-shape: down then up; f = x2 decreasing then increasing
        T = canonicalize(path_chain([(0.0, 1.0), (1.0, 0.0), (2.0, 1.0)], (1.0,)))
        sl = slice_chain(T, [0.0, 1.0], 0.5)
        weights = sorted(a.weight[0] for a in sl.atoms)
        assert weights == [-1.0, 1.0]

    def test_nongeneric_level_warns(self):
        T = canonicalize(path_chain([(0.0, 0.0), (1.0, 1.0)], (1.0,)))
        with pytest.warns(UserWarning):
            slice_chain(T, [1.0, 0.0], 0.0)

    def _halfspace_restrict0(self, mu, g, y):
        g = np.asarray(g)
        return Chain0(mu.n, mu.m, tuple(a for a in mu.atoms if float(g @ a.position) <= y))

    def test_slicing_identity(self, rng):
        # <T,f,y> = boundary(T restricted to {f<=y}) - (boundary T) restricted
        for _ in range(25):
            T = random_chain(rng, edges=6, m=2)
            g = rng.normal(size=2)
            y = float(rng.uniform(-2, 2))
            sl = slice_chain(T, g, y)
            half = restrict_halfspace(T, g, 0.0, y)
            rhs = canonicalize0(boundary(half) - self._halfspace_restrict0(boundary(T), g, y))
            assert chain0_close(sl, rhs, tol=1e-9)

    def test_slice_restrict_compatibility(self, rng):
        box = Box((-2.0, -2.0), (1.0, 3.0))
        for _ in range(15):
            T = random_chain(rng, edges=6)
            g, y = [1.0, 0.3], 0.4
            lhs = slice_chain(restrict(T, box), g, y)
            rhs = restrict0(slice_chain(T, g, y), box)
            assert chain0_close(lhs, rhs, tol=1e-9)

    def test_matches_edge_loop_reference_bit_for_bit(self, rng):
        cases = [(Chain1(3, 2), [1.0, 0.0, 0.0], 0.0)]  # no edges
        for k in range(240):
            n, m = 2 + k % 3, 1 + k % 3
            if k % 2:
                T = signed_zero_chain(rng, n, m, edges=12)  # levels on the lattice hit vertices
            else:
                T = Chain1.from_arrays(n, m, rng.uniform(-1, 1, (12, n)), rng.uniform(-1, 1, (12, n)),
                                       rng.normal(size=(12, m)))
            g = rng.choice([-1.0, 0.0, 0.5, 1.0, 2.0], n) if k % 4 == 1 else rng.normal(size=n)
            y = float(rng.choice([-0.25, 0.0, 0.5, 0.75, 5.0]))  # 5.0: above every vertex, an empty slice
            cases.append((T if k % 3 else canonicalize(T), g, y))
        empty = hits = 0
        for T, g, y in cases:
            with warnings.catch_warnings(record=True) as got:
                warnings.simplefilter("always")
                sl = slice_chain(T, g, y)
            with warnings.catch_warnings(record=True) as want:
                warnings.simplefilter("always")
                ref = slice_chain_reference(T, g, y)
            assert bits(sl) == bits(ref)
            assert [str(w.message) for w in got] == [str(w.message) for w in want]
            empty += not len(sl.P)
            hits += len(got)
        assert 10 < empty < len(cases) - 10 and 10 < hits < len(cases) - 10


def slice_chain_reference(T: Chain1, g, y: float, offset: float = 0.0) -> Chain0:
    """Slice edge by edge: an atom at each crossing, weight +theta where f
    increases along the edge and -theta where it decreases."""
    gv = np.asarray(g, dtype=float)
    if not len(T.A):
        return Chain0(T.n, T.m, ())
    A, B, Th = T.A, T.B, T.Theta
    fa = A @ gv + offset
    fb = B @ gv + offset
    eps = 1e-9 * (max(fa.max(), fb.max()) - min(fa.min(), fb.min()))  # relative to the range of f, unclamped
    if np.any(np.abs(fa - y) <= eps) or np.any(np.abs(fb - y) <= eps):
        warnings.warn("slice level hits a vertex; perturbing y", stacklevel=2)
        y = y + 2 * eps
        if np.any(np.abs(fa - y) <= eps) or np.any(np.abs(fb - y) <= eps):
            y = y - 4.1 * eps
    P, W = [], []
    for i in range(len(A)):
        lo, hi = min(fa[i], fb[i]), max(fa[i], fb[i])
        if not (lo < y < hi):
            continue
        t = (y - fa[i]) / (fb[i] - fa[i])
        P.append(A[i] + t * (B[i] - A[i]))
        W.append((1.0 if fb[i] > fa[i] else -1.0) * Th[i])
    return canonicalize0(Chain0.from_arrays(T.n, T.m, P, W))


class TestCoarea:
    def test_aligned_segment_equality(self):
        T = canonicalize(Chain1(2, 1, (Edge((0.0, 0.0), (1.0, 0.0), (2.0,)),)))
        integral, bound = coarea_check(T, [1.0, 0.0])
        assert integral == pytest.approx(2.0) and bound == pytest.approx(2.0)

    def test_orthogonal_segment_zero(self):
        T = canonicalize(Chain1(2, 1, (Edge((0.0, 0.0), (0.0, 1.0), (2.0,)),)))
        integral, _ = coarea_check(T, [1.0, 0.0])
        assert integral == 0.0

    def test_inequality_random(self, rng):
        for _ in range(25):
            T = random_chain(rng, edges=6, m=2)
            g = rng.normal(size=2) * 3
            integral, bound = coarea_check(T, g)
            assert integral <= bound * (1 + 1e-12)

    def test_integral_matches_slice_quadrature(self, rng):
        T = random_chain(rng, edges=4)
        g = [0.8, -0.5]
        ys = np.linspace(-6, 6, 4001)
        quad = np.trapezoid([mass(slice_chain(T, g, float(y))) for y in ys], ys)
        integral, _ = coarea_check(T, g)
        assert integral == pytest.approx(quad, rel=1e-2)

    def test_empty_chain(self):
        empty = Chain1(2, 1, canonical=True)
        assert coarea_check(empty, [1.0, 0.0]) == (0.0, 0.0)
        with pytest.raises(ValueError, match="gradient of length 3"):
            coarea_check(empty, [1.0, 0.0, 0.0])


class TestAugmentation:
    def test_boundary_augmentation_vanishes(self, rng):
        for _ in range(10):
            T = random_chain(rng, edges=7, m=3)
            assert np.allclose(augmentation(boundary(T)), 0.0, atol=1e-12)

    def test_single_atom(self):
        nu = Chain0(2, 2, (Atom((0.0, 0.0), (1.0, 2.0)),))
        assert augmentation(nu).tolist() == [1.0, 2.0]

    def test_compatible_difference_vanishes(self, rng):
        mm, mp = compatible_pair(rng, m=2)
        assert np.allclose(augmentation(mm - mp), 0.0, atol=1e-12)

    def test_bounded_by_flat_upper(self, rng):
        for _ in range(10):
            nu = canonicalize0(random_measure(rng, m=2, atoms=6))
            fb = flat_bounds(nu)
            assert float(np.linalg.norm(augmentation(nu))) <= fb.upper * (1 + 1e-9) + 1e-12


class TestIntegralGeometric:
    def test_unit_segment(self):
        T = canonicalize(Chain1(2, 1, (Edge((0.0, 0.0), (1.0, 0.0), (1.0,)),)))
        est, exact, rel = ig_identity_mc(T, sum_alpha(1, 1.0), samples=200_000, seed=0)
        assert exact == pytest.approx(1.0)
        assert rel < 5e-3

    def test_empty_chain(self):
        est, exact, rel = ig_identity_mc(Chain1(2, 1, (), canonical=True), sum_alpha(1, 0.5))
        assert (est, exact, rel) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("samples", [0, -5])
    def test_needs_a_sample(self, samples):
        T = canonicalize(Chain1(2, 1, (Edge((0.0, 0.0), (1.0, 0.0), (1.0,)),)))
        with pytest.raises(ValueError, match="samples"):
            ig_identity_mc(T, sum_alpha(1, 1.0), samples=samples)

    def test_random_chain_converges(self, rng):
        T = random_chain(rng, edges=6, m=2)
        _, _, rel = ig_identity_mc(T, sum_alpha(2, 0.7), samples=400_000, seed=1)
        assert rel < 0.01

    def test_non_canonical_input_compared_on_its_canonical_form(self):
        # opposite orientations of one segment cancel: the chain is zero
        back_and_forth = Chain1(2, 1, (Edge((0.0, 0.0), (1.0, 0.0), (1.0,)), Edge((1.0, 0.0), (0.0, 0.0), (1.0,))))
        assert ig_identity_mc(back_and_forth, sum_alpha(1, 0.5), samples=1000) == (0.0, 0.0, 0.0)
        # overlapping collinear edges: the overlap carries multiplicity 2
        overlap = Chain1(2, 1, (Edge((0.0, 0.0), (2.0, 0.0), (1.0,)), Edge((1.0, 0.0), (3.0, 0.0), (1.0,))))
        est, exact, rel = ig_identity_mc(overlap, sum_alpha(1, 0.5), samples=200_000, seed=0)
        assert exact == pytest.approx(2.0 + 2.0**0.5)
        assert rel < 5e-3
        assert (est, exact, rel) == ig_identity_mc(canonicalize(overlap), sum_alpha(1, 0.5), samples=200_000, seed=0)

    def test_calibration_constant_closed_form(self):
        # c(n,1) = 1 / E|v_1| on the unit sphere of R^n
        want = (1.0, math.pi / 2, 2.0, 3 * math.pi / 4, 8 / 3)
        for n, c in enumerate(want, start=1):
            assert _calibration_constant(n) == pytest.approx(c, rel=4 * np.finfo(float).eps, abs=0)
        assert _calibration_constant(2) == math.pi / 2

    @pytest.mark.parametrize("n", [3, 4])
    def test_random_chain_converges_in_higher_dimensions(self, rng, n):
        for _ in range(3):
            T = random_chain(rng, n=n, edges=6, m=2)
            _, _, rel = ig_identity_mc(T, sum_alpha(2, 0.7), samples=200_000, seed=n)
            assert rel < 0.01

    def test_deterministic_given_seed(self, rng):
        T = random_chain(rng, edges=4)
        a = ig_identity_mc(T, sum_alpha(1, 0.8), samples=50_000, seed=9)
        b = ig_identity_mc(T, sum_alpha(1, 0.8), samples=50_000, seed=9)
        assert a == b


class TestWUpper:
    def test_identical_measures(self, rng):
        mu = random_measure(rng, atoms=5)
        assert w_upper(mu, mu, sum_alpha(1, 0.8)) == 0.0

    def test_two_atoms_bounded_by_segment(self):
        w, d, alpha = 1.7, 3.0, 0.6
        mm = Chain0(2, 1, (Atom((0.0, 0.0), (w,)),))
        mp = Chain0(2, 1, (Atom((d, 0.0), (w,)),))
        assert w_upper(mm, mp, sum_alpha(1, alpha)) <= w**alpha * d * (1 + 1e-9)

    def test_incompatible_rejected(self):
        mm = Chain0(2, 1, (Atom((0.0, 0.0), (1.0,)),))
        mp = Chain0(2, 1, (Atom((1.0, 0.0), (2.0,)),))
        with pytest.raises(ValueError):
            w_upper(mm, mp, sum_alpha(1, 0.5))

    def test_grid_shift_failure_falls_back_to_local_search(self, rng, monkeypatch):
        def no_shift(*args, **kwargs):
            raise GridShiftError(100, 0.0)

        mm, mp = compatible_pair(rng, atoms=4)
        cost = sum_alpha(1, 0.7)
        T, _ = local_search(mm, mp, cost)
        monkeypatch.setattr(optimize, "shifted_grid", no_shift)
        with pytest.warns(UserWarning, match="local search alone"):
            assert w_upper(mm, mp, cost) == energy(T, cost)

    def test_cascade_errors_propagate(self, rng, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("cascade failed")

        mm, mp = compatible_pair(rng, atoms=4)
        monkeypatch.setattr(optimize, "cascade", broken)
        with pytest.raises(RuntimeError, match="cascade failed"):
            w_upper(mm, mp, sum_alpha(1, 0.7))
