import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchnet.chains import (
    EPS_GEOM,
    Atom,
    Box,
    Chain0,
    Chain1,
    DegenerateEdgeError,
    Edge,
    boundary,
    canonicalize,
    canonicalize0,
    chain0_close,
    chains_close,
    component_lift,
    divergence,
    is_compatible,
    is_piece,
    mass,
    restrict,
    restrict0,
    _PointRegistry,
)
from conftest import path_chain, random_chain


def seg(a, b, *theta):
    return Chain1(len(a), len(theta), (Edge(a, b, theta),))


class TestArrays:
    def test_edges_and_arrays_agree(self):
        edges = (Edge((0.0, 1.0), (2.0, -0.0), (1.5, -2.0)), Edge((3.0, 4.0), (5.0, 6.0), (0.0, 1e-300)))
        T = Chain1(2, 2, edges)
        assert T == Chain1.from_arrays(2, 2, [e.a for e in edges], [e.b for e in edges], [e.theta for e in edges],
                                       canonical=True)
        assert T.edges == edges
        assert T.A.dtype == T.B.dtype == T.Theta.dtype == np.float64
        assert T.A.shape == T.B.shape == (2, 2) and T.Theta.shape == (2, 2)
        mu = Chain0(3, 1, (Atom((0.0, 1.0, 2.0), (-1.0,)),))
        assert mu.atoms == (Atom((0.0, 1.0, 2.0), (-1.0,)),)
        assert mu == Chain0.from_arrays(3, 1, [[0.0, 1.0, 2.0]], [[-1.0]])
        assert Chain1(2, 1) == Chain1.from_arrays(2, 1, np.zeros((0, 2)), np.zeros((0, 2)), np.zeros((0, 1)))

    def test_arrays_are_read_only_copies(self):
        A, B, Th = np.zeros((1, 2)), np.ones((1, 2)), np.full((1, 1), 2.0)
        T = Chain1.from_arrays(2, 1, A, B, Th)
        A[0, 0], Th[0, 0] = 9.0, 9.0
        assert T.edges == (Edge((0.0, 0.0), (1.0, 1.0), (2.0,)),)
        P, W = np.zeros((1, 2)), np.ones((1, 1))
        mu = Chain0.from_arrays(2, 1, P, W)
        W[0, 0] = 5.0
        assert mu.W[0, 0] == 1.0
        for X in (T.A, T.B, T.Theta, mu.P, mu.W, (-T).Theta, (mu + mu).P):
            with pytest.raises(ValueError):
                X[0, 0] = 3.0
        with pytest.raises(AttributeError):
            T.A = A
        with pytest.raises(AttributeError):
            mu.n = 3

    def test_pickle_and_copy_round_trip(self):
        T = Chain1(2, 1, (Edge((0.0, 1.0), (2.0, 3.0), (-1.5,)),), canonical=True)
        mu = Chain0(2, 1, (Atom((0.0, 1.0), (2.0,)),))
        for X in (T, mu):
            for Y in (pickle.loads(pickle.dumps(X)), copy.deepcopy(X), copy.copy(X)):
                assert Y == X and repr(Y) == repr(X)
        assert not pickle.loads(pickle.dumps(T)).A.flags.writeable

    @pytest.mark.parametrize("A, B, Th", [
        (np.zeros((2, 3)), np.ones((2, 2)), np.ones((2, 1))),  # tails in R^3
        (np.zeros((2, 2)), np.ones((2, 2)), np.ones((2, 2))),  # multiplicities in R^2
        (np.zeros((2, 2)), np.ones((1, 2)), np.ones((2, 1))),  # one head short
        (np.zeros(2), np.ones(2), np.ones(1)),  # 1-D rows
        ([[0.0, math.nan]], [[1.0, 1.0]], [[1.0]]),
        ([[0.0, 0.0]], [[1.0, math.inf]], [[1.0]]),
        ([[0.0, 0.0]], [[1.0, 1.0]], [[-math.inf]]),
    ], ids=["tail-dim", "theta-dim", "count", "flat", "nan-tail", "inf-head", "inf-theta"])
    def test_chain1_rejects_bad_arrays(self, A, B, Th):
        with pytest.raises(ValueError):
            Chain1.from_arrays(2, 1, A, B, Th)

    @pytest.mark.parametrize("P, W", [
        (np.zeros((2, 3)), np.ones((2, 1))),
        (np.zeros((2, 2)), np.ones((3, 1))),
        ([[0.0, math.nan]], [[1.0]]),
        ([[0.0, 0.0]], [[math.inf]]),
    ], ids=["position-dim", "count", "nan-position", "inf-weight"])
    def test_chain0_rejects_bad_arrays(self, P, W):
        with pytest.raises(ValueError):
            Chain0.from_arrays(2, 1, P, W)


class TestCanonicalize:
    def test_orientation_normalized(self):
        T = canonicalize(seg((1.0, 0.0), (0.0, 0.0), 2.0))
        (e,) = T.edges
        assert e.a == (0.0, 0.0) and e.b == (1.0, 0.0)
        assert e.theta == (-2.0,)

    def test_crossing_edges_split(self):
        X = Chain1(2, 1, (
            Edge((0.0, 0.0), (2.0, 2.0), (1.0,)),
            Edge((0.0, 2.0), (2.0, 0.0), (1.0,)),
        ))
        T = canonicalize(X)
        assert len(T.edges) == 4
        assert any(math.dist(v, (1.0, 1.0)) < 1e-9 for v in T.vertices())

    def test_collinear_overlap_merged(self):
        X = Chain1(2, 1, (
            Edge((0.0, 0.0), (2.0, 0.0), (1.0,)),
            Edge((1.0, 0.0), (3.0, 0.0), (1.0,)),
        ))
        T = canonicalize(X)
        assert len(T.edges) == 3
        mid = [e for e in T.edges if e.a == (1.0, 0.0)][0]
        assert mid.theta == (2.0,)

    def test_antiparallel_overlap_cancels(self):
        X = Chain1(2, 1, (
            Edge((0.0, 0.0), (2.0, 0.0), (1.0,)),
            Edge((2.0, 0.0), (0.0, 0.0), (1.0,)),
        ))
        T = canonicalize(X)
        assert T.edges == ()

    def test_t_junction_split(self):
        X = Chain1(2, 1, (
            Edge((0.0, 0.0), (2.0, 0.0), (1.0,)),
            Edge((1.0, 0.0), (1.0, 1.0), (1.0,)),
        ))
        T = canonicalize(X)
        assert len(T.edges) == 3

    def test_nearby_endpoints_snapped(self):
        X = Chain1(2, 1, (
            Edge((0.0, 0.0), (1.0, 0.0), (1.0,)),
            Edge((1.0, 1e-12), (2.0, 0.0), (1.0,)),
        ))
        T = canonicalize(X)
        assert len(T.vertices()) == 3

    def test_degenerate_edge_rejected(self):
        with pytest.raises(DegenerateEdgeError):
            canonicalize(Chain1(2, 1, (Edge((0.0, 0.0), (0.0, 0.0), (1.0,)),)))

    def test_idempotent(self, rng):
        for _ in range(20):
            T = random_chain(rng, edges=8, m=2, grid=2)
            again = canonicalize(T)
            assert again.edges == T.edges

    def test_boundary_preserved(self, rng):
        for _ in range(20):
            raw = Chain1(2, 2, random_chain(rng, edges=8, m=2, grid=2).edges)
            T = canonicalize(raw)
            assert chain0_close(boundary(raw), boundary(T), tol=1e-9)

    def test_mass_non_increasing(self, rng):
        for _ in range(20):
            raw = Chain1(2, 1, random_chain(rng, edges=8, grid=2).edges + random_chain(rng, edges=8, grid=2).edges)
            assert mass(canonicalize(raw)) <= mass(raw) + 1e-9


class TestBoundaryDivergence:
    def test_path_boundary(self):
        T = path_chain([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)], (3.0,))
        b = canonicalize0(boundary(T))
        by_pos = {a.position: a.weight for a in b.atoms}
        assert by_pos == {(0.0, 0.0): (-3.0,), (1.0, 1.0): (3.0,)}

    def test_divergence_is_negative_boundary(self):
        T = path_chain([(0.0, 0.0), (2.0, 1.0)], (1.0, -2.0))
        d, b = divergence(T), boundary(T)
        assert chain0_close(d, Chain0(2, 2, tuple(Atom(a.position, tuple(-w for w in a.weight)) for a in b.atoms)))

    def test_cycle_has_no_boundary(self):
        T = path_chain([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 0.0)], (1.0,))
        assert boundary(T).atoms == () or chain0_close(boundary(T), Chain0(2, 1))

    def test_boundary_of_sum(self, rng):
        S = random_chain(rng, edges=5)
        T = random_chain(rng, edges=5)
        assert chain0_close(boundary(S + T), boundary(S) + boundary(T))


class TestMass:
    def test_segment_mass(self):
        T = seg((0.0, 0.0), (3.0, 4.0), 1.0, 2.0)
        assert mass(T) == pytest.approx(5.0 * math.sqrt(5.0))

    def test_mass_zero_iff_empty(self):
        assert mass(Chain1(2, 1)) == 0.0


class TestRestrict:
    def test_partition_reassembles(self, rng):
        box = Box((-1.0, -1.0), (1.5, 2.0))
        for _ in range(20):
            T = random_chain(rng, edges=8, m=2)
            inside = restrict(T, box)
            outside = restrict(T, box, complement=True)
            assert chains_close(canonicalize(inside + outside), T, tol=1e-9)
            assert mass(inside) + mass(outside) == pytest.approx(mass(T), rel=1e-12)

    def test_edge_clipped_at_face(self):
        T = seg((-1.0, 0.0), (3.0, 0.0), 1.0)
        R = restrict(T, Box((0.0, -1.0), (1.0, 1.0)))
        (e,) = R.edges
        assert e.a == (0.0, 0.0) and e.b == (1.0, 0.0)

    def test_restrict0(self):
        mu = Chain0(2, 1, (Atom((0.0, 0.0), (1.0,)), Atom((5.0, 5.0), (2.0,))))
        box = Box((-1.0, -1.0), (1.0, 1.0))
        assert restrict0(mu, box).atoms == (Atom((0.0, 0.0), (1.0,)),)
        assert restrict0(mu, box, complement=True).atoms == (Atom((5.0, 5.0), (2.0,)),)


class TestPieceAndLift:
    def test_scaled_chain_is_piece(self, rng):
        for lam in (0.0, 0.3, 1.0):
            T = random_chain(rng, edges=6, m=2)
            S = canonicalize(Chain1(2, 2, tuple(
                Edge(e.a, e.b, tuple(lam * t for t in e.theta)) for e in T.edges
            )))
            assert is_piece(S, T)

    def test_opposite_sign_not_piece(self):
        T = canonicalize(seg((0.0, 0.0), (1.0, 0.0), 2.0))
        S = canonicalize(seg((0.0, 0.0), (1.0, 0.0), -1.0))
        assert not is_piece(S, T)

    def test_larger_multiplicity_not_piece(self):
        T = canonicalize(seg((0.0, 0.0), (1.0, 0.0), 1.0))
        S = canonicalize(seg((0.0, 0.0), (1.0, 0.0), 2.0))
        assert not is_piece(S, T)

    def test_sub_segment_is_piece(self):
        T = canonicalize(seg((0.0, 0.0), (2.0, 0.0), 1.0))
        S = canonicalize(seg((0.5, 0.0), (1.5, 0.0), 1.0))
        assert is_piece(S, T)

    def test_component_lift_zeroes_others(self):
        T = canonicalize(seg((0.0, 0.0), (1.0, 0.0), 2.0, -3.0))
        L = component_lift(T, 1)
        (e,) = L.edges
        assert e.theta == (0.0, -3.0)
        assert component_lift(T, 0).edges[0].theta == (2.0, 0.0)


class TestCompatibility:
    def test_equal_totals_compatible(self):
        a = Chain0(2, 2, (Atom((0.0, 0.0), (1.0, 2.0)),))
        b = Chain0(2, 2, (Atom((1.0, 1.0), (0.5, 1.0)), Atom((2.0, 2.0), (0.5, 1.0))))
        assert is_compatible(a, b)

    def test_unequal_totals_incompatible(self):
        a = Chain0(2, 1, (Atom((0.0, 0.0), (1.0,)),))
        b = Chain0(2, 1, (Atom((1.0, 1.0), (2.0,)),))
        assert not is_compatible(a, b)


coord = st.floats(min_value=-4, max_value=4).map(lambda x: round(x, 2))
edge_st = st.tuples(
    st.tuples(coord, coord), st.tuples(coord, coord),
    st.floats(min_value=-3, max_value=3).map(lambda x: round(x, 3)),
).filter(lambda t: t[0] != t[1] and t[2] != 0.0)


@settings(max_examples=50, deadline=None)
@given(st.lists(edge_st, min_size=1, max_size=6))
def test_canonicalize_properties(edge_data):
    raw = Chain1(2, 1, tuple(Edge(a, b, (th,)) for a, b, th in edge_data))
    T = canonicalize(raw)
    assert canonicalize(T).edges == T.edges  # idempotent
    assert chain0_close(boundary(raw), boundary(T), tol=1e-9)  # boundary preserved
    assert mass(T) <= mass(raw) + 1e-9  # merging only cancels
    for e in T.edges:
        assert e.a < e.b  # canonical orientation


class _BruteForceRegistry:
    """Reference snapping: scans every registered point.

    Candidates are visited in (cell, insertion) order, the order in which a
    grid probe meets them, so exact distance ties resolve the same way.
    """

    def __init__(self, eps: float):
        self.eps = eps
        self.h = 4.0 * eps
        self.points: list[tuple[tuple[int, ...], int, tuple[float, ...]]] = []

    def snap(self, p):
        best, best_d = None, self.eps
        for _, _, q in sorted(self.points):
            d = math.dist(p, q)
            if d <= best_d:
                best, best_d = q, d
        if best is not None:
            return best
        key = tuple(math.floor(c / self.h) for c in p)
        self.points.append((key, len(self.points), p))
        return p


@st.composite
def near_face_clouds(draw):
    """Points in R^n (n = 2..6) clustered around a point within 1e-12 of
    cell faces along some axes, with offsets up to 1.5 eps on each axis.
    At 1e7 the coordinates are spaced wider than eps."""
    eps = EPS_GEOM
    h = 4.0 * eps
    n = draw(st.integers(2, 6))
    scale = draw(st.sampled_from([1.0, 1e3, 1e6, 1e7]))
    center = []
    for _ in range(n):
        x = draw(st.floats(-scale, scale))
        if draw(st.booleans()):
            x = math.floor(x / h) * h + draw(st.floats(-1e-12, 1e-12))
        center.append(x)
    offset = st.one_of(
        st.floats(-1.5 * eps, 1.5 * eps),
        st.sampled_from([0.0, eps, -eps, 0.5 * eps, -0.5 * eps, 1e-12, -1e-12]),
    )
    cloud = draw(st.lists(st.lists(offset, min_size=n, max_size=n), min_size=2, max_size=16))
    return [tuple(c + o for c, o in zip(center, off)) for off in cloud]


@settings(max_examples=300, deadline=None)
@given(near_face_clouds())
def test_snap_matches_brute_force(points):
    reg = _PointRegistry(len(points[0]), EPS_GEOM)
    ref = _BruteForceRegistry(EPS_GEOM)
    for p in points:
        assert reg.snap(p) == ref.snap(p)
