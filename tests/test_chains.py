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
    restrict_halfspace,
    _PointRegistry,
    _segment_interactions,
)
from conftest import bits, path_chain, random_chain, signed_zero_chain


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

    def test_vertex_ids_match_first_occurrence_keys(self, rng):
        # a dict keyed by endpoint tuples keeps the first of equal keys, and
        # 0.0 == -0.0, so its sorted keys are the vertices bit for bit
        for k in range(30):
            T = signed_zero_chain(rng, n=2 + k % 2, edges=10)
            ends = [tuple(p) for ab in zip(T.A.tolist(), T.B.tolist()) for p in ab]
            keys = sorted(dict.fromkeys(ends))
            assert T.V.tobytes() == np.array(keys).tobytes()
            assert T.ij.tolist() == [[keys.index(tuple(a)), keys.index(tuple(b))]
                                     for a, b in zip(T.A.tolist(), T.B.tolist())]
            assert not T.V.flags.writeable and not T.ij.flags.writeable
            # canonicalization snaps equal endpoints to one representative
            C = canonicalize(T)
            assert (C.V[C.ij[:, 0]].tobytes(), C.V[C.ij[:, 1]].tobytes()) == (C.A.tobytes(), C.B.tobytes())

    def test_signed_zeros_are_one_vertex(self):
        T = Chain1.from_arrays(2, 1, [[-0.0, 1.0], [2.0, 2.0]], [[1.0, 1.0], [0.0, 1.0]], [[1.0], [1.0]])
        assert T.V.tolist() == [[-0.0, 1.0], [1.0, 1.0], [2.0, 2.0]]
        assert math.copysign(1.0, T.V[0, 0]) == -1.0
        assert T.ij.tolist() == [[0, 1], [2, 0]]
        assert Chain1(3, 2).V.shape == (0, 3) and Chain1(3, 2).ij.shape == (0, 2)

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
        assert any(math.dist(v, (1.0, 1.0)) < 1e-9 for v in T.V.tolist())

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
        assert len(T.V) == 3

    def test_degenerate_edge_rejected(self):
        with pytest.raises(DegenerateEdgeError):
            canonicalize(Chain1(2, 1, (Edge((0.0, 0.0), (0.0, 0.0), (1.0,)),)))

    def test_idempotent(self, rng):
        for _ in range(20):
            T = random_chain(rng, edges=8, m=2, grid=2)
            again = canonicalize(T)
            assert again.edges == T.edges

    def test_idempotent_when_a_merge_makes_the_longest_row(self):
        """A row kept beside shorter inputs stays once their sum is the longest."""
        mu = Chain0.from_arrays(2, 1, [(0.0, 0.0), (0.0, 0.0), (1.0, 0.0)], [(1.0,), (1.0,), (1.5e-12,)])
        once = canonicalize0(mu)
        assert bits(canonicalize0(once)) == bits(once) and len(once.P) == 1
        T = Chain1.from_arrays(2, 1, [(0.0, 0.0), (0.0, 0.0), (5.0, 5.0)], [(1.0, 0.0), (1.0, 0.0), (6.0, 5.0)],
                               [(1.0,), (1.0,), (1.5e-12,)])
        once = canonicalize(T)
        assert bits(canonicalize(once)) == bits(once) and len(once.A) == 1

    def test_boundary_preserved(self, rng):
        for _ in range(20):
            raw = Chain1(2, 2, random_chain(rng, edges=8, m=2, grid=2).edges)
            T = canonicalize(raw)
            assert chain0_close(boundary(raw), boundary(T), tol=1e-9)

    def test_mass_non_increasing(self, rng):
        for _ in range(20):
            raw = Chain1(2, 1, random_chain(rng, edges=8, grid=2).edges + random_chain(rng, edges=8, grid=2).edges)
            assert mass(canonicalize(raw)) <= mass(raw) + 1e-9


def star_cone(rng, n, m, k) -> Chain1:
    """k spokes between a hub and random points, both orientations; every
    bounding box holds the hub, and about a quarter of the spokes run along
    the first spoke's ray, so that they overlap one another."""
    hub = rng.uniform(-1, 1, n)
    P = rng.uniform(-1, 1, (k, n))
    ray = rng.random(k) < 0.25
    P[ray] = hub + rng.choice([0.5, 2.0], (int(ray.sum()), 1)) * (P[0] - hub)
    out = rng.random(k) < 0.5
    H = np.repeat(hub[None], k, axis=0)
    return Chain1.from_arrays(n, m, np.where(out[:, None], H, P), np.where(out[:, None], P, H),
                              rng.normal(size=(k, m)))


def collinear_bundle(rng, n, m, k) -> Chain1:
    """k overlapping segments on one line, in both orientations, at lattice
    or random parameters, and two edges across the line."""
    c, d = rng.uniform(-1, 1, n), rng.normal(size=n) if rng.random() < 0.5 else np.eye(n)[rng.integers(n)]
    s = rng.choice(np.arange(-2.0, 2.25, 0.25), (k, 2)) if rng.random() < 0.5 else rng.uniform(-2, 2, (k, 2))
    s = s[s[:, 0] != s[:, 1]]
    A, B = c + s[:, :1] * d, c + s[:, 1:] * d
    across = c + rng.uniform(-1, 1, (2, 1)) * d + rng.normal(size=(2, n))
    A, B = np.vstack([A, across]), np.vstack([B, 2 * c - across])
    return Chain1.from_arrays(n, m, A, B, rng.normal(size=(len(A), m)))


def near_snap_radius(rng, n, k) -> np.ndarray:
    """k points offset from one center by about EPS_GEOM on each axis."""
    eps = EPS_GEOM
    offsets = np.array([0.0, 0.5, 1.0, 1.0 - 1e-6, 1.0 + 1e-6, 1.5]) * eps
    return rng.uniform(-1, 1, n) + rng.choice(offsets, (k, n)) * rng.choice([-1.0, 1.0], (k, n))


def reference_chains(rng):
    """Chains for the reference comparisons, n = 2..4 and m = 1..3."""
    for k in range(60):
        n, m = 2 + k % 3, 1 + k % 3
        yield signed_zero_chain(rng, min(n, 3), m, edges=10)
        yield star_cone(rng, n, m, 12)
        yield collinear_bundle(rng, n, m, 8)
        yield Chain1.from_arrays(n, m, rng.uniform(-1, 1, (8, n)), rng.uniform(-1, 1, (8, n)), rng.normal(size=(8, m)))
        lattice = rng.integers(0, 3, (2, 8, n)) * 0.5
        keep = np.any(lattice[0] != lattice[1], axis=1)
        yield Chain1.from_arrays(n, m, lattice[0][keep], lattice[1][keep], rng.normal(size=(int(keep.sum()), m)))
        A, B = near_snap_radius(rng, n, 6), rng.uniform(-1, 1, (6, n))
        yield Chain1.from_arrays(n, m, A, B, rng.normal(size=(6, m)))


class TestCanonicalizeReference:
    def test_segment_interactions_match_pair_loop(self, rng):
        for T in reference_chains(rng):
            edge, t = _segment_interactions(T.A, T.B, EPS_GEOM)
            want = [(i, u) for i, ts in enumerate(segment_interactions_reference(T.A, T.B, EPS_GEOM)) for u in ts]
            assert sorted(zip(edge.tolist(), t.tolist())) == sorted(want)

    def test_canonicalize_matches_tuple_keyed_reference_bit_for_bit(self, rng):
        cuts = 0
        for T in reference_chains(rng):
            assert bits(canonicalize(T)) == bits(canonicalize_reference(T))
            assert bits(canonicalize(-T)) == bits(canonicalize_reference(-T))
            cuts += len(canonicalize(T).A) > len(T.A)
        assert cuts > 50

    def test_canonicalize0_matches_tuple_keyed_reference_bit_for_bit(self, rng):
        for k in range(120):
            n, m = 2 + k % 3, 1 + k % 3
            P = near_snap_radius(rng, n, 10) if k % 2 else rng.choice([-0.0, 0.0, 0.5], (10, n))
            W = rng.normal(size=(10, m))
            W[rng.random((10, m)) < 0.2] = rng.choice([0.0, -0.0])
            for mu in (Chain0.from_arrays(n, m, P, W), Chain0.from_arrays(n, m, P, -W)):
                assert bits(canonicalize0(mu)) == bits(canonicalize0_reference(mu))
        assert bits(canonicalize0(Chain0(2, 1))) == bits(canonicalize0_reference(Chain0(2, 1)))


def segment_interactions_reference(A, B, eps):
    """Split parameters in (0, 1) per edge, as lists: the closest points of
    near transverse pairs and the projections of each collinear partner's
    endpoints, appended pair by pair."""
    ne = len(A)
    splits = [[] for _ in range(ne)]
    if ne < 2:
        return splits
    lo, hi = np.minimum(A, B) - eps, np.maximum(A, B) + eps
    D = B - A
    L = np.linalg.norm(D, axis=1)
    U = D / L[:, None]
    ii, jj = np.triu_indices(ne, 1)
    overlap = np.all(lo[ii] <= hi[jj], axis=1) & np.all(lo[jj] <= hi[ii], axis=1)
    ii, jj = ii[overlap], jj[overlap]
    ui, uj = U[ii], U[jj]
    w = A[jj] - A[ii]
    cosa = np.sum(ui * uj, axis=1)
    denom = 1.0 - cosa * cosa
    parallel = np.abs(denom) < 1e-12
    tv = np.nonzero(~parallel)[0]
    if len(tv):
        wu_i = np.sum(w[tv] * ui[tv], axis=1)
        wu_j = np.sum(w[tv] * uj[tv], axis=1)
        s = (wu_i - cosa[tv] * wu_j) / denom[tv]
        t = (cosa[tv] * wu_i - wu_j) / denom[tv]
        gap = np.linalg.norm(A[ii[tv]] + s[:, None] * ui[tv] - A[jj[tv]] - t[:, None] * uj[tv], axis=1)
        Li, Lj = L[ii[tv]], L[jj[tv]]
        ti, tj = s / Li, t / Lj
        near = ((gap <= eps) & (ti > -eps / Li) & (ti < 1.0 + eps / Li)
                & (tj > -eps / Lj) & (tj < 1.0 + eps / Lj))
        for k in np.nonzero(near)[0]:
            i, j = int(ii[tv[k]]), int(jj[tv[k]])
            if eps / L[i] < ti[k] < 1.0 - eps / L[i]:
                splits[i].append(float(ti[k]))
            if eps / L[j] < tj[k] < 1.0 - eps / L[j]:
                splits[j].append(float(tj[k]))
    pl = np.nonzero(parallel)[0]
    if len(pl):
        perp = w[pl] - np.sum(w[pl] * ui[pl], axis=1)[:, None] * ui[pl]
        for k in np.nonzero(np.linalg.norm(perp, axis=1) <= eps)[0]:
            i, j = int(ii[pl[k]]), int(jj[pl[k]])
            for edge, other in ((i, j), (j, i)):
                for endpoint in (A[other], B[other]):
                    t = float(np.dot(endpoint - A[edge], U[edge])) / L[edge]
                    if eps / L[edge] < t < 1.0 - eps / L[edge]:
                        splits[edge].append(t)
    return splits


def canonicalize_reference(T: Chain1) -> Chain1:
    """Canonical form keyed by endpoint tuples in a dict: snap, split each
    edge at its sorted distinct cuts (dropping those within EPS_GEOM of the
    last kept one), orient each piece by tuple order, sum in piece order,
    and drop sums within 1e-12 of the longest multiplicity or sum."""
    reg = _PointRegistry(T.n, EPS_GEOM)
    ends, rows = [], []
    for i, (a, b) in enumerate(zip(map(tuple, T.A.tolist()), map(tuple, T.B.tolist()))):
        a, b = reg.snap(a), reg.snap(b)
        if a != b:
            ends.append((a, b))
            rows.append(i)
    if not rows:
        return Chain1.from_arrays(T.n, T.m, (), (), (), canonical=True)
    Theta = T.Theta[rows]
    A, B = np.array([a for a, _ in ends]), np.array([b for _, b in ends])
    pieces = []
    for k, ((a, b), tlist) in enumerate(zip(ends, segment_interactions_reference(A, B, EPS_GEOM))):
        cuts = []
        for t in sorted(set(tlist)):
            if not cuts or t - cuts[-1] > EPS_GEOM / math.dist(a, b):
                cuts.append(t)
        pts = [a] + [reg.snap(A[k] + t * (B[k] - A[k])) for t in cuts] + [b]
        pieces += [(p, q, k) for p, q in zip(pts, pts[1:]) if p != q]
    acc: dict = {}
    for a, b, k in pieces:
        th = Theta[k]
        if a > b:
            a, b, th = b, a, -th
        acc[a, b] = acc[a, b] + th if (a, b) in acc else th
    eps_w = 1e-12 * max(float(np.linalg.norm(th)) for th in [*Theta, *acc.values()])
    kept = [key for key in sorted(acc) if np.linalg.norm(acc[key]) > eps_w]
    return Chain1.from_arrays(T.n, T.m, [a for a, _ in kept], [b for _, b in kept],
                              np.array([acc[key] for key in kept]).reshape(-1, T.m), canonical=True)


def canonicalize0_reference(mu: Chain0) -> Chain0:
    """Atoms snapped and summed in a dict keyed by position tuples, in order,
    sorted by key, dropping sums within 1e-12 of the longest weight or sum."""
    reg = _PointRegistry(mu.n, EPS_GEOM)
    acc: dict = {}
    for p, w in zip(mu.P.tolist(), mu.W):
        p = reg.snap(p)
        acc[p] = acc[p] + w if p in acc else w
    eps_w = 1e-12 * max((float(np.linalg.norm(w)) for w in [*mu.W, *acc.values()]), default=0.0)
    kept = [p for p in sorted(acc) if np.linalg.norm(acc[p]) > eps_w]
    return Chain0.from_arrays(mu.n, mu.m, kept, [acc[p] for p in kept])


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

    def test_matches_tuple_keyed_reference_bit_for_bit(self, rng):
        chains = [Chain1(2, 1), random_chain(rng, n=3, m=2, edges=8, grid=1)]
        for k in range(60):
            raw = signed_zero_chain(rng, n=2 + k % 2, m=1 + k % 3, edges=10)
            # edges from a vertex to itself, after others there: head and tail sum in order
            loops = Chain1.from_arrays(raw.n, raw.m, raw.B[:4], raw.B[:4], rng.normal(size=(4, raw.m)))
            chains += [raw, canonicalize(raw), -raw, raw + loops]
        for T in chains:
            assert bits(boundary(T)) == bits(boundary_reference(T))


def boundary_reference(T: Chain1) -> Chain0:
    """Boundary keyed by endpoint tuples in a dict: +theta at the head and
    then -theta at the tail of each edge in order, atoms in sorted key
    order, dropping weights within 1e-12 of the longest multiplicity."""
    acc: dict = {}
    for a, b, th in zip(map(tuple, T.A.tolist()), map(tuple, T.B.tolist()), T.Theta):
        for p, s in ((b, 1.0), (a, -1.0)):
            if p in acc:
                acc[p] += s * th
            else:
                acc[p] = s * th
    eps_w = 1e-12 * max((float(np.linalg.norm(th)) for th in T.Theta), default=0.0)
    points = sorted(acc)
    kept = [p for p in points if np.linalg.norm(acc[p]) > eps_w]
    return Chain0.from_arrays(T.n, T.m, kept, [acc[p] for p in kept])


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

    def test_matches_edge_loop_reference_bit_for_bit(self, rng):
        lattice = np.array([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0])
        for k in range(300):
            n, m = 2 + k % 2, 1 + k % 3
            T = signed_zero_chain(rng, n, m, edges=10)
            T = canonicalize(T) if k % 2 else T
            lo = rng.choice(lattice, n)
            box = Box(tuple(lo), tuple(lo + rng.choice([0.0, 0.5, 1.5], n)))
            for complement in (False, True):
                assert bits(restrict(T, box, complement)) == bits(restrict_reference(T, box, complement))
            g, c, y = tuple(rng.choice([-1.0, 0.0, 0.5, 2.0], n)), float(rng.choice([0.0, 0.25])), float(rng.choice(lattice))
            assert bits(restrict_halfspace(T, g, c, y)) == bits(restrict_halfspace_reference(T, g, c, y))

    def test_restrict0(self):
        mu = Chain0(2, 1, (Atom((0.0, 0.0), (1.0,)), Atom((5.0, 5.0), (2.0,))))
        box = Box((-1.0, -1.0), (1.0, 1.0))
        assert restrict0(mu, box).atoms == (Atom((0.0, 0.0), (1.0,)),)
        assert restrict0(mu, box, complement=True).atoms == (Atom((5.0, 5.0), (2.0,)),)


def restrict_reference(T: Chain1, box: Box, complement: bool = False) -> Chain1:
    """Box restriction edge by edge, clipping the parameter range axis by axis."""
    A, B, rows = [], [], []
    for i, (a, b) in enumerate(zip(T.A, T.B)):
        t0, t1, d = 0.0, 1.0, b - a
        for lo, hi, ai, di in zip(box.lo, box.hi, a, d):
            if di == 0.0:
                if not lo <= ai <= hi:
                    t0, t1 = 1.0, 0.0
                continue
            ta, tb = sorted(((lo - ai) / di, (hi - ai) / di))
            t0, t1 = max(t0, ta), min(t1, tb)
        p0 = a + t0 * d if t0 > 0.0 else a
        p1 = a + t1 * d if t1 < 1.0 else b
        if t0 >= t1:
            pieces = [(a, b)] if complement else []
        elif complement:
            pieces = ([(a, p0)] if t0 > 0.0 else []) + ([(p1, b)] if t1 < 1.0 else [])
        else:
            pieces = [] if tuple(p0) == tuple(p1) else [(p0, p1)]
        A += [p for p, _ in pieces]
        B += [q for _, q in pieces]
        rows += [i] * len(pieces)
    return Chain1.from_arrays(T.n, T.m, A, B, T.Theta[rows], canonical=T.canonical)


def restrict_halfspace_reference(T: Chain1, g, c: float, y: float) -> Chain1:
    """Halfspace restriction edge by edge."""
    A, B, rows = [], [], []
    for i, (a, b) in enumerate(zip(T.A, T.B)):
        fa, fb = float(np.dot(a, g)) + c, float(np.dot(b, g)) + c
        if fa > y and fb > y:
            continue
        if fa > y or fb > y:
            z = a + (y - fa) / (fb - fa) * (b - a)
            a, b = (a, z) if fa <= y else (z, b)
            if tuple(a) == tuple(b):
                continue
        A.append(a)
        B.append(b)
        rows.append(i)
    return Chain1.from_arrays(T.n, T.m, A, B, T.Theta[rows], canonical=T.canonical)


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


tiny = st.sampled_from([1.0, -1.0, 2.0, 1e-12, 1.5e-12, -3e-12])
axis_edge_st = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(1, 3), st.booleans(), tiny, tiny)


@settings(max_examples=200, deadline=None)
@given(st.lists(axis_edge_st, min_size=1, max_size=8))
def test_canonicalize_idempotent_on_axis_lattice(edge_data):
    """Axis-aligned lattice edges meet only at lattice points, so a second
    pass changes nothing, whatever the weights' scales."""
    A = np.array([(x, y) for x, y, _, _, _, _ in edge_data], dtype=float)
    B = A + [(k, 0) if horizontal else (0, k) for _, _, k, horizontal, _, _ in edge_data]
    Theta = np.array([th for *_, th0, th1 in edge_data for th in (th0, th1)]).reshape(-1, 2)
    T = canonicalize(Chain1.from_arrays(2, 2, A, B, Theta))
    assert bits(canonicalize(T)) == bits(T)
    mu = canonicalize0(Chain0.from_arrays(2, 2, np.vstack([A, B]), np.vstack([Theta, -2 * Theta])))
    assert bits(canonicalize0(mu)) == bits(mu)


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
