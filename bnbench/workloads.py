"""The three workloads: seeded inputs, the timed operation, and output checks.

Each workload draws a fixed pool of instances from the seed.  The pool is
stratified, so every seed has the same mix of instance shapes and only the
geometry and weights change; that keeps one seed's timings comparable with
another's.  The benchmark writes the pool through ``branchnet.io`` during
set-up and hands the program only what it reads back.

The checks use numpy on the produced edge arrays and never call the code
under test: divergence is accumulated per vertex, energies and the cone
competitor's energy are recomputed from the cost formulas.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

import branchnet as bn
import branchnet.cli as bn_cli
import branchnet.io as bn_io

ALPHAS = (0.5, 0.75, 0.95)
REL_TOL = 1e-9
# The search can leave two vertices 1.2e-9 apart with opposite flow (seen
# while sizing the solve pool): beyond the library's 1e-9 snapping, inside
# its 1e-8 flat-residual tolerance.  The solve check treats points closer than this
# as one vertex, as that tolerance does.
SOLVE_MERGE_TOL = 1e-8


# ---------------------------------------------------------------------------
# independent reference computations


def edge_arrays(T) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A, B, Theta) of a produced network, read from its edges."""
    n, m = T.n, T.m
    if not T.edges:
        return np.zeros((0, n)), np.zeros((0, n)), np.zeros((0, m))
    return (np.array([e.a for e in T.edges], dtype=float),
            np.array([e.b for e in T.edges], dtype=float),
            np.array([e.theta for e in T.edges], dtype=float))


def sum_alpha_cost(theta: np.ndarray, alpha: float) -> np.ndarray:
    return np.abs(theta).sum(axis=1) ** alpha


def p_norm_cost(theta: np.ndarray, alpha: float) -> np.ndarray:
    return np.sqrt((theta * theta).sum(axis=1)) ** alpha


def network_energy(A, B, Th, cost) -> float:
    return math.fsum(cost(Th) * np.sqrt(((B - A) ** 2).sum(axis=1)))


def cone_energy(pm, wm, pp, wp, cost) -> float:
    """Energy of the cone over mu_plus - mu_minus from the weighted barycenter."""
    P = np.vstack([pp, pm])
    W = np.vstack([wp, -wm])
    norms = np.sqrt((W * W).sum(axis=1))
    v = (norms @ P) / norms.sum()
    return math.fsum(cost(W) * np.sqrt(((P - v) ** 2).sum(axis=1)))


def divergence_residual(A, B, Th, pm, wm, pp, wp, merge_tol: float = 0.0) -> float:
    """Largest per-vertex |div T - (mu_minus - mu_plus)|.

    Vertices are keyed by exact coordinates, or with ``merge_tol`` > 0 as
    the connected groups of points closer than it.
    """
    pts = np.vstack([A, B, pm, pp])
    if merge_tol > 0:
        pairs = cKDTree(pts).query_pairs(merge_tol, output_type="ndarray")
        graph = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(len(pts), len(pts)))
        inv = connected_components(graph, directed=False)[1]
    else:
        inv = np.unique(pts, axis=0, return_inverse=True)[1].reshape(-1)
    e, k = len(A), len(pm)
    acc = np.zeros((inv.max() + 1, Th.shape[1] if len(Th) else wm.shape[1]))
    np.add.at(acc, inv[:e], Th)
    np.add.at(acc, inv[e:2 * e], -Th)
    np.add.at(acc, inv[2 * e:2 * e + k], -wm)
    np.add.at(acc, inv[2 * e + k:], wp)
    return float(np.max(np.abs(acc))) if len(acc) else 0.0


def _compatible_weights(rng, k: int, m: int):
    wm = rng.uniform(0.2, 2.0, (k, m))
    wp = rng.uniform(0.2, 2.0, (k, m))
    wp *= wm.sum(axis=0) / wp.sum(axis=0)
    return wm, wp


def _square_symmetry(P: np.ndarray, which: int) -> np.ndarray:
    """One of the 8 symmetries of the unit square, applied to (k, 2) points."""
    Q = P.copy()
    if which & 1:
        Q[:, 0] = 1.0 - Q[:, 0]
    if which & 2:
        Q[:, 1] = 1.0 - Q[:, 1]
    return Q[:, ::-1].copy() if which & 4 else Q


def _measure(P: np.ndarray, W: np.ndarray):
    return bn.Chain0(P.shape[1], W.shape[1], tuple(bn.Atom(tuple(p), tuple(w)) for p, w in zip(P, W)))


def _write_pair(spec: dict, stem: Path) -> list[tuple[str, str]]:
    files = [("measure", f"{stem}-mm.json"), ("measure", f"{stem}-mp.json")]
    bn_io.save_measure(_measure(spec["pm"], spec["wm"]), files[0][1])
    bn_io.save_measure(_measure(spec["pp"], spec["wp"]), files[1][1])
    return files


class Result:
    """Outcome of one checked operation."""

    def __init__(self, signature, ok: bool, reason: str = "", energy: float = 0.0, competitor: float = 0.0):
        self.signature = signature  # energies, edge counts, verdicts: compared bit for bit
        self.ok = ok
        self.reason = reason
        self.energy = energy
        self.competitor = competitor


# ---------------------------------------------------------------------------
# solve: local search on small planar instances


class Solve:
    name = "solve"
    # every (m, alpha) pair with each of these atom counts per side; an odd
    # count of sizes puts the median inside the middle size, not between two
    atoms = (4, 6, 7, 8, 10)
    pool_size = 45
    warmup = 3
    params = {"n": 2, "m": [1, 2, 3], "atoms_per_side": list(atoms), "alpha": list(ALPHAS),
              "cost": "sum_alpha", "config": "OptimizerConfig(seed=0)", "domain": "unit square",
              "geometry": "fixed base design 20180730; the seed picks a square symmetry and a 1e-3 jitter"}

    # The search's sweep count is chaotic in the geometry: on fresh random
    # pairs one shape's time varies by about 45% between draws, and a pool
    # of 63 varied by 10-17% between seeds.  So the pool is one fixed base
    # design, and the seed moves every atom (a symmetry of the square plus a
    # jitter of up to ``jitter`` in positions and relative weights), which
    # changes every input number but not how hard the instance is.
    design_seed = 20180730
    jitter = 1e-3

    def generate(self, seed: int) -> list[dict]:
        base = np.random.default_rng(self.design_seed)
        rng = np.random.default_rng([seed, 1])
        pool = []
        for i in range(self.pool_size):
            m, alpha, k = 1 + i % 3, ALPHAS[(i // 3) % 3], self.atoms[i // 9]
            wm, wp = _compatible_weights(base, k, m)
            pm, pp = base.uniform(0, 1, (k, 2)), base.uniform(0, 1, (k, 2))
            sym = int(rng.integers(8))
            pm, pp = (np.clip(_square_symmetry(P, sym) + rng.uniform(-self.jitter, self.jitter, P.shape), 0, 1)
                      for P in (pm, pp))
            wm = wm * rng.uniform(1 - self.jitter, 1 + self.jitter, wm.shape)
            wp = wp * rng.uniform(1 - self.jitter, 1 + self.jitter, wp.shape)
            wp *= wm.sum(axis=0) / wp.sum(axis=0)
            pool.append({"m": m, "alpha": alpha, "k": k, "pm": pm, "wm": wm, "pp": pp, "wp": wp})
        return pool

    def write(self, spec: dict, stem: Path) -> list[tuple[str, str]]:
        return _write_pair(spec, stem)

    def load(self, spec: dict, files) -> tuple:
        return (bn_io.load_measure(files[0][1]), bn_io.load_measure(files[1][1]),
                bn.sum_alpha(spec["m"], spec["alpha"]))

    def run(self, loaded):
        mm, mp, cost = loaded
        return bn.local_search(mm, mp, cost, bn.OptimizerConfig(seed=0))

    def check(self, spec: dict, out) -> Result:
        T, report = out
        sig = (report.energy.hex(), len(T.edges), report.iterations, report.ok)
        A, B, Th = edge_arrays(T)
        cost = lambda th: sum_alpha_cost(th, spec["alpha"])  # noqa: E731
        e = network_energy(A, B, Th, cost)
        cone = cone_energy(spec["pm"], spec["wm"], spec["pp"], spec["wp"], cost)
        resid = divergence_residual(A, B, Th, spec["pm"], spec["wm"], spec["pp"], spec["wp"], SOLVE_MERGE_TOL)
        scale = float(spec["wm"].sum() + spec["wp"].sum())
        if resid > REL_TOL * scale:
            return Result(sig, False, f"divergence residual {resid:.3e}")
        if abs(e - report.energy) > REL_TOL * e:
            return Result(sig, False, f"reported energy {report.energy!r} != recomputed {e!r}")
        if e > cone * (1 + REL_TOL):
            return Result(sig, False, f"energy {e!r} above the cone competitor {cone!r}")
        if not report.ok:
            return Result(sig, False, "the search's own verification failed")
        return Result(sig, True, energy=e, competitor=cone)


# ---------------------------------------------------------------------------
# cascade: dyadic cascade with its series bound on unit-weight planar pairs


class Cascade:
    name = "cascade"
    pool_size = 40
    warmup = 2
    # three 64-atom instances (K=6) for every two 256-atom ones (K=7): the
    # median lands among the small, the tail among the large instances
    shapes = ((64, 6), (256, 7), (64, 6), (256, 7), (64, 6))
    params = {"n": 2, "m": 2, "atoms_per_side_and_K": [list(s) for s in shapes[:2]],
              "mix": "3 small : 2 large", "cost": "sum_alpha(2, 0.75)", "beta": "x^0.75",
              "grid": "shifted_grid((0.5, 0.5), 1.0, k_max=8)", "weights": "unit", "domain": "unit square"}

    def generate(self, seed: int) -> list[dict]:
        rng = np.random.default_rng([seed, 2])
        pool = []
        for i in range(self.pool_size):
            k, depth = self.shapes[i % len(self.shapes)]
            pool.append({"k": k, "K": depth, "grid_seed": int(rng.integers(2**31)),
                         "pm": rng.uniform(0, 1, (k, 2)), "wm": np.ones((k, 2)),
                         "pp": rng.uniform(0, 1, (k, 2)), "wp": np.ones((k, 2))})
        return pool

    def write(self, spec: dict, stem: Path) -> list[tuple[str, str]]:
        return _write_pair(spec, stem)

    def load(self, spec: dict, files) -> tuple:
        return (bn_io.load_measure(files[0][1]), bn_io.load_measure(files[1][1]), spec["K"], spec["grid_seed"],
                bn.sum_alpha(2, 0.75), bn.BetaEnvelope.from_power(0.75))

    def run(self, loaded):
        mm, mp, depth, grid_seed, cost, beta = loaded
        grid = bn.shifted_grid((0.5, 0.5), 1.0, [mm, mp], seed=grid_seed, k_max=8)
        return bn.cascade(mm, mp, grid, K=depth, cost=cost, beta=beta)

    def check(self, spec: dict, out) -> Result:
        cert = out.certificate
        sig = (cert.energy.hex(), len(out.chain.edges), cert.bound.hex())
        A, B, Th = edge_arrays(out.chain)
        cost = lambda th: sum_alpha_cost(th, 0.75)  # noqa: E731
        e = network_energy(A, B, Th, cost)
        cone = cone_energy(spec["pm"], spec["wm"], spec["pp"], spec["wp"], cost)
        # unit weights keep every partial sum an integer, so the divergence is exact
        resid = divergence_residual(A, B, Th, spec["pm"], spec["wm"], spec["pp"], spec["wp"])
        if resid != 0.0:
            return Result(sig, False, f"divergence residual {resid:.3e}, expected exactly 0")
        if abs(e - cert.energy) > REL_TOL * e:
            return Result(sig, False, f"certified energy {cert.energy!r} != recomputed {e!r}")
        if not e <= cert.bound:
            return Result(sig, False, f"energy {e!r} above the series bound {cert.bound!r}")
        return Result(sig, True, energy=e, competitor=cone)


# ---------------------------------------------------------------------------
# certify: read and verify a network through the CLI, then its flat bracket


class Certify:
    name = "certify"
    pool_size = 40
    warmup = 2
    cost_spec = "p_norm_alpha:p=2;alpha=0.8"
    # dimension of each position in a block of 8: five n=3 for three n=4,
    # so the median lands among the n=3 and the tail among the n=4 instances
    dims = (3, 4, 3, 3, 4, 3, 4, 3)
    # positions in each block of 8 that are corrupted, and how
    corrupt = {3: "cycle", 6: "multiplicity"}
    params = {"n": "3 or 4 (5:3)", "m": 3, "atoms_per_side": 48, "network": "cone from the weighted barycenter",
              "cost": cost_spec, "corrupted": "2 of every 8 (directed cycle, perturbed multiplicity)",
              "domain": "unit cube"}

    def generate(self, seed: int) -> list[dict]:
        rng = np.random.default_rng([seed, 3])
        pool = []
        for i in range(self.pool_size):
            n, m, k = self.dims[i % 8], 3, 48
            wm, wp = _compatible_weights(rng, k, m)
            pm, pp = rng.uniform(0, 1, (k, n)), rng.uniform(0, 1, (k, n))
            P, W = np.vstack([pp, pm]), np.vstack([wp, -wm])
            norms = np.sqrt((W * W).sum(axis=1))
            v = (norms @ P) / norms.sum()
            A, B, Th = np.repeat(v[None, :], len(P), axis=0), P, W.copy()
            kind = self.corrupt.get(i % 8)
            if kind == "cycle":
                # a directed triangle in one commodity leaves the divergence unchanged
                q = rng.uniform(0, 1, (3, n))
                theta = np.zeros((3, m))
                theta[:, int(rng.integers(m))] = 0.5
                A, B, Th = np.vstack([A, q]), np.vstack([B, np.roll(q, -1, axis=0)]), np.vstack([Th, theta])
            elif kind == "multiplicity":
                Th[int(rng.integers(len(Th))), int(rng.integers(m))] *= 1.001
            pool.append({"n": n, "pm": pm, "wm": wm, "pp": pp, "wp": wp, "A": A, "B": B, "Th": Th,
                         "corruption": kind, "verdict": 4 if kind else 0})
        return pool

    def write(self, spec: dict, stem: Path) -> list[tuple[str, str]]:
        files = [("network", f"{stem}-net.json"), ("measure", f"{stem}-mm.json"),
                 ("measure", f"{stem}-mp.json"), ("measure", f"{stem}-nu.json")]
        n, m = spec["n"], spec["Th"].shape[1]
        edges = tuple(bn.Edge(tuple(a), tuple(b), tuple(t)) for a, b, t in zip(spec["A"], spec["B"], spec["Th"]))
        bn_io.save_network(bn.Chain1(n, m, edges), files[0][1])
        bn_io.save_measure(_measure(spec["pm"], spec["wm"]), files[1][1])
        bn_io.save_measure(_measure(spec["pp"], spec["wp"]), files[2][1])
        bn_io.save_measure(_measure(np.vstack([spec["pp"], spec["pm"]]),
                                    np.vstack([spec["wp"], -spec["wm"]])), files[3][1])
        return files

    def load(self, spec: dict, files) -> tuple:
        # the CLI reads the files itself; the timed operation starts from paths
        return tuple(path for _, path in files)

    def run(self, loaded):
        net, mm, mp, nu = loaded
        outs, codes = [], []
        for argv in (["verify", net, mm, mp, "--cost", self.cost_spec], ["flat-bound", nu]):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                codes.append(bn_cli.main(argv))
            outs.append(buf.getvalue())
        return codes, outs

    def check(self, spec: dict, out) -> Result:
        (verify_code, flat_code), (verify_out, flat_out) = out
        sig = (verify_code, flat_code, verify_out, flat_out)
        if verify_code != spec["verdict"]:
            return Result(sig, False, f"verify exited {verify_code}, expected {spec['verdict']} "
                                      f"({spec['corruption'] or 'clean'} network)")
        if flat_code != 0:
            return Result(sig, False, f"flat-bound exited {flat_code}")
        try:
            report, flat = json.loads(verify_out), json.loads(flat_out)
        except json.JSONDecodeError as exc:
            return Result(sig, False, f"unparsable CLI output: {exc}")
        W = np.vstack([spec["wp"], -spec["wm"]])
        total = float(np.abs(W).sum())
        if not (flat["kind"] == "measure" and 0.0 <= flat["lower"] <= flat["upper"] <= total * (1 + REL_TOL)):
            return Result(sig, False, f"flat bracket [{flat['lower']!r}, {flat['upper']!r}] outside [0, {total!r}]")
        if spec["verdict"]:
            return Result(sig, report["ok"] is False, "" if report["ok"] is False else "corrupted network passed")
        cost = lambda th: p_norm_cost(th, 0.8)  # noqa: E731
        e = network_energy(spec["A"], spec["B"], spec["Th"], cost)
        if abs(report["energy"] - e) > REL_TOL * e:
            return Result(sig, False, f"reported energy {report['energy']!r} != recomputed {e!r}")
        return Result(sig, True, energy=report["energy"], competitor=e)


WORKLOADS = {w.name: w for w in (Solve(), Cascade(), Certify())}
