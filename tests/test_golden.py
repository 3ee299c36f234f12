"""Golden outputs: one SHA-256 per case over every reported float in hex.

Each digest covers the energy (``float.hex``) and every coordinate and
multiplicity of every edge, in order, so any change in the last bit of any
output changes it.  The values were recorded before the chain storage became
array-native and must stay fixed; an intentional output change updates them
and says so in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from branchnet import Atom, Chain0, OptimizerConfig, cascade, local_search, p_norm_alpha, shifted_grid, sum_alpha
from branchnet.cli import main
from branchnet.construct import barycenter, bounding_cube, cone
from branchnet.chains import canonicalize
from branchnet.io import save_measure, save_network


def _pair(seed, n, m, atoms):
    rng = np.random.default_rng(seed)
    wm = rng.uniform(0.2, 2.0, (atoms, m))
    wp = rng.uniform(0.2, 2.0, (atoms + 1, m))
    wp *= wm.sum(axis=0) / wp.sum(axis=0)
    pm = rng.uniform(-3.0, 3.0, (atoms, n))
    pp = rng.uniform(-3.0, 3.0, (atoms + 1, n))
    return (Chain0(n, m, tuple(Atom(tuple(p), tuple(w)) for p, w in zip(pm, wm))),
            Chain0(n, m, tuple(Atom(tuple(p), tuple(w)) for p, w in zip(pp, wp))))


def _digest(T, *values) -> str:
    h = hashlib.sha256()
    for v in values:
        h.update(float(v).hex().encode() if isinstance(v, float) else repr(v).encode())
    for e in T.edges:
        h.update(" ".join(float(c).hex() for c in e.a + e.b + e.theta).encode() + b";")
    return h.hexdigest()


COSTS = {"sum_alpha": lambda m: sum_alpha(m, 0.6), "p_norm_alpha": lambda m: p_norm_alpha(m, 2.0, 0.7)}

SEARCH_CASES = [
    (1, 1, "sum_alpha", "cone"),
    (2, 2, "p_norm_alpha", "cone"),
    (3, 3, "sum_alpha", "cone"),
    (4, 1, "p_norm_alpha", "cascade"),
    (5, 2, "sum_alpha", "cascade"),
    (6, 3, "p_norm_alpha", "cascade"),
]

SEARCH_GOLDEN = {
    1: "30809856f02183a9bc2190aea1d97aca35ae1814aedd5e074f81d377794486c6",
    2: "6813ae6826d0cb07dd87f11e3d8e9714f467af276d1b577211237bc8b5ca60e9",
    3: "ebc6590cd7ddab7791c9e7abed578330145729a8b5911c1055af73d99bf4677b",
    4: "c925f56a3e43d28e6eb7791f5b42a0ad45b0a5a34a4e7f7f5fcc1ee0a0efc781",
    5: "f99a3b666ce4318b04c4a9d79ddfc5dbda4ba1c16e13a6cca7a009cb902a2a30",
    6: "17794f065e4e395108b0e60ba92007315530be702856ac24d2c0b4f258b55416",
}


@pytest.mark.parametrize("seed,m,family,init", SEARCH_CASES)
def test_local_search_golden(seed, m, family, init):
    mu_minus, mu_plus = _pair(seed, 2, m, 5)
    T, rep = local_search(mu_minus, mu_plus, COSTS[family](m), OptimizerConfig(max_iters=8, init=init))
    assert _digest(T, rep.energy, rep.mass, rep.mass_bound_constant, rep.iterations, rep.ok) == SEARCH_GOLDEN[seed]


def _unit_square_pair(seed, m, atoms):
    """A solve-shaped pair: ``atoms`` per side in the unit square, equal totals."""
    rng = np.random.default_rng(seed)
    wm, wp = rng.uniform(0.2, 2.0, (2, atoms, m))
    wp *= wm.sum(axis=0) / wp.sum(axis=0)
    return Chain0.from_arrays(2, m, rng.uniform(0, 1, (atoms, 2)), wm), \
        Chain0.from_arrays(2, m, rng.uniform(0, 1, (atoms, 2)), wp)


SOLVE_POOL_GOLDEN = "3e54dff8808fe8225356c432bb328422ebb6decce7d3f370121c1d9699bfbdf1"


def test_solve_pool_golden():
    """Nine default searches shaped like the ``solve`` benchmark's (atoms per
    side 4, 7, 10; m = 1..3; sum_alpha at alpha 0.5, 0.75, 0.95), one digest
    over every network and report: any move that changes a bit on the
    search's path changes it."""
    h = hashlib.sha256()
    for i in range(9):
        m, alpha, atoms = 1 + i % 3, (0.5, 0.75, 0.95)[(i + i // 3) % 3], (4, 7, 10)[i // 3]
        T, rep = local_search(*_unit_square_pair(100 + i, m, atoms), sum_alpha(m, alpha))
        h.update(_digest(T, rep.energy, rep.mass, rep.mass_bound_constant, rep.iterations, rep.ok,
                         rep.stop_reason).encode())
    assert h.hexdigest() == SOLVE_POOL_GOLDEN


CASCADE_GOLDEN = {
    (2, 1): "a8534b19ab203592334d77c2557f2a6fcbef9f4a26c6289f84f86fb3e0a1e9e4",
    (3, 2): "e92ce05dac46138ec65b82a85b7507b849a6976c56901bbb4fdc9e9c09600ef0",
}


@pytest.mark.parametrize("n,m", sorted(CASCADE_GOLDEN))
def test_cascade_golden(n, m):
    mu_minus, mu_plus = _pair(10 + n, n, m, 6)
    nu = mu_plus - mu_minus
    grid = shifted_grid(*bounding_cube(nu.P), [mu_minus, mu_plus], seed=3)
    out = cascade(mu_minus, mu_plus, grid, 3, cost=sum_alpha(m, 0.8))
    cert = out.certificate
    assert _digest(out.chain, cert.energy, cert.bound, cert.inputs_digest) == CASCADE_GOLDEN[(n, m)]


CLI_GOLDEN = {
    "verify": "0893c849d0dbf2ef6ec865990f357b84eee5222f9978d6988811c8800f83f349",
    "flat-bound": "df99679a3e46c77b9da50f409dc6c187c335d1a4d6d92a9531ac297612739332",
    "flat-bound-measure": "c66c3c7a60b9b2338df99ca46bcb86d7c77df3400876f102e401c3c0d999505c",
}


def test_cli_golden(tmp_path, capsys):
    mu_minus, mu_plus = _pair(21, 3, 2, 5)
    nu = mu_plus - mu_minus
    T = canonicalize(cone(nu, barycenter(nu)))
    net, src, snk, div = (str(tmp_path / f) for f in ("net.json", "src.json", "snk.json", "nu.json"))
    save_network(T, net)
    save_measure(mu_minus, src)
    save_measure(mu_plus, snk)
    save_measure(nu, div)
    digests = {}
    for name, argv in (("verify", ["verify", net, src, snk, "--cost", "sum_alpha:alpha=0.6"]),
                       ("flat-bound", ["flat-bound", net]),
                       ("flat-bound-measure", ["flat-bound", div])):
        assert main(argv) == 0
        digests[name] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == CLI_GOLDEN
