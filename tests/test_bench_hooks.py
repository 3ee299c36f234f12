"""The benchmark's per-layer hooks (``bnbench/tracing.py``) find every
function they wrap and can read the arguments and results they count.

The tracer wraps private functions by name, so renaming one, or moving an
argument it reads, would silently turn that layer's metrics into nulls.
A tiny local search, cascade and ``branchnet verify`` run under the tracer
catch both."""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import numpy as np

import branchnet as bn
from branchnet import cli
from branchnet import io as bn_io
from conftest import compatible_pair

TRACING = Path(__file__).resolve().parents[1] / "bnbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("bnbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_hook_finds_its_target_and_reads_its_quantities(tmp_path, rng):
    tracing = _tracing_module()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        mm, mp = compatible_pair(rng, atoms=4)
        bn.local_search(mm, mp, bn.sum_alpha(1, 0.5), bn.OptimizerConfig(seed=0))
        grid = bn.shifted_grid((0.0, 0.0), 16.0, [mm, mp], seed=0, k_max=8)
        result = bn.cascade(mm, mp, grid, K=3, cost=bn.sum_alpha(1, 0.75), beta=bn.BetaEnvelope.from_power(0.75))
        net, fm, fp = (str(tmp_path / name) for name in ("net.json", "mm.json", "mp.json"))
        bn_io.save_network(result.chain, net)
        bn_io.save_measure(mm, fm)
        bn_io.save_measure(mp, fp)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["verify", net, fm, fp, "--cost", "sum_alpha:alpha=0.75"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.missing == {}
    assert tracer.bad_quantities == {}
    metrics = tracer.metrics()
    assert all(m["value"] is not None for m in metrics.values())
    # a move table bound at import time would hold the unwrapped moves: their spans would read no call
    for span in ("chains.snap", "chains.canonicalize", "chains.canonicalize0", "energy.energy", "optimize.remove_cycles",
                 "optimize.straighten", "optimize.relocate_branch_points", "optimize.apply_merge",
                 "optimize.merge_candidates", "optimize.verify_solution", "construct.cascade", "metrics.flat_lp",
                 "io.load", "io.save", "cli.main"):
        assert metrics[f"{span}.calls"]["value"] > 0, span
    assert np.isfinite(metrics["optimize.apply_merge.useful_ratio"]["value"])
