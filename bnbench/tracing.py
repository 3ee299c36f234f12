"""Per-layer spans recorded by wrapping branchnet functions at run time.

Nothing under ``src/`` knows about tracing.  ``Tracer.install`` replaces
each target function with a timing wrapper in *every* branchnet module
that holds a reference to it, because names are imported by value:
``canonicalize`` lives in ``chains`` but is also bound in ``optimize``,
``construct``, ``metrics``, ``cli`` and the package itself, and
``evaluate`` in ``optimize`` and ``energy``.  Rebinding only the defining
module would leave those nested calls unrecorded.

A span's self time is its duration minus the time covered by the spans it
caused.  Work the benchmark itself does inside a span (the energies behind
``optimize.apply_merge.useful_ratio``) runs with the clock paused, so it is
charged to no span and to no traced operation.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from contextlib import contextmanager


def _size(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])}


def _load_size(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _pairs(args, kwargs, result):
    e = len(args[0])
    return {"pairs": e * (e - 1) // 2}


def _canon(args, kwargs, result):
    return {"edges_in": len(args[0].edges), "edges_out": len(result.edges)}


def _canon0(args, kwargs, result):
    return {"atoms_in": len(args[0].atoms)}


def _search(args, kwargs, result):
    config = args[3] if len(args) > 3 else kwargs.get("config")
    limit = config.max_iters if config is not None else importlib.import_module(
        "branchnet.optimize").OptimizerConfig().max_iters
    iters = result[1].iterations
    # the report cannot tell "converged on the last sweep" from "stopped
    # at the limit", so this counts searches that used every sweep allowed
    return {"sweeps": iters, "hit_max_iters": int(iters >= limit)}


def _candidates(args, kwargs, result):
    return {"candidates": len(result)}


def _cascade(args, kwargs, result):
    return {"edges_out": len(result.chain.edges)}


def _tries(args, kwargs, result):
    return {"tries": result.tries_used}


def _lp_vars(args, kwargs, result):
    nu, j = args[0], args[1]
    pos = sum(1 for a in nu.atoms if a.weight[j] > 0)
    neg = sum(1 for a in nu.atoms if a.weight[j] < 0)
    return {"vars": pos * neg}


def _merge_accepted(args, kwargs, result):
    # the local search keeps a merge iff it lowers the energy by rel_tol
    energy = importlib.import_module("branchnet.energy").energy
    T, cost, config = args[0], args[4], args[5]
    before, after = energy(T, cost), energy(result, cost)
    return {"accepted": int(after < before * (1 - config.rel_tol))}


# span name, defining module, attribute (Class.method for methods),
# per-call quantities, and the quantities reported for the span
SPANS = [
    ("chains.segment_interactions", "branchnet.chains", "_segment_interactions", _pairs, ("pairs",)),
    ("chains.snap", "branchnet.chains", "_PointRegistry.snap", None, ()),
    ("chains.canonicalize", "branchnet.chains", "canonicalize", _canon, ("edges_in", "edges_out")),
    ("chains.canonicalize0", "branchnet.chains", "canonicalize0", _canon0, ("atoms_in",)),
    ("costs.evaluate", "branchnet.costs", "evaluate", None, ()),
    ("energy.mass_bound_constant", "branchnet.energy", "mass_bound_constant", None, ()),
    ("energy.energy", "branchnet.energy", "energy", None, ()),
    ("optimize.local_search", "branchnet.optimize", "local_search", _search, ("sweeps", "hit_max_iters")),
    ("optimize.remove_cycles", "branchnet.optimize", "remove_cycles", None, ()),
    ("optimize.straighten", "branchnet.optimize", "straighten", None, ()),
    ("optimize.relocate_branch_points", "branchnet.optimize", "relocate_branch_points", None, ()),
    ("optimize.verify_solution", "branchnet.optimize", "verify_solution", None, ()),
    ("optimize.merge_candidates", "branchnet.optimize", "_merge_candidates", _candidates, ("candidates",)),
    ("optimize.apply_merge", "branchnet.optimize", "_apply_merge", _merge_accepted, ("useful_ratio",)),
    ("construct.cascade", "branchnet.construct", "cascade", _cascade, ("edges_out",)),
    ("construct.shifted_grid", "branchnet.construct", "shifted_grid", _tries, ("tries",)),
    ("construct.cone", "branchnet.construct", "cone", None, ()),
    ("metrics.flat_bounds", "branchnet.metrics", "flat_bounds", None, ()),
    ("metrics.flat_lp", "branchnet.metrics", "flat_norm_0chain_component", _lp_vars, ("vars",)),
    ("io.load", "branchnet.io", "load_measure", _load_size, ("bytes",)),
    ("io.load", "branchnet.io", "load_network", _load_size, ("bytes",)),
    ("io.save", "branchnet.io", "save_measure", _size, ("bytes",)),
    ("io.save", "branchnet.io", "save_network", _size, ("bytes",)),
    ("cli.main", "branchnet.cli", "main", None, ()),
]

# counters without a span: (metric, defining module, Class.method counted)
COUNTERS = [("chains.edges_built", "branchnet.chains", "Edge.__post_init__")]

UNITS = {"calls": "count", "self_s": "s", "errors": "count", "bytes": "B", "useful_ratio": "ratio"}


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the tracer reports, with its unit."""
    out = {}
    for span, _, _, _, quantities in SPANS:
        for q in ("calls", "self_s", "errors") + quantities:
            out[f"{span}.{q}"] = UNITS.get(q, "count")
    for name, _, _ in COUNTERS:
        out[name] = "count"
    return out


def _resolve(module: str, attr: str):
    """(owner, name, function) of a target, or raise AttributeError/ImportError."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


class Tracer:
    """Spans and counters for one traced run; install() ... uninstall()."""

    def __init__(self):
        self.active = False
        self._paused_total = 0.0
        self._stack: list[list[float]] = []  # [start, time covered by children]
        self._undo: list[tuple[object, str, object]] = []
        self.stats: dict[str, dict[str, float]] = {}
        self.missing: dict[str, str] = {}  # span or counter -> why it reports null
        self.bad_quantities: dict[str, str] = {}  # span -> why its quantities report null

    def clock(self) -> float:
        """Wall time that excludes the benchmark's own paused work."""
        return time.perf_counter() - self._paused_total

    @contextmanager
    def paused(self):
        was, self.active = self.active, False
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._paused_total += time.perf_counter() - t0
            self.active = was

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for span, module, attr, quantities, _ in SPANS:
            stats = self.stats.setdefault(span, {"calls": 0, "self_s": 0.0, "errors": 0})
            try:
                owner, name, fn = _resolve(module, attr)
            except (ImportError, AttributeError) as exc:
                self.missing[span] = f"target {module}.{attr} not found: {exc}"
                continue
            self._rebind(owner, name, fn, self._span_wrapper(span, fn, stats, quantities))
        for metric, module, attr in COUNTERS:
            try:
                owner, name, fn = _resolve(module, attr)
            except (ImportError, AttributeError) as exc:
                self.missing[metric] = f"target {module}.{attr} not found: {exc}"
                continue
            self.stats[metric] = {"count": 0}
            self._rebind(owner, name, fn, self._count_wrapper(fn, self.stats[metric]))
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, name, fn in reversed(self._undo):
            setattr(owner, name, fn)
        self._undo.clear()

    def _rebind(self, owner, name, fn, wrapper) -> None:
        if isinstance(owner, type):
            self._undo.append((owner, name, fn))
            setattr(owner, name, wrapper)
            return
        # the defining module plus every branchnet module that imported the name
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == "branchnet" or k.startswith("branchnet."))]
        for mod in mods:
            for key, val in list(vars(mod).items()):
                if val is fn:
                    self._undo.append((mod, key, fn))
                    setattr(mod, key, wrapper)

    def _span_wrapper(self, span, fn, stats, quantities):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = [tracer.clock(), 0.0]
            tracer._stack.append(frame)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                tracer._stack.pop()
                dur = tracer.clock() - frame[0]
                stats["calls"] += 1
                stats["self_s"] += dur - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += dur
                if not ok:
                    stats["errors"] += 1
                elif quantities is not None:
                    with tracer.paused():
                        try:
                            for key, val in quantities(args, kwargs, result).items():
                                stats[key] = stats.get(key, 0) + val
                        except (AttributeError, IndexError, KeyError, TypeError) as exc:
                            tracer.bad_quantities[span] = f"cannot read {span} arguments or result: {exc!r}"

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _count_wrapper(self, fn, stats):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active:
                stats["count"] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- report -------------------------------------------------------------

    def metrics(self) -> dict[str, dict]:
        """Per-layer metrics; a target that no longer exists reports null with a reason."""
        units = layer_metric_units()
        out = {}
        for span, _, _, _, quantities in SPANS:
            names = ("calls", "self_s", "errors") + quantities
            if span in self.missing:
                for q in names:
                    out[f"{span}.{q}"] = {"value": None, "unit": units[f"{span}.{q}"],
                                         "reason": self.missing[span]}
                continue
            st = self.stats[span]
            for q in names:
                if q in quantities and span in self.bad_quantities:
                    out[f"{span}.{q}"] = {"value": None, "unit": units[f"{span}.{q}"],
                                         "reason": self.bad_quantities[span]}
                    continue
                if q == "useful_ratio":
                    # share of attempted merges the search kept; 0 when none was attempted
                    val = st.get("accepted", 0) / st["calls"] if st["calls"] else 0.0
                else:
                    val = st.get(q, 0)
                out[f"{span}.{q}"] = {"value": val, "unit": units[f"{span}.{q}"]}
        for metric, _, _ in COUNTERS:
            if metric in self.missing:
                out[metric] = {"value": None, "unit": "count", "reason": self.missing[metric]}
            else:
                out[metric] = {"value": self.stats[metric]["count"], "unit": "count"}
        return out
