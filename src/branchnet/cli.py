"""Command-line interface.

Every subcommand prints a machine-readable JSON record (or CSV for
w-sweep) on standard output.  Exit codes: 0 success, 2 validation
failure, 3 IO/schema error, 4 invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from branchnet import chains, construct, costs, metrics, optimize
from branchnet.energy import energy as compute_energy
from branchnet.io import (
    SchemaError,
    emit_svg,
    load_measure,
    load_network,
    measure_from_document,
    network_from_document,
    read_document,
    save_network,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_INVARIANT = 4


class InvariantFailure(RuntimeError):
    pass


_COST_FORMS = {  # each family's constructor and parameters: one number, a list v1,v2,... or a list that may be left out
    "sum_alpha": (costs.sum_alpha, {"alpha": "number", "weights": "optional list"}),
    "component_sum": (costs.component_sum, {"coeffs": "list", "alphas": "list"}),
    "p_norm_alpha": (costs.p_norm_alpha, {"p": "number", "alpha": "number"}),
}


def parse_cost(spec: str, m: int) -> costs.CostSpec:
    """Parse 'family:key=value;key=v1,v2,...' cost selectors; a missing or unknown parameter, or a list where one
    number is expected, raises a ``ValueError`` naming the family and the parameter.

    Examples: 'sum_alpha:alpha=0.8', 'sum_alpha:alpha=0.5;weights=1,2',
    'component_sum:coeffs=1,1;alphas=0.5,0.9', 'p_norm_alpha:p=2;alpha=0.7'.
    """
    family, _, rest = spec.partition(":")
    if family not in _COST_FORMS:
        raise ValueError(f"unknown cost family '{family}' (use {' | '.join(_COST_FORMS)})")
    build, forms = _COST_FORMS[family]
    params: dict[str, object] = {}
    for item in filter(None, rest.split(";")):
        key, _, val = item.partition("=")
        key = key.strip()
        if not val:
            raise ValueError(f"malformed cost parameter '{item}'")
        if key not in forms:
            raise ValueError(f"{family} has no parameter '{key}' (use {' | '.join(forms)})")
        vals = [float(x) for x in val.split(",")]
        if forms[key] == "number" and len(vals) > 1:
            raise ValueError(f"{family} parameter '{key}' takes one number, got '{val}'")
        params[key] = vals[0] if forms[key] == "number" else np.array(vals)
    if missing := [key for key, form in forms.items() if key not in params and form != "optional list"]:
        raise ValueError(f"{family} needs parameter '{missing[0]}'")
    return build(m, **params)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _emit(record: dict) -> None:
    json.dump(record, sys.stdout, indent=1, default=float)
    sys.stdout.write("\n")


def _maybe_svg(args, T, mu_minus=None, mu_plus=None) -> None:
    if getattr(args, "svg", None):
        emit_svg(T, mu_minus, mu_plus, args.svg, project=getattr(args, "project", False))


# ---------------------------------------------------------------------------
# subcommands

def cmd_validate_cost(args) -> int:
    cost = parse_cost(args.cost, args.m)
    report = costs.validate_cost(cost, samples=args.samples, seed=args.seed)
    profile = costs.derivative_profile(cost, samples=args.samples, seed=args.seed)
    _emit(
        {
            "family": cost.family,
            "m": cost.m,
            "axioms_ok": report.ok,
            "violations": report.as_dict(),
            "axis_derivatives": list(profile.axis_derivatives),
            "basis": list(profile.basis_set),
            "homog_bound": profile.homog_bound,
            "homog_bound_kind": "sampled" if profile.V_dim else "none",
            "rectifiability_flag": profile.V_dim == 0,
        }
    )
    return EXIT_OK if report.ok else EXIT_VALIDATION


def cmd_cone(args) -> int:
    mu_minus = load_measure(args.mu_minus)
    mu_plus = load_measure(args.mu_plus)
    if not chains.is_compatible(mu_minus, mu_plus):
        raise ValueError("incompatible measures (per-component totals differ)")
    nu = chains.canonicalize0(mu_plus - mu_minus)
    vertex = tuple(float(x) for x in args.vertex.split(",")) if args.vertex else construct.barycenter(nu)
    T = chains.canonicalize(construct.cone(nu, vertex))
    record = {"vertex": list(vertex), "edges": len(T.A), "mass": chains.mass(T)}
    if args.cost:
        record["energy"] = compute_energy(T, parse_cost(args.cost, nu.m))
    if args.out:
        save_network(T, args.out)
    _maybe_svg(args, T, mu_minus, mu_plus)
    _emit(record)
    return EXIT_OK


def cmd_cascade(args) -> int:
    mu_minus = load_measure(args.mu_minus)
    mu_plus = load_measure(args.mu_plus)
    nu = chains.canonicalize0(mu_plus - mu_minus)
    grid = construct.shifted_grid(*construct.bounding_cube(nu.P), [mu_minus, mu_plus], seed=args.seed,
                                  k_max=max(args.depth + 1, 8))
    cost = parse_cost(args.cost, mu_minus.m) if args.cost else None
    beta = costs.BetaEnvelope.from_power(args.beta) if args.beta else None
    result = construct.cascade(mu_minus, mu_plus, grid, args.depth, cost=cost, beta=beta)
    cert = result.certificate
    if args.out:
        save_network(result.chain, args.out)
    _maybe_svg(args, result.chain, mu_minus, mu_plus)
    _emit(
        {
            "depth": result.depth,
            "edges": len(result.chain.A),
            "mass": chains.mass(result.chain),
            "energy": cert.energy,
            "bound": cert.bound,
            "bound_kind": cert.bound_kind,
        }
    )
    return EXIT_OK


def cmd_optimize(args) -> int:
    mu_minus = load_measure(args.mu_minus)
    mu_plus = load_measure(args.mu_plus)
    cost = parse_cost(args.cost, mu_minus.m)
    config = optimize.OptimizerConfig(rel_tol=args.tol, max_iters=args.max_iters,
                                      seed=args.seed, init=args.init)
    T, report = optimize.local_search(mu_minus, mu_plus, cost, config)
    if args.out:
        save_network(T, args.out)
    _maybe_svg(args, T, mu_minus, mu_plus)
    return _emit_report(report, "solution report", "last_gain", "stop_reason")


def cmd_energy(args) -> int:
    T = chains.canonicalize(load_network(args.network))
    cost = parse_cost(args.cost, T.m)
    _emit({"edges": len(T.A), "mass": chains.mass(T), "energy": compute_energy(T, cost)})
    return EXIT_OK


def cmd_flat_bound(args) -> int:
    doc = read_document(args.path, "input")
    if isinstance(doc, dict) and "edges" in doc:
        kind, X = "network", network_from_document(doc, args.path)
    else:
        kind, X = "measure", measure_from_document(doc, args.path)
    _emit({"kind": kind, **vars(metrics.flat_bounds(X))})  # lower, upper, per_component, exact
    return EXIT_OK


def cmd_slice(args) -> int:
    T = chains.canonicalize(load_network(args.network))
    g = [float(x) for x in args.gradient.split(",")]
    sl = metrics.slice_chain(T, g, args.level, args.offset)
    integral, bound = metrics.coarea_check(T, g, args.offset)
    _emit(
        {
            "atoms": [{"p": p, "w": w} for p, w in zip(sl.P.tolist(), sl.W.tolist())],
            "slice_mass": chains.mass(sl),
            "coarea_integral": integral,
            "coarea_bound": bound,
        }
    )
    return EXIT_OK


def cmd_ig_check(args) -> int:
    T = load_network(args.network)
    cost = parse_cost(args.cost, T.m)
    estimate, exact, rel = metrics.ig_identity_mc(T, cost, samples=args.samples, seed=args.seed)
    _emit({"estimate": estimate, "exact": exact, "rel_err": rel, "samples": args.samples})
    if rel > args.tol:
        raise InvariantFailure(f"integral-geometric mismatch: rel_err {rel:.3e} > {args.tol}")
    return EXIT_OK


def cmd_w_sweep(args) -> int:
    target = load_measure(args.target)
    cost = parse_cost(args.cost, target.m)
    grid = construct.shifted_grid(*construct.bounding_cube(target.P), [target], seed=args.seed,
                                  k_max=max(args.max_depth + 2, 8))
    config = optimize.OptimizerConfig(max_iters=args.max_iters, seed=args.seed)
    sys.stdout.write("depth,w_upper\n")
    for h in range(1, args.max_depth + 1):
        approx = construct.dyadic_approx(target, grid, h)
        val = optimize.w_upper(approx, target, cost, K=grid.k_max - 1, config=config, grid=grid)
        sys.stdout.write(f"{h},{val!r}\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    T = load_network(args.network)
    mu_minus = load_measure(args.mu_minus)
    mu_plus = load_measure(args.mu_plus)
    cost = parse_cost(args.cost, T.m)
    report = optimize.verify_solution(T, mu_minus, mu_plus, cost, eps_bnd=args.tol)
    return _emit_report(report, "network")


def _emit_report(report, what: str, *extra: str) -> int:
    """Print the report's fields, then ``extra``; exit 4 naming each failed check on stderr unless it is ok."""
    _emit({name: getattr(report, name) for name in ("energy", "mass", "boundary_residual", "acyclic_per_component",
                                                    "mass_bound_ok", "mass_bound_constant", "iterations", "ok",
                                                    *extra)})
    if not report.ok:
        raise InvariantFailure(f"{what} failed verification: " + "; ".join(report.failures))
    return EXIT_OK


# ---------------------------------------------------------------------------

@functools.cache  # built once per process; parsing does not change it
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="branchnet",
                                 description="Multi-material branched transportation networks.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(fn=fn)
        return p

    p = add("validate-cost", cmd_validate_cost, "probe the cost axioms and derivative profile")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cost", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--samples", type=_positive_int, default=10_000)

    p = add("cone", cmd_cone, "cone competitor over mu_plus - mu_minus")
    p.add_argument("mu_minus")
    p.add_argument("mu_plus")
    p.add_argument("--vertex", help="comma-separated coordinates; default weighted barycenter")
    p.add_argument("--cost")
    p.add_argument("--out")
    p.add_argument("--svg")
    p.add_argument("--project", action="store_true")

    p = add("cascade", cmd_cascade, "dyadic cascade flux with energy certificate")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("mu_minus")
    p.add_argument("mu_plus")
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--cost")
    p.add_argument("--beta", type=float, help="power of the diagonal envelope beta(x)=x^power")
    p.add_argument("--out")
    p.add_argument("--svg")
    p.add_argument("--project", action="store_true")

    p = add("optimize", cmd_optimize, "local-search energy minimization")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("mu_minus")
    p.add_argument("mu_plus")
    p.add_argument("--cost", required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--max-iters", type=int, default=50)
    p.add_argument("--init", choices=("cone", "cascade"), default="cone")
    p.add_argument("--out")
    p.add_argument("--svg")
    p.add_argument("--project", action="store_true")

    p = add("energy", cmd_energy, "energy and mass of a network")
    p.add_argument("network")
    p.add_argument("--cost", required=True)

    p = add("flat-bound", cmd_flat_bound, "flat-distance bracket of a measure or network")
    p.add_argument("path")

    p = add("slice", cmd_slice, "slice a network by an affine level set")
    p.add_argument("network")
    p.add_argument("--gradient", required=True, help="comma-separated gradient of f")
    p.add_argument("--level", type=float, required=True)
    p.add_argument("--offset", type=float, default=0.0)

    p = add("ig-check", cmd_ig_check, "Monte Carlo integral-geometric identity check")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("network")
    p.add_argument("--cost", required=True)
    p.add_argument("--samples", type=int, default=10**6)
    p.add_argument("--tol", type=float, default=0.05)

    p = add("w-sweep", cmd_w_sweep, "CSV of w_upper between dyadic approximations and a target")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("target")
    p.add_argument("--cost", required=True)
    p.add_argument("--max-depth", type=int, default=6)
    p.add_argument("--max-iters", type=int, default=2, help="local-search sweeps per depth")

    p = add("verify", cmd_verify, "verify a network against its measures")
    p.add_argument("network")
    p.add_argument("mu_minus")
    p.add_argument("mu_plus")
    p.add_argument("--cost", required=True)
    p.add_argument("--tol", type=float, default=1e-8)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (SchemaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except InvariantFailure as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ValueError, KeyError, RuntimeError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
