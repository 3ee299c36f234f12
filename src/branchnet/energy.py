"""Discrete transportation energy and its analytic mass/energy constants.

The energy of a canonical polyhedral 1-chain is the sum over edges of
C(theta) times edge length.  It is only well defined on non-overlapping
representations, so non-canonical input is rejected rather than silently
canonicalized.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from branchnet.chains import Chain0, Chain1, component_lift
from branchnet.costs import _RADII, CostSpec, derivative_profile, evaluate_rows, sampled_ratios


class NonCanonicalError(ValueError):
    """Energy evaluation requires a canonical (non-overlapping) chain."""


@dataclass(frozen=True)
class EnergyCertificate:
    """An energy value together with an analytic upper bound it respects."""

    energy: float
    bound: float
    bound_kind: str  # "cascade" | "mass_control" | "none"
    inputs_digest: str = ""

    def __post_init__(self):
        if self.bound_kind not in ("cascade", "mass_control", "none"):
            raise ValueError(f"unknown bound kind {self.bound_kind!r}")
        if self.bound_kind != "none" and self.energy > self.bound:
            raise ValueError(f"certificate violated: energy {self.energy} > bound {self.bound}")


def energy(T: Chain1, cost: CostSpec) -> float:
    """Total cost: sum of C(theta_e) * length(e) over the edges of T."""
    if len(T.A) and not T.canonical:
        raise NonCanonicalError("energy is defined on canonical chains only; canonicalize first")
    if T.m != cost.m:
        raise ValueError("chain/cost component mismatch")
    # fsum is correctly rounded, so the order of the terms does not matter
    return math.fsum(evaluate_rows(cost, T.Theta) * T.lengths())


def energy_component(T: Chain1, cost: CostSpec, j: int) -> float:
    """Energy of the lift of component j (all other multiplicities zeroed)."""
    return energy(component_lift(T, j), cost)


def mass_bound_constant(cost: CostSpec, boundary_mass: float, directions: int = 10_000, seed: int = 0) -> float:
    """Constant C with mass(T') <= C * energy(T) for acyclic fluxes T'.

    Built from the inverse per-axis derivatives at 0 (with the convention
    that an infinite derivative contributes 0) and the supremum of
    |theta|/C(theta) over the ball |theta| <= boundary_mass, scaled by m.
    For a built-in family the supremum is exact: on every sphere it is
    reached on one of the cost's ``extremal`` directions u, and r / C(r u)
    is non-decreasing in r for alpha <= 1, so it is the largest
    boundary_mass / C(boundary_mass u).  A custom cost's is still sampled,
    not certified: it is taken over a (directions // _RADII random
    directions plus the m axes) x _RADII radii grid, whose costs are
    evaluated in batches (:func:`sampled_ratios`).
    """
    if boundary_mass <= 0:
        raise ValueError("boundary_mass must be positive")
    prof = derivative_profile(cost, samples=0)
    inv_deriv = max([0.0] + [1.0 / prof.axis_derivatives[j] for j in prof.basis_set])
    if cost.extremal:
        sup_ratio = float((boundary_mass / evaluate_rows(cost, boundary_mass * np.array(cost.extremal))).max())
    else:
        R, _ = sampled_ratios(cost, boundary_mass, max(1, directions // _RADII), seed, axes=True)
        sup_ratio = float(R.max())
    return cost.m * max(inv_deriv, sup_ratio)


def digest_inputs(*parts) -> str:
    """Stable digest of arbitrary inputs for certificate bookkeeping: a
    measure by its shape and array bytes, anything else by its repr."""
    h = hashlib.sha256()
    for p in parts:
        h.update(repr((p.n, p.m, len(p.P))).encode() + p.P.tobytes() + p.W.tobytes() if isinstance(p, Chain0)
                 else repr(p).encode())
    return h.hexdigest()[:16]
