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

from branchnet.chains import Chain0, Chain1, component_lift
from branchnet.costs import CostSpec, evaluate_rows, norm_cost_ratio


class NonCanonicalError(ValueError):
    """Energy evaluation requires a canonical (non-overlapping) chain."""


@dataclass(frozen=True)
class EnergyCertificate:
    """An energy value together with an analytic upper bound it respects."""

    energy: float
    bound: float
    bound_kind: str  # "cascade" | "none"
    inputs_digest: str = ""

    def __post_init__(self):
        if self.bound_kind not in ("cascade", "none"):
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
    """Constant C with mass(T') <= C * energy(T) for acyclic fluxes T': m times
    the sup of |theta|/C(theta) on the ball |theta| <= boundary_mass
    (:func:`norm_cost_ratio`: exact for a built-in family, sampled for a custom one).

    The inverse axis derivatives at 0 need no term of their own: by
    subadditivity C(t e_j)/t rises to C'(0; e_j) as t falls to 0, so
    1/C'(0; e_j) = inf_t t/C(t e_j) <= boundary_mass/C(boundary_mass e_j),
    a point of the sup.
    """
    if boundary_mass <= 0:
        raise ValueError("boundary_mass must be positive")
    return cost.m * norm_cost_ratio(cost, boundary_mass, directions, seed)


def digest_inputs(*parts) -> str:
    """Stable digest of arbitrary inputs for certificate bookkeeping: a
    measure by its shape and array bytes, anything else by its repr."""
    h = hashlib.sha256()
    for p in parts:
        h.update(repr((p.n, p.m, len(p.P))).encode() + p.P.tobytes() + p.W.tobytes() if isinstance(p, Chain0)
                 else repr(p).encode())
    return h.hexdigest()[:16]
