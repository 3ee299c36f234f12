"""Verification metrics: flat-distance bounds, slicing, coarea and
integral-geometric identities, and the augmentation map.

Affine functionals are passed as a gradient vector ``g`` plus scalar
``offset``: f(x) = g.x + offset, Lip(f) = |g|.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

from branchnet.chains import Chain0, Chain1, canonicalize, canonicalize0, component_lift, mass, row_dots
from branchnet.costs import CostSpec, evaluate_rows
from branchnet.energy import energy


@dataclass(frozen=True)
class FlatBounds:
    """Per-component flat values with the bracket max_j <= F <= sum_j."""

    lower: float
    upper: float
    per_component: tuple[float, ...]
    exact: bool = True  # False when the components are themselves brackets

    def __post_init__(self):
        if self.per_component:
            lo = max(self.per_component)
            hi = math.fsum(self.per_component)
            if not (lo <= self.lower + 1e-12 and self.upper <= hi + 1e-9 + 1e-9 * hi):
                raise AssertionError("flat bracket ordering violated")
        if self.lower > self.upper * (1 + 1e-12) + 1e-15:
            raise AssertionError("flat lower bound exceeds upper bound")


def flat_norm_0chain_component(nu: Chain0, j: int) -> float:
    """Exact flat norm of one real component of an atomic 0-chain.

    Solves min_S mass(S) + mass(nu_j - boundary S) as a transportation
    linear program: ship flow from positive to negative atoms at cost
    |p - q| per unit, or pay cost 1 per unit of untransported residual on
    either side.
    """
    X, w = nu.P, nu.W[:, j]
    pos, neg = w > 0, w < 0
    P = math.fsum(w[pos])
    N = math.fsum(-w[neg])
    if not pos.any() or not neg.any():
        return P + N

    # Objective over flows only: shipping a unit saves the two residual
    # units it would otherwise cost, so cost coefficient is d - 2.
    npos, nneg = int(pos.sum()), int(neg.sum())
    diff = (X[pos][:, None, :] - X[neg][None, :, :]).reshape(-1, nu.n)
    D = np.sqrt(row_dots(diff, diff)).reshape(npos, nneg)
    c = (D - 2.0).ravel()
    # flow (i, k) is variable i*nneg + k; it enters row i and row npos + k
    i_of = np.repeat(np.arange(npos), nneg)
    k_of = np.tile(np.arange(nneg), npos)
    rows = np.column_stack([i_of, npos + k_of]).ravel()
    cols = np.repeat(np.arange(npos * nneg), 2)
    A_ub = coo_matrix((np.ones(2 * npos * nneg), (rows, cols)), shape=(npos + nneg, npos * nneg))
    b_ub = np.concatenate([w[pos], -w[neg]])
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=(0, None), method="highs")
    if not res.success:  # residual-only solution is always feasible
        raise RuntimeError(f"flat-norm LP failed: {res.message}")
    return float(res.fun + P + N)


def flat_bounds(X: Chain0 | Chain1) -> FlatBounds:
    """Flat-distance bracket assembled from per-component values.

    For 0-chains the components are exact (transportation LP); for
    1-chains each component value is its mass, an upper bracket for the
    component flat norm (take the zero filling).
    """
    if isinstance(X, Chain0):
        nu = canonicalize0(X)
        per = tuple(flat_norm_0chain_component(nu, j) for j in range(nu.m))
        exact = True
    else:
        T = X if X.canonical else canonicalize(X)
        per = tuple(mass(component_lift(T, j)) for j in range(T.m))
        exact = False
    lo = max(per) if per else 0.0
    hi = math.fsum(per)
    return FlatBounds(lo, hi, per, exact)


def slice_chain(T: Chain1, g, y: float, offset: float = 0.0) -> Chain0:
    """Slice a 1-chain by the level set {g.x + offset = y}.

    Each transversal edge contributes an atom at the crossing point with
    weight +theta when f increases along the edge orientation and -theta
    otherwise.  A y hitting a vertex is perturbed by a relative epsilon
    with a warning.
    """
    gv = np.asarray(g, dtype=float)
    if not len(T.A):
        return Chain0(T.n, T.m, ())
    A, B, Th = T.A, T.B, T.Theta
    fa = A @ gv + offset
    fb = B @ gv + offset
    frange = max(float(np.max(np.concatenate([fa, fb])) - np.min(np.concatenate([fa, fb]))), 1.0)
    eps = 1e-9 * frange
    if np.any(np.abs(fa - y) <= eps) or np.any(np.abs(fb - y) <= eps):
        warnings.warn("slice level hits a vertex; perturbing y", stacklevel=2)
        y = y + 2 * eps
        if np.any(np.abs(fa - y) <= eps) or np.any(np.abs(fb - y) <= eps):
            y = y - 4.1 * eps
    cross = (np.minimum(fa, fb) < y) & (y < np.maximum(fa, fb))
    A, B, Th, fa, fb = A[cross], B[cross], Th[cross], fa[cross], fb[cross]
    P = A + ((y - fa) / (fb - fa))[:, None] * (B - A)
    W = np.where((fb > fa)[:, None], Th, -Th)
    return canonicalize0(Chain0.from_arrays(T.n, T.m, P, W))


def coarea_check(T: Chain1, g, offset: float = 0.0) -> tuple[float, float]:
    """(closed-form coarea integral, Lipschitz bound Lip(f)*mass(T)).

    The integral of mass(slice(T, f, y)) over y equals
    sum_e |theta_e|_2 * |f(b_e) - f(a_e)| exactly for affine f.
    """
    gv = np.asarray(g, dtype=float)
    if not len(T.A):
        return 0.0, 0.0
    drops = np.abs((T.B - T.A) @ gv)
    norms = np.linalg.norm(T.Theta, axis=1)
    integral = math.fsum(norms * drops)
    bound = float(np.linalg.norm(gv)) * mass(T)
    return integral, bound


def augmentation(nu: Chain0) -> np.ndarray:
    """Total weight vector chi(nu); vanishes identically on boundaries."""
    return nu.total_weight()


def _calibration_constant(n: int, samples: int, rng) -> float:
    """c(n,1) = 1 / E|u.v| over uniform unit directions v."""
    if n == 2:
        return math.pi / 2.0  # E|cos phi| = 2/pi
    V = rng.normal(size=(samples, n))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    return float(1.0 / np.mean(np.abs(V[:, 0])))


def ig_identity_mc(
    T: Chain1, cost: CostSpec, samples: int = 10**6, seed: int = 0
) -> tuple[float, float, float]:
    """Monte Carlo check of the integral-geometric energy representation.

    For each random unit direction v the slice integral over levels has
    the closed form sum_e C(theta_e) * len(e) * |tau_e . v|; the average
    over directions times the calibration constant c(n,1) recovers the
    energy.  Returns (estimate, exact, relative error); ``samples`` must
    be at least 1.  A non-canonical T is canonicalized first, and both
    sides are taken over that chain.
    """
    if samples < 1:
        raise ValueError("samples >= 1 required")
    T = T if T.canonical else canonicalize(T)
    exact = energy(T, cost)
    if not len(T.A):
        return 0.0, 0.0, 0.0
    tau = T.B - T.A
    lengths = np.linalg.norm(tau, axis=1)
    tau = tau / lengths[:, None]
    weights = evaluate_rows(cost, T.Theta) * lengths

    rng = np.random.default_rng(seed)
    c = _calibration_constant(T.n, min(samples, 10**6), np.random.default_rng(seed + 1))
    acc = np.zeros(len(T.A))
    done = 0
    chunk = 1 << 16
    while done < samples:
        k = min(chunk, samples - done)
        V = rng.normal(size=(k, T.n))
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        acc += np.abs(V @ tau.T).sum(axis=0)
        done += k
    estimate = c * float(weights @ (acc / samples))
    rel = abs(estimate - exact) / exact if exact > 0 else abs(estimate)
    return estimate, exact, rel

