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
import scipy

from branchnet.chains import (Chain0, Chain1, _norms, canonicalize, canonicalize0, component_lift, mass, pow2_scale,
                              row_dots, weight_norms)
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
        S = pow2_scale(np.array(self.per_component, dtype=float))  # the checks' slack is relative to it
        if self.per_component:
            lo = max(self.per_component)
            hi = math.fsum(self.per_component)
            if not (lo <= self.lower + 1e-12 * S and self.upper <= hi + 1e-9 * S + 1e-9 * hi):
                raise AssertionError("flat bracket ordering violated")
        if self.lower > self.upper * (1 + 1e-12) + 1e-15 * S:
            raise AssertionError("flat lower bound exceeds upper bound")


def flat_norm_0chain_component(nu: Chain0, j: int) -> float:
    """Exact flat norm of one real component of an atomic 0-chain.

    min_S mass(S) + mass(nu_j - boundary S) is a transport LP: ship weight
    from positive atom i to negative atom k at cost d_ik, or pay 1 per unit
    left on either side.  This solves its Kantorovich-Rubinstein dual over
    the atoms' potentials y >= 0 (the test function, |f| <= 1, Lip f <= 1,
    is 1 - y on positive and y - 1 on negative atoms): minimise sum |w_i| y_i
    subject to y_i + y_k >= 2 - d_ik; the flat norm is P + N minus that
    minimum.  A pair with d_ik >= 2 is dropped exactly, as y >= 0 implies
    its row.  The objective is |w| / S, S = pow2_scale(w), so the LP's input
    is the same at every weight scale 2^k and the value scales by exactly 2^k.
    """
    X, w = nu.P, nu.W[:, j]
    pos, neg = w > 0, w < 0
    P, N = math.fsum(w[pos]), math.fsum(-w[neg])
    npos, nneg = int(pos.sum()), int(neg.sum())
    diff = (X[pos][:, None, :] - X[neg][None, :, :]).reshape(-1, nu.n)
    D = np.sqrt(row_dots(diff, diff)).reshape(npos, nneg)
    i, k = np.nonzero(D < 2.0)
    if not len(i):  # one-sided, or every pair at d >= 2: nothing is shipped
        return P + N
    # row r is -(y_i + y_k) <= d_ik - 2, with y_i in column i and y_k in column npos + k
    rows, cols = np.repeat(np.arange(len(i)), 2), np.column_stack([i, npos + k]).ravel()
    A_ub = scipy.sparse.coo_matrix((-np.ones(2 * len(i)), (rows, cols)), shape=(len(i), npos + nneg))
    S = pow2_scale(w)
    res = scipy.optimize.linprog(np.abs(np.concatenate([w[pos], w[neg]])) / S, A_ub=A_ub, b_ub=D[i, k] - 2.0,
                                 bounds=(0, None), options={"presolve": False,
                                                            "simplex_dual_edge_weight_strategy": "dantzig"})
    if not res.success:  # y = 1 is feasible and the objective is positive, so this is a solver failure
        raise RuntimeError(f"flat-norm LP failed: {res.message}")
    return P + N - S * float(res.fun)


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


def _gradient(T: Chain1, g) -> np.ndarray:
    """g as an array of length T.n, or a ValueError that names both lengths."""
    gv = np.asarray(g, dtype=float)
    if gv.shape != (T.n,):
        raise ValueError(f"gradient of length {gv.size} for a network in n = {T.n} dimensions")
    return gv


def slice_chain(T: Chain1, g, y: float, offset: float = 0.0) -> Chain0:
    """Slice a 1-chain by the level set {g.x + offset = y}.

    Each transversal edge contributes an atom at the crossing point with
    weight +theta when f increases along the edge orientation and -theta
    otherwise.  A y hitting a vertex is perturbed by a relative epsilon
    with a warning.
    """
    gv = _gradient(T, g)
    if not len(T.A):
        return Chain0(T.n, T.m, ())
    A, B, Th = T.A, T.B, T.Theta
    fa = A @ gv + offset
    fb = B @ gv + offset
    eps = 1e-9 * float(np.max(np.concatenate([fa, fb])) - np.min(np.concatenate([fa, fb])))
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
    gv = _gradient(T, g)
    drops = np.abs((T.B - T.A) @ gv)
    integral = math.fsum(weight_norms(T.Theta) * drops)
    bound = math.sqrt(row_dots(gv[None], gv[None])[0]) * mass(T)
    return integral, bound


def augmentation(nu: Chain0) -> np.ndarray:
    """Total weight vector chi(nu); vanishes identically on boundaries."""
    return nu.total_weight()


def _calibration_constant(n: int) -> float:
    """c(n,1) = 1 / E|u.v| over uniform unit directions v in R^n, in closed form: E|v_1| is
    Gamma(n/2) / (sqrt(pi) Gamma((n+1)/2)), so c is 1 at n = 1, pi/2 at n = 2 and c(n+2) = c(n) (n+1)/n."""
    c = math.pi / 2.0 if n % 2 == 0 else 1.0
    for k in range(2 - n % 2, n - 1, 2):
        c *= (k + 1) / k
    return c


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
    lengths = _norms(tau)
    tau = tau / lengths[:, None]
    weights = evaluate_rows(cost, T.Theta) * lengths

    rng = np.random.default_rng(seed)
    c = _calibration_constant(T.n)
    acc = np.zeros(len(T.A))
    done = 0
    chunk = 1 << 16
    while done < samples:
        k = min(chunk, samples - done)
        V = rng.normal(size=(k, T.n))
        V /= _norms(V)[:, None]
        acc += np.abs(V @ tau.T).sum(axis=0)
        done += k
    estimate = c * float(weights @ (acc / samples))
    rel = abs(estimate - exact) / exact if exact > 0 else abs(estimate)
    return estimate, exact, rel

