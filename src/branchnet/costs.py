"""Multi-material transportation costs.

A cost maps a multiplicity vector in R^m to a nonnegative scalar and must be
even, vanish only at 0, be subadditive and monotone under the orthantwise
partial order (sign-compatible componentwise domination).  Subadditivity is
what rewards joint transport and produces branched networks.

Built-in families:

* ``sum_alpha``     C(t) = (sum_j w_j |t_j|)^alpha
* ``component_sum`` C(t) = sum_j c_j |t_j|^alpha_j
* ``p_norm_alpha``  C(t) = |t|_p^alpha
* ``custom_cost``   any callable (validated by sampling only)
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from branchnet.chains import row_dots

INF_CAP = 1e12
_DIR_DERIV_IMAX = 60


@dataclass(frozen=True)
class CostSpec:
    family: str
    m: int
    params: dict = field(default_factory=dict)
    fn: Callable[[np.ndarray], float] | None = None

    def __call__(self, theta) -> float:
        return evaluate(self, theta)


def sum_alpha(m: int, alpha: float, weights: Sequence[float] | None = None) -> CostSpec:
    """C(t) = (sum_j w_j |t_j|)^alpha with w_j > 0, 0 < alpha <= 1."""
    w = np.ones(m) if weights is None else np.asarray(weights, dtype=float)
    if len(w) != m or np.any(w <= 0):
        raise ValueError("weights must be positive, length m")
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    return CostSpec("SumAlpha", m, {"alpha": float(alpha), "weights": tuple(w)})


def component_sum(m: int, coeffs: Sequence[float], alphas: Sequence[float]) -> CostSpec:
    """C(t) = sum_j c_j |t_j|^alpha_j with c_j > 0, 0 < alpha_j <= 1."""
    c = np.asarray(coeffs, dtype=float)
    al = np.asarray(alphas, dtype=float)
    if len(c) != m or len(al) != m or np.any(c <= 0) or np.any(al <= 0) or np.any(al > 1):
        raise ValueError("need c_j > 0 and alpha_j in (0, 1], length m")
    return CostSpec("ComponentSum", m, {"coeffs": tuple(c), "alphas": tuple(al)})


def p_norm_alpha(m: int, p: float, alpha: float) -> CostSpec:
    """C(t) = |t|_p^alpha with p >= 1, 0 < alpha <= 1."""
    if p < 1 or not 0 < alpha <= 1:
        raise ValueError("need p >= 1 and alpha in (0, 1]")
    return CostSpec("PNormAlpha", m, {"p": float(p), "alpha": float(alpha)})


def custom_cost(m: int, fn: Callable[[np.ndarray], float]) -> CostSpec:
    return CostSpec("Custom", m, {}, fn=fn)


def evaluate(cost: CostSpec, theta) -> float:
    th = np.asarray(theta, dtype=float)
    if th.shape != (cost.m,):
        raise ValueError(f"theta must have length {cost.m}")
    if not np.all(np.isfinite(th)):
        raise ValueError("non-finite multiplicity")
    if cost.family == "SumAlpha":
        s = float(np.dot(cost.params["weights"], np.abs(th)))
        return s ** cost.params["alpha"]
    if cost.family == "ComponentSum":
        return float(np.dot(cost.params["coeffs"], np.abs(th) ** cost.params["alphas"]))
    if cost.family == "PNormAlpha":
        p = cost.params["p"]
        return float(np.linalg.norm(th, ord=p) ** cost.params["alpha"])
    if cost.family == "Custom":
        return float(cost.fn(th))
    raise ValueError(f"unknown cost family {cost.family!r}")


def _pow_each(x: np.ndarray, e: float) -> np.ndarray:
    """x ** e per entry with the scalar power of :func:`evaluate` (array
    ``np.power`` may use a vector kernel that differs in the last bit)."""
    return np.fromiter(map(pow, x.tolist(), itertools.repeat(e)), dtype=float, count=len(x))


def evaluate_rows(cost: CostSpec, Theta) -> np.ndarray:
    """Costs of the k rows of a (k, m) array, equal bit for bit to
    ``[evaluate(cost, row) for row in Theta]`` for the built-in families."""
    Th = np.asarray(Theta, dtype=float)
    if Th.ndim != 2 or Th.shape[1] != cost.m:
        raise ValueError(f"Theta must have shape (k, {cost.m})")
    if not np.all(np.isfinite(Th)):
        raise ValueError("non-finite multiplicity")
    if cost.family == "SumAlpha":
        w = np.broadcast_to(np.asarray(cost.params["weights"]), Th.shape)
        return _pow_each(row_dots(np.abs(Th), w), cost.params["alpha"])
    if cost.family == "ComponentSum":
        c = np.broadcast_to(np.asarray(cost.params["coeffs"]), Th.shape)
        return row_dots(np.abs(Th) ** np.asarray(cost.params["alphas"]), c)
    if cost.family == "PNormAlpha":
        p = cost.params["p"]
        if p == 2.0:
            norms = np.sqrt(row_dots(Th, Th))
        elif p == 1.0:
            norms = np.abs(Th).sum(axis=1)
        elif p == math.inf:
            norms = np.abs(Th).max(axis=1)
        else:
            norms = _pow_each((np.abs(Th) ** p).sum(axis=1), 1.0 / p)
        return _pow_each(norms, cost.params["alpha"])
    if cost.family == "Custom":
        return np.array([float(cost.fn(row)) for row in Th], dtype=float)
    raise ValueError(f"unknown cost family {cost.family!r}")


def sampled_ratios(
    cost: CostSpec, delta: float, directions: int, radii: int = 64, seed: int = 0, axes: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """|v|/C(v) on a sampled grid of the ball of radius delta.

    Draws ``directions`` random unit directions u (followed by the m
    coordinate axes when ``axes``) and ``radii`` log-spaced radii r in
    [1e-8 delta, delta].  Returns (R, C), both of shape (directions [+ m],
    radii): the costs C(r u), from :func:`evaluate_rows` on blocks of 16
    directions, and the ratios R = r / C(r u), set to 0 where the cost is
    not positive.
    """
    rng = np.random.default_rng(seed)
    U = rng.normal(size=(directions, cost.m))
    U /= np.sqrt(row_dots(U, U))[:, None]
    if axes:
        U = np.vstack([U, np.eye(cost.m)])
    rs = delta * np.logspace(-8, 0, radii)
    C = np.empty((len(U), radii))
    for i in range(0, len(U), 16):  # blocks keep the temporaries small
        block = U[i : i + 16, None, :] * rs[None, :, None]
        C[i : i + 16] = evaluate_rows(cost, block.reshape(-1, cost.m)).reshape(-1, radii)
    R = np.divide(rs, C, out=np.zeros_like(C), where=C > 0.0)
    return R, C


# ---------------------------------------------------------------------------
# axiom validation (sampling-based)

@dataclass
class CostValidationReport:
    samples: int
    evenness_violations: int = 0
    positivity_violations: int = 0
    subadditivity_violations: int = 0
    monotonicity_violations: int = 0
    continuity_violations: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.evenness_violations
            + self.positivity_violations
            + self.subadditivity_violations
            + self.monotonicity_violations
            + self.continuity_violations
        ) == 0

    def as_dict(self) -> dict:
        return {
            "samples": self.samples,
            "evenness": self.evenness_violations,
            "positivity": self.positivity_violations,
            "subadditivity": self.subadditivity_violations,
            "monotonicity": self.monotonicity_violations,
            "continuity": self.continuity_violations,
            "notes": list(self.notes),
        }


def validate_cost(cost: CostSpec, samples: int = 10_000, seed: int = 0, tol: float = 1e-9) -> CostValidationReport:
    """Probe the cost axioms on random samples.

    Evenness, positivity off 0, subadditivity on random pairs, monotonicity
    on random order-comparable pairs (built by shrinking components toward 0
    without sign change), and a continuity probe along random rays.  Lower
    semicontinuity itself is not pointwise testable; a genuinely
    discontinuous custom cost can pass vacuously (noted in the report).
    """
    if samples < 1:
        raise ValueError("samples >= 1 required")
    rng = np.random.default_rng(seed)
    rep = CostValidationReport(samples=samples)
    m = cost.m
    if evaluate(cost, np.zeros(m)) != 0.0:
        rep.positivity_violations += 1
        rep.notes.append("C(0) != 0")

    for _ in range(samples):
        th = rng.normal(size=m) * 10.0 ** rng.uniform(-3, 2)
        eta = rng.normal(size=m) * 10.0 ** rng.uniform(-3, 2)
        c_th = evaluate(cost, th)
        if abs(evaluate(cost, -th) - c_th) > tol * max(1.0, c_th):
            rep.evenness_violations += 1
        if np.any(th != 0) and c_th <= 0.0:
            rep.positivity_violations += 1
        if evaluate(cost, th + eta) > c_th + evaluate(cost, eta) + tol * max(1.0, c_th):
            rep.subadditivity_violations += 1
        # order-comparable pair: eta_j = u_j * th_j with u_j in [0,1]
        shrunk = rng.uniform(0.0, 1.0, size=m) * th
        if evaluate(cost, shrunk) > c_th + tol * max(1.0, c_th):
            rep.monotonicity_violations += 1
        # continuity probe along the ray through th (lsc surrogate)
        t = rng.uniform(0.1, 1.0)
        dt = 1e-7 * t
        lo, mid, hi = (evaluate(cost, s * th) for s in (t - dt, t, t + dt))
        scale = max(1.0, abs(mid))
        if mid > hi + 1e-3 * scale or mid < lo - 1e-3 * scale:
            rep.continuity_violations += 1

    rep.notes.append("lsc checked only via continuity probe along rays")
    return rep


# ---------------------------------------------------------------------------
# directional derivatives at zero

def dir_derivative_at_zero(
    cost: CostSpec, v, cap: float = INF_CAP, imax: int = _DIR_DERIV_IMAX, tol: float = 1e-9
) -> float:
    """Right-derivative of the cost at 0 along v: lim_{t->0+} C(tv)/t.

    The limit equals sup_{t>0} C(tv)/t, so C(tv)/t evaluated on the doubling
    grid t = 2^-i is non-decreasing as t decreases; a decrease beyond
    tolerance flags an axiom violation.  Returns math.inf once the quotient
    exceeds ``cap`` or when it is still growing at the end of the grid
    (a quotient diverging slower than the cap within 60 halvings, e.g.
    t^(-eps), must still classify as infinite).
    """
    v = np.asarray(v, dtype=float)
    if not np.any(v):
        raise ValueError("v must be nonzero")
    prev = -math.inf
    val = 0.0
    for i in range(imax + 1):
        t = 2.0 ** (-i)
        val = evaluate(cost, t * v) / t
        if val > cap:
            return math.inf
        if val < prev - tol * max(1.0, abs(prev)):
            raise ValueError("C(tv)/t not monotone along the doubling grid: cost axioms violated")
        prev_step = val - prev if i > 0 else 0.0
        prev = val
    if imax > 0 and prev_step > 1e-6 * max(1.0, abs(val)):
        return math.inf
    return val


@dataclass(frozen=True)
class DerivativeProfile:
    """Per-axis right-derivatives at 0 and the induced finite subspace.

    ``basis_set`` collects the axes with finite derivative; their span is
    exactly the subspace where the derivative function is finite, and on its
    unit sphere the derivative is bounded by ``homog_bound``.
    """

    axis_derivatives: tuple[float, ...]
    basis_set: tuple[int, ...]
    V_dim: int
    homog_bound: float


def derivative_profile(cost: CostSpec, samples: int = 1000, seed: int = 0, cap: float = INF_CAP) -> DerivativeProfile:
    """Compute per-axis derivatives at 0 and verify the sandwich estimate
    f(v) <= sum_{j in basis} |v_j| f(e_j) <= m f(v) on sampled unit v in V.
    """
    m = cost.m
    derivs = []
    for j in range(m):
        ej = np.zeros(m)
        ej[j] = 1.0
        derivs.append(dir_derivative_at_zero(cost, ej, cap=cap))
    basis = tuple(j for j in range(m) if math.isfinite(derivs[j]))
    vdim = len(basis)
    L = 0.0
    if vdim:
        rng = np.random.default_rng(seed)
        for _ in range(samples):
            v = np.zeros(m)
            v[list(basis)] = rng.normal(size=vdim)
            nv = float(np.linalg.norm(v))
            if nv == 0.0:
                continue
            v /= nv
            fv = dir_derivative_at_zero(cost, v, cap=cap)
            upper = sum(abs(v[j]) * derivs[j] for j in basis)
            if fv > upper * (1 + 1e-9) + 1e-12 or upper > m * fv * (1 + 1e-9) + 1e-12:
                raise ValueError("derivative sandwich estimate violated: cost axioms suspect")
            L = max(L, fv)
    return DerivativeProfile(tuple(derivs), basis, vdim, L)


def rectifiability_flag(cost: CostSpec, cap: float = INF_CAP) -> bool:
    """True iff every per-axis derivative at 0 is infinite; then every
    finite-mass finite-energy chain is rectifiable."""
    prof = derivative_profile(cost, samples=0, cap=cap)
    return prof.V_dim == 0


# ---------------------------------------------------------------------------
# admissibility: beta envelopes and the dyadic series

@dataclass(frozen=True)
class BetaEnvelope:
    """Concave non-decreasing envelope of the cost on the diagonal.

    ``power`` is set for beta(x) = x^alpha, in which case admissibility and
    series tails are decided analytically.
    """

    fn: Callable[[float], float]
    power: float | None = None

    def __call__(self, x: float) -> float:
        return float(self.fn(x))

    @staticmethod
    def from_power(alpha: float) -> "BetaEnvelope":
        if not 0 < alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        return BetaEnvelope(lambda x, a=alpha: x**a, power=alpha)


def admissibility_check(
    beta: BetaEnvelope, n: int, quad_points: int = 64, k_max: int = 200
) -> tuple[bool, float]:
    """Decide convergence of the singular integral of beta(x)/x^(2-1/n) on (0,1].

    For a power envelope the answer is analytic: admissible iff the exponent
    exceeds 1 - 1/n.  Otherwise integrates on dyadic subintervals
    [2^-(k+1), 2^-k] with midpoint quadrature and declares convergence when
    the subinterval contributions decay geometrically; returns the partial
    value (a lower bound when divergent).
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    expo = 2.0 - 1.0 / n

    _check_concave_nondecreasing(beta)

    if beta.power is not None:
        alpha = beta.power
        admissible = alpha > 1.0 - 1.0 / n
        if admissible:
            # integral of x^(alpha - 2 + 1/n) over (0,1]
            value = 1.0 / (alpha - 1.0 + 1.0 / n)
        else:
            value = math.inf
        return admissible, value

    total = 0.0
    prev_piece = math.inf
    for k in range(k_max):
        lo, hi = 2.0 ** (-k - 1), 2.0 ** (-k)
        xs = np.linspace(lo, hi, quad_points + 1)
        mids = 0.5 * (xs[:-1] + xs[1:])
        vals = np.array([beta(x) / x**expo for x in mids])
        piece = float(np.sum(vals) * (hi - lo) / quad_points)
        total += piece
        if k > 10 and piece > 0.999 * prev_piece:
            return False, total
        prev_piece = piece
    return True, total


def _check_concave_nondecreasing(beta: BetaEnvelope, samples: int = 257) -> None:
    xs = np.linspace(0.0, 1.0, samples)
    vals = np.array([beta(x) for x in xs])
    if np.any(np.diff(vals) < -1e-12):
        raise UserWarning("beta envelope not non-decreasing on sampled grid")
    second = vals[:-2] - 2 * vals[1:-1] + vals[2:]
    if np.any(second > 1e-9 * max(1.0, float(np.max(np.abs(vals))))):
        warnings.warn("beta envelope not concave on sampled grid", stacklevel=3)


def s_beta(beta: BetaEnvelope, n: int, k: int) -> float:
    """Level-k term of the dyadic cascade series: 2^((n-1)k) beta(2^(-nk))."""
    if k < 1:
        raise ValueError("k >= 1 required")
    return 2.0 ** ((n - 1) * k) * beta(2.0 ** (-n * k))


def s_beta_series(beta: BetaEnvelope, n: int, K: int) -> tuple[float, float]:
    """Partial sum of the cascade series up to K plus a tail bound.

    For a power envelope the terms are geometric with ratio
    2^((n-1) - n*alpha) and the tail bound is exact; otherwise the tail is
    bounded using the empirical ratio of the last two terms (infinite when
    that ratio reaches 1).
    """
    if K < 1:
        raise ValueError("K >= 1 required")
    terms = [s_beta(beta, n, k) for k in range(1, K + 1)]
    partial = float(sum(terms))
    if beta.power is not None:
        r = 2.0 ** ((n - 1) - n * beta.power)
    else:
        r = terms[-1] / terms[-2] if len(terms) > 1 and terms[-2] > 0 else 1.0
    tail = terms[-1] * r / (1.0 - r) if r < 1.0 else math.inf
    return partial, tail


# ---------------------------------------------------------------------------
# norm-cost comparison on a ball

def norm_cost_ratio(cost: CostSpec, delta: float, samples: int = 10_000, seed: int = 0) -> float:
    """Sampled constant c with |v| <= c C(v) on the ball of radius delta.

    Takes the sup of |v|/C(v) over random directions and log-spaced radii
    (:func:`sampled_ratios`); flags the axiom violation if the ratio keeps
    growing toward 0 (the bound must be finite for a genuine
    transportation cost).
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    R, C = sampled_ratios(cost, delta, max(1, samples // 64), 64, seed)
    if np.any(C <= 0.0):
        raise ValueError("cost vanishes off the origin")
    best = float(R.max())
    best_small = float(R[:, 0].max())  # sup over the innermost radius shell
    if best_small >= best and best_small > 1e6 * delta:
        raise ValueError("|v|/C(v) appears unbounded near 0: cost axioms violated")
    return best
