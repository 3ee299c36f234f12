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

from branchnet.chains import pow2_scale, row_dots, weight_norms

_DIR_DERIV_IMAX = 60
_AXIOM_TOL = 1e-9  # relative slack of validate_cost's axiom tests
_QUAD_POINTS = 64  # midpoints per dyadic subinterval in admissibility_check
_RADII = 64  # log-spaced radii per direction in norm_cost_ratio's sampled grid
_BLOCK = 256  # samples of validate_cost, or directions of a derivative scan, per evaluate_rows call
_NOT_MONOTONE = "C(tv)/t not monotone along the doubling grid: cost axioms violated"


@dataclass(frozen=True)
class CostSpec:
    family: str
    m: int
    params: dict = field(default_factory=dict)
    fn: Callable[[np.ndarray], float] | None = None
    # unit directions u among which |t|_2 / C(t) is largest on every sphere |t|_2 = r, attached by the family
    # constructors; none for a custom cost
    extremal: tuple[tuple[float, ...], ...] = field(default=(), repr=False)

    def __call__(self, theta) -> float:
        return evaluate(self, theta)


def _axes(m: int) -> tuple[tuple[float, ...], ...]:
    """The m coordinate axes: for sum_alpha and component_sum, C(r u) is a concave function of (u_1^2, ..., u_m^2),
    so its minimum on a sphere, where |t|_2 / C(t) is largest, is at a vertex of the simplex of the u_j^2."""
    return tuple(map(tuple, np.eye(m).tolist()))


def sum_alpha(m: int, alpha: float, weights: Sequence[float] | None = None) -> CostSpec:
    """C(t) = (sum_j w_j |t_j|)^alpha with w_j > 0, 0 < alpha <= 1."""
    w = np.ones(m) if weights is None else np.asarray(weights, dtype=float)
    if len(w) != m or np.any(w <= 0):
        raise ValueError("weights must be positive, length m")
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    return CostSpec("SumAlpha", m, {"alpha": float(alpha), "weights": tuple(w)}, extremal=_axes(m))


def component_sum(m: int, coeffs: Sequence[float], alphas: Sequence[float]) -> CostSpec:
    """C(t) = sum_j c_j |t_j|^alpha_j with c_j > 0, 0 < alpha_j <= 1."""
    c = np.asarray(coeffs, dtype=float)
    al = np.asarray(alphas, dtype=float)
    if len(c) != m or len(al) != m or np.any(c <= 0) or np.any(al <= 0) or np.any(al > 1):
        raise ValueError("need c_j > 0 and alpha_j in (0, 1], length m")
    return CostSpec("ComponentSum", m, {"coeffs": tuple(c), "alphas": tuple(al)}, extremal=_axes(m))


def p_norm_alpha(m: int, p: float, alpha: float) -> CostSpec:
    """C(t) = |t|_p^alpha with p >= 1, 0 < alpha <= 1."""
    if p < 1 or not 0 < alpha <= 1:
        raise ValueError("need p >= 1 and alpha in (0, 1]")
    # |u|_p >= |u|_2 with equality on the axes for p <= 2, and >= m^(1/p - 1/2) |u|_2 with equality on the diagonal
    extremal = _axes(m) if p <= 2 else ((1.0 / math.sqrt(m),) * m,)
    return CostSpec("PNormAlpha", m, {"p": float(p), "alpha": float(alpha)}, extremal=extremal)


def custom_cost(m: int, fn: Callable[[np.ndarray], float]) -> CostSpec:
    return CostSpec("Custom", m, {}, fn=fn)


def evaluate(cost: CostSpec, theta) -> float:
    """Cost of one multiplicity vector: the one-row case of :func:`evaluate_rows`."""
    th = np.asarray(theta, dtype=float)
    if th.shape != (cost.m,):
        raise ValueError(f"theta must have length {cost.m}")
    return float(evaluate_rows(cost, th[None])[0])


def _pow_each(x: np.ndarray, e: float) -> np.ndarray:
    """x ** e per entry with the scalar float power (array ``np.power`` may
    use a vector kernel that differs from it in the last bit)."""
    return np.fromiter(map(pow, x.tolist(), itertools.repeat(e)), dtype=float, count=len(x))


def evaluate_rows(cost: CostSpec, Theta) -> np.ndarray:
    """Costs of the k rows of a (k, m) array: the one branch on the cost family.
    Rows are costed independently, so a row costs the same bit for bit in any batch."""
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
            norms = weight_norms(Th)
        elif p == math.inf:
            norms = np.abs(Th).max(axis=1)
        else:
            norms = _pow_each((np.abs(Th) ** p).sum(axis=1), 1.0 / p)
        return _pow_each(norms, cost.params["alpha"])
    if cost.family == "Custom":
        return np.array([float(cost.fn(row)) for row in Th], dtype=float)
    raise ValueError(f"unknown cost family {cost.family!r}")


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


def validate_cost(cost: CostSpec, samples: int = 10_000, seed: int = 0) -> CostValidationReport:
    """Probe the cost axioms on random samples.

    Evenness, positivity off 0, subadditivity on random pairs, monotonicity
    on random order-comparable pairs (built by shrinking components toward 0
    without sign change), and a continuity probe along random rays.  Lower
    semicontinuity itself is not pointwise testable; a genuinely
    discontinuous custom cost can pass vacuously (noted in the report).
    Violations are counted beyond a slack of ``_AXIOM_TOL`` times the cost
    values that bound them, and the continuity probe beyond 1e-3 |C| at the
    probe point, with no floor: a cost scaled by 2^k gets the same counts.
    Each block of ``_BLOCK`` samples takes one :func:`evaluate_rows` call.
    """
    if samples < 1:
        raise ValueError("samples >= 1 required")
    rng = np.random.default_rng(seed)
    rep = CostValidationReport(samples=samples)
    m = cost.m
    if evaluate(cost, np.zeros(m)) != 0.0:
        rep.positivity_violations += 1
        rep.notes.append("C(0) != 0")

    for start in range(0, samples, _BLOCK):
        # each sample draws theta, eta, the shrink factors u and the ray parameter t, in this order
        draws = [(rng.normal(size=m) * 10.0 ** rng.uniform(-3, 2), rng.normal(size=m) * 10.0 ** rng.uniform(-3, 2),
                  rng.uniform(0.0, 1.0, size=m), rng.uniform(0.1, 1.0)) for _ in range(min(_BLOCK, samples - start))]
        th, eta, u, t = map(np.array, zip(*draws))
        dt = 1e-7 * t
        # u * th is order-comparable with th; the continuity probe runs along the ray through th (lsc surrogate)
        points = [th, -th, th + eta, eta, u * th] + [s[:, None] * th for s in (t - dt, t, t + dt)]
        c_th, c_neg, c_sum, c_eta, c_shrunk, lo, mid, hi = evaluate_rows(cost, np.concatenate(points)).reshape(8, -1)
        # each slack is relative to the cost values it bounds, with no floor, so the counts are scale-free
        slack = _AXIOM_TOL * np.abs(c_th)
        rep.evenness_violations += int(np.count_nonzero(np.abs(c_neg - c_th) > slack))
        rep.positivity_violations += int(np.count_nonzero(np.any(th != 0, axis=1) & (c_th <= 0.0)))
        rep.subadditivity_violations += int(np.count_nonzero(c_sum > c_th + c_eta + slack + _AXIOM_TOL * np.abs(c_eta)))
        rep.monotonicity_violations += int(np.count_nonzero(c_shrunk > c_th + slack))
        reach = 1e-3 * np.abs(mid)
        rep.continuity_violations += int(np.count_nonzero((mid > hi + reach) | (mid < lo - reach)))

    rep.notes.append("lsc checked only via continuity probe along rays")
    return rep


# ---------------------------------------------------------------------------
# directional derivatives at zero

def _derivative_scan(cost: CostSpec, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Right-derivatives at 0 along the rows of V, and which rows break
    monotonicity (their values are meaningless); see
    :func:`dir_derivative_at_zero` for the rules."""
    ts = np.ldexp(1.0, -np.arange(_DIR_DERIV_IMAX + 1))
    C = np.empty((len(V), len(ts)))
    for i in range(0, len(V), _BLOCK):
        grid = V[i : i + _BLOCK, None, :] * ts[:, None]
        C[i : i + _BLOCK] = evaluate_rows(cost, grid.reshape(-1, V.shape[1])).reshape(-1, len(ts))
    # a custom cost's huge or infinite values give inf or NaN quotients; NaN compares false in every rule
    with np.errstate(over="ignore", invalid="ignore"):
        Q = C / ts
        prev = np.pad(Q[:, :-1], ((0, 0), (1, 0)), constant_values=-math.inf)
        falls = (Q < prev - 1e-9 * np.abs(prev)).any(axis=1)
        growing = Q[:, -1] - prev[:, -1] > 1e-6 * np.abs(Q[:, -1])
    return np.where(growing, math.inf, Q[:, -1]), falls


def dir_derivative_at_zero(cost: CostSpec, v):
    """Right-derivative of the cost at 0 along v: lim_{t->0+} C(tv)/t.

    The limit equals sup_{t>0} C(tv)/t, so C(tv)/t evaluated on the doubling
    grid t = 2^-i, i = 0.._DIR_DERIV_IMAX, is non-decreasing as t decreases;
    a relative decrease beyond 1e-9 flags an axiom violation.  Returns
    math.inf when the quotient is still growing, by more than a relative
    1e-6, at the end of the grid (t^(-eps) diverges however slowly), and
    otherwise the quotient there.  Both rules are relative, with no floor
    and no cap, so the verdicts do not depend on the cost's scale.

    One direction (m,) gives a float; k directions (k, m) give k values,
    and a decrease along any of them raises.  The grids of ``_BLOCK``
    directions are evaluated in one :func:`evaluate_rows` call before the
    scan, so a ``Custom`` cost's function is called on every grid point.
    """
    V = np.asarray(v, dtype=float)
    if not np.all(np.any(V, axis=-1)):
        raise ValueError("v must be nonzero")
    values, non_monotone = _derivative_scan(cost, np.atleast_2d(V))
    if non_monotone.any():
        raise ValueError(_NOT_MONOTONE)
    return float(values[0]) if V.ndim == 1 else values


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


def derivative_profile(cost: CostSpec, samples: int = 1000, seed: int = 0) -> DerivativeProfile:
    """Compute per-axis derivatives at 0 and verify the sandwich estimate
    f(v) <= sum_{j in basis} |v_j| f(e_j) <= m f(v), within a relative 1e-9, on sampled unit v in V.

    The m axes take one :func:`dir_derivative_at_zero` call and the
    samples one more; the first sample that breaks monotonicity or the
    sandwich decides which error is raised.
    """
    m = cost.m
    derivs = dir_derivative_at_zero(cost, np.eye(m))
    basis = tuple(j for j in range(m) if math.isfinite(derivs[j]))
    vdim = len(basis)
    L = 0.0
    if vdim:
        rng = np.random.default_rng(seed)
        V = np.zeros((samples, m))
        V[:, list(basis)] = rng.normal(size=(samples, vdim))
        norms = np.sqrt(row_dots(V, V))
        V = V[norms != 0.0] / norms[norms != 0.0, None]
        fv, non_monotone = _derivative_scan(cost, V)
        upper = sum(np.abs(V[:, j]) * derivs[j] for j in basis)
        off = (fv > upper * (1 + 1e-9)) | (upper > m * fv * (1 + 1e-9))
        first_bad = np.flatnonzero(non_monotone | off)[:1]
        if non_monotone[first_bad].any():
            raise ValueError(_NOT_MONOTONE)
        if len(first_bad):
            raise ValueError("derivative sandwich estimate violated: cost axioms suspect")
        L = float(np.max(fv, initial=0.0, where=fv > 0.0))
    return DerivativeProfile(tuple(derivs.tolist()), basis, vdim, L)


def rectifiability_flag(cost: CostSpec) -> bool:
    """True iff every per-axis derivative at 0 is infinite; then every
    finite-mass finite-energy chain is rectifiable."""
    return derivative_profile(cost, samples=0).V_dim == 0


# ---------------------------------------------------------------------------
# admissibility: beta envelopes and the dyadic series

@dataclass(frozen=True)
class BetaEnvelope:
    """Concave non-decreasing envelope of the cost on the diagonal.

    ``power`` is set for beta(x) = x^alpha, 0 < alpha <= 1, in which case
    admissibility and series tails are decided analytically.
    """

    fn: Callable[[float], float]
    power: float | None = None

    def __post_init__(self):
        if self.power is not None and not 0 < self.power <= 1:
            raise ValueError("alpha must be in (0, 1]")

    def __call__(self, x: float) -> float:
        return float(self.fn(x))

    @staticmethod
    def from_power(alpha: float) -> "BetaEnvelope":
        return BetaEnvelope(lambda x, a=alpha: x**a, power=alpha)


def admissibility_check(beta: BetaEnvelope, n: int) -> tuple[bool, float]:
    """Decide convergence of the singular integral of beta(x)/x^(2-1/n) on (0,1].

    For a power envelope the answer is analytic: admissible iff the exponent
    exceeds 1 - 1/n.  Otherwise integrates on the first 200 dyadic
    subintervals [2^-(k+1), 2^-k] with ``_QUAD_POINTS``-point midpoint
    quadrature and declares convergence when the subinterval contributions
    decay geometrically; returns the partial value (a lower bound when
    divergent).
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    expo = 2.0 - 1.0 / n

    if beta.power is not None:  # concave and non-decreasing by construction
        alpha = beta.power
        admissible = alpha > 1.0 - 1.0 / n
        if admissible:
            # integral of x^(alpha - 2 + 1/n) over (0,1]
            value = 1.0 / (alpha - 1.0 + 1.0 / n)
        else:
            value = math.inf
        return admissible, value

    _check_concave_nondecreasing(beta)
    total = 0.0
    prev_piece = math.inf
    for k in range(200):
        lo, hi = 2.0 ** (-k - 1), 2.0 ** (-k)
        xs = np.linspace(lo, hi, _QUAD_POINTS + 1)
        mids = 0.5 * (xs[:-1] + xs[1:])
        vals = np.array([beta(x) / x**expo for x in mids])
        piece = float(np.sum(vals) * (hi - lo) / _QUAD_POINTS)
        total += piece
        if k > 10 and piece > 0.999 * prev_piece:
            return False, total
        prev_piece = piece
    return True, total


def _check_concave_nondecreasing(beta: BetaEnvelope) -> None:
    xs = np.linspace(0.0, 1.0, 257)
    vals = np.array([beta(x) for x in xs])
    scale = pow2_scale(vals)  # both slacks are relative to the envelope's scale
    if np.any(np.diff(vals) < -1e-12 * scale):
        raise ValueError("beta envelope not non-decreasing on sampled grid")
    second = vals[:-2] - 2 * vals[1:-1] + vals[2:]
    if np.any(second > 1e-9 * scale):
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
    """Constant c with |v| <= c C(v) on the ball of radius delta: the sup of |v|/C(v) there.

    Exact for a built-in family: the sup on every sphere is reached on one of
    its ``extremal`` directions u, and r / C(r u) is non-decreasing in r for
    alpha <= 1, so it is the largest delta / C(delta u).  A custom cost's is
    sampled, not certified: over samples // _RADII random unit directions,
    then the m axes, at _RADII log-spaced radii in [1e-8 delta, delta], in one
    :func:`evaluate_rows` call.  It raises if the cost is not positive there or
    the ratio still grows toward 0: the innermost shell holds the sup and
    exceeds the next one (the bound must be finite for a genuine
    transportation cost; a flat ratio, as of a linear cost, is bounded).
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if cost.extremal:
        return float((delta / evaluate_rows(cost, delta * np.array(cost.extremal))).max())
    U = np.random.default_rng(seed).normal(size=(max(1, samples // _RADII), cost.m))
    U = np.vstack([U / np.sqrt(row_dots(U, U))[:, None], np.eye(cost.m)])
    rs = delta * np.logspace(-8, 0, _RADII)
    C = evaluate_rows(cost, (U[:, None, :] * rs[:, None]).reshape(-1, cost.m)).reshape(len(U), _RADII)
    if not np.all(C > 0.0):
        raise ValueError("cost vanishes off the origin, or is NaN")
    R = rs / C
    best, best_small = float(R.max()), float(R[:, 0].max())  # the sup, and the innermost shell's
    if best_small >= best and best_small > float(R[:, 1].max()) * (1 + 1e-9):  # above rounding, not scale
        raise ValueError("|v|/C(v) appears unbounded near 0: cost axioms violated")
    return best
