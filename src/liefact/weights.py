"""Weight functions and their Young conjugates.

A weight is a continuous nondecreasing function w : [0, inf) -> [0, inf)
subject to the growth/convexity conditions

    (alpha)  w(2t) = O(w(t))
    (beta)   w(t)  = O(t)          (beta_0: w(t) = o(t))
    (gamma)  log t = o(w(t))
    (delta)  u |-> w(e^u) is convex.

The scaled Young conjugate evaluated here is

    yc(w, h, t) = (1/h) * sup_{u >= 0} { h*t*u - w(e^u) },

i.e. (1/h) phi*(h t) where phi(u) = w(e^u).  For the Gevrey family
w_s(t) = max(0, t^s - 1) the conjugate has the closed form

    exp((1/h) phi_s*(h t)) = e^(1/h) * (h/(s e))^(t/s) * t^(t/s),

which the grid maximizer must reproduce; everything else is evaluated by
maximizing over a uniform u-grid (the sup is attained at finite u whenever
w(e^u) grows superlinearly in u, i.e. condition (gamma) holds).
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .errors import DomainError, ParameterError, WitnessSearchError

# u-grid used by the generic conjugate maximizer.  u = 64 corresponds to
# arguments e^64 ~ 6e27 of the weight, far beyond any maximizer that occurs
# for the supported t-range of the library.
_U_MAX = 64.0
_RESOLUTION = 1e-3


@dataclass(frozen=True)
class WeightFunction:
    """A weight function of one of the supported kinds.

    kind:
        "gevrey"    w(t) = max(0, t^s - 1), 0 < s <= 1
        "log1p"     w(t) = log(1 + t)  (comparison class; fails (gamma))
        "tabulated" piecewise-linear through ``knots``, the slope of the
                    last segment is extrapolated beyond the final knot
    """

    kind: str
    gevrey_s: float | None = None
    knots: tuple[tuple[float, float], ...] | None = None
    satisfies_beta0: bool = False

    def __call__(self, t):
        return eval_weight(self, t)

    def spec_string(self) -> str:
        if self.kind == "gevrey":
            return f"gevrey:s={self.gevrey_s:g}"
        if self.kind == "log1p":
            return "log1p"
        return f"table:{len(self.knots)} knots"


def gevrey_weight(s: float) -> WeightFunction:
    """Gevrey weight of order s: w(t) = max(0, t^s - 1); (beta_0) iff s < 1."""
    if not 0.0 < s <= 1.0:
        raise DomainError(f"gevrey order must lie in (0, 1], got {s}")
    return WeightFunction(kind="gevrey", gevrey_s=float(s), satisfies_beta0=s < 1.0)


def log1p_weight() -> WeightFunction:
    """w(t) = log(1+t).  Not a weight in the strict sense (log t = o(w) fails);
    used as the comparison class whose decay spaces are the smooth functions."""
    return WeightFunction(kind="log1p", satisfies_beta0=True)


def tabulated_weight(knots, satisfies_beta0: bool = False) -> WeightFunction:
    """Weight given by sorted (t, w(t)) knots with linear interpolation."""
    pts = tuple((float(t), float(v)) for t, v in knots)
    if len(pts) < 2:
        raise DomainError("tabulated weight needs at least two knots")
    ts = np.array([p[0] for p in pts])
    vs = np.array([p[1] for p in pts])
    if np.any(np.diff(ts) <= 0):
        raise DomainError("tabulated knots must have strictly increasing t")
    if np.any(np.diff(vs) < 0) or np.any(vs < 0):
        raise DomainError("tabulated weight values must be nonnegative and nondecreasing")
    return WeightFunction(kind="tabulated", knots=pts, satisfies_beta0=satisfies_beta0)


def parse_weight_spec(spec: str) -> WeightFunction:
    """Parse "gevrey:s=0.5", "log1p" or "table:<path.csv>" (columns t,omega)."""
    if spec == "log1p":
        return log1p_weight()
    if spec.startswith("gevrey:s="):
        return gevrey_weight(float(spec[len("gevrey:s="):]))
    if spec.startswith("gevrey:"):
        return gevrey_weight(float(spec[len("gevrey:"):]))
    if spec.startswith("table:"):
        path = spec[len("table:"):]
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        return tabulated_weight([(row[0], row[1]) for row in data])
    raise ParameterError(f"unrecognized weight spec {spec!r}")


def eval_weight(w: WeightFunction, t):
    """Evaluate w at t (scalar or array); t must be nonnegative."""
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0):
        raise DomainError("weight functions are defined on t >= 0")
    if w.kind == "gevrey":
        out = np.maximum(0.0, np.power(arr, w.gevrey_s) - 1.0)
    elif w.kind == "log1p":
        out = np.log1p(arr)
    elif w.kind == "tabulated":
        ts = np.array([p[0] for p in w.knots])
        vs = np.array([p[1] for p in w.knots])
        out = np.interp(arr, ts, vs)
        # extrapolate with the final segment's slope so the conjugate stays
        # well-defined (keeps w superlinear in u = log t)
        if len(ts) >= 2:
            slope = (vs[-1] - vs[-2]) / (ts[-1] - ts[-2])
            beyond = arr > ts[-1]
            out = np.where(beyond, vs[-1] + slope * (arr - ts[-1]), out)
    else:
        raise DomainError(f"unknown weight kind {w.kind!r}")
    if np.isscalar(t) or arr.ndim == 0:
        return float(out)
    return out


def _gevrey_scaled_conjugate(s: float, h: float, t):
    """(1/h) phi_s*(h t) in closed form."""
    tau = h * np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = (1.0 + (tau / s) * (np.log(tau / s) - 1.0)) / h
    return np.where(tau <= s, 0.0, val)


def _grid_scaled_conjugate(w: WeightFunction, h: float, t):
    """(1/h) sup_u { h t u - w(e^u) } over a uniform u-grid on [0, _U_MAX].

    If the objective is still increasing at the end of the grid the sup is
    treated as infinite (this happens precisely when w(e^u) fails to outgrow
    h*t*u, e.g. for the log1p class at t > 1/h... slope comparison below).
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    u = np.arange(0.0, _U_MAX + _RESOLUTION, _RESOLUTION)
    phi = eval_weight(w, np.exp(u))
    objective = h * t_arr[:, None] * u[None, :] - phi[None, :]
    sup = objective.max(axis=1)
    # divergence: still strictly climbing at the grid end
    tail_slope = objective[:, -1] - objective[:, -2]
    at_end = objective[:, -1] >= sup - 1e-12
    diverging = at_end & (tail_slope > 1e-9 * _RESOLUTION)
    sup = np.where(diverging, np.inf, np.maximum(sup, 0.0))
    return sup / h


@dataclass(frozen=True)
class YoungConjugate:
    """Evaluator for the scaled Young conjugate t |-> (1/h) phi*(h t)."""

    source: WeightFunction
    h: float

    def __post_init__(self):
        if self.h <= 0:
            raise DomainError("h must be positive")

    def __call__(self, t):
        return young_conjugate(self.source, self.h, t)


def young_conjugate(w: WeightFunction, h: float, t):
    """Scaled Young conjugate (1/h) phi*(h t), phi(u) = w(e^u).

    Closed form for the Gevrey kinds, grid maximization otherwise.
    """
    if h <= 0:
        raise DomainError("h must be positive")
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0):
        raise DomainError("the conjugate is evaluated at t >= 0")
    if w.kind == "gevrey":
        out = _gevrey_scaled_conjugate(w.gevrey_s, h, arr)
    else:
        out = _grid_scaled_conjugate(w, h, arr)
    if np.isscalar(t) or arr.ndim == 0:
        return float(np.atleast_1d(out)[0])
    return np.reshape(out, arr.shape)


def young_conjugate_grid(w: WeightFunction, h: float, t):
    """Grid-maximized conjugate regardless of kind (oracle for the closed forms)."""
    if h <= 0:
        raise DomainError("h must be positive")
    arr = np.asarray(t, dtype=float)
    out = _grid_scaled_conjugate(w, h, arr)
    if np.isscalar(t) or arr.ndim == 0:
        return float(np.atleast_1d(out)[0])
    return np.reshape(out, arr.shape)


@dataclass(frozen=True)
class AxiomReport:
    """Empirical witnesses for the weight axioms on a sample grid.

    These are finite-sample reports, not proofs: the axioms are asymptotic.
    """

    t_samples: np.ndarray
    alpha_sup: float          # sup w(2t)/w(t)
    beta_sup: float           # sup w(t)/t
    beta0_tail: np.ndarray    # w(t)/t on the tail half of the samples
    gamma_tail: np.ndarray    # w(t)/log(t) on the tail half
    gamma_tail_min: float
    delta_max_defect: float   # convexity defect of u |-> w(e^u), <= 0 when convex


def check_weight_axioms(w: WeightFunction, t_max: float = 1e4, samples: int = 400) -> AxiomReport:
    """Report witness constants for axioms (alpha)-(delta) and (beta_0)."""
    if t_max < 10:
        raise DomainError("t_max must be at least 10")
    t = np.geomspace(1.0 + 1e-6, t_max, samples)
    wt = eval_weight(w, t)
    w2t = eval_weight(w, 2 * t)
    pos = wt > 0
    alpha_sup = float(np.max(w2t[pos] / wt[pos])) if np.any(pos) else float("inf")
    beta_sup = float(np.max(wt / t))
    tail = t >= np.sqrt(t_max)
    beta0_tail = wt[tail] / t[tail]
    gamma_tail = wt[tail] / np.log(t[tail])
    # convexity defect of phi(u) = w(e^u) at grid midpoints
    u = np.linspace(0.0, np.log(t_max), samples)
    phi = eval_weight(w, np.exp(u))
    mid = eval_weight(w, np.exp(0.5 * (u[:-1] + u[1:])))
    delta_defect = float(np.max(mid - 0.5 * (phi[:-1] + phi[1:])))
    return AxiomReport(
        t_samples=t,
        alpha_sup=alpha_sup,
        beta_sup=beta_sup,
        beta0_tail=beta0_tail,
        gamma_tail=gamma_tail,
        gamma_tail_min=float(np.min(gamma_tail)),
        delta_max_defect=delta_defect,
    )


@dataclass(frozen=True)
class YoungWitness:
    h_prime: float
    C: float
    max_defect: float  # max over the grid of LHS - RHS - log C; <= 0 on success


def young_inequality_witness(
    w: WeightFunction,
    h: float,
    t_grid,
    k_max: int = 400,
    c_cap: float = 1e6,
) -> YoungWitness:
    """Search h' < h and C with (1/h) w(t) <= sup_k [k log t - (1/h') phi*(k h')] + log C.

    h' sweeps h * 2^-1, h * 2^-2, ...; the first h' whose required constant
    stays below ``c_cap`` wins.
    """
    if h <= 0:
        raise DomainError("h must be positive")
    t = np.asarray(t_grid, dtype=float)
    if np.any(t <= 0):
        raise DomainError("the inequality is evaluated at t > 0")
    lhs = eval_weight(w, t) / h
    k = np.arange(0, k_max + 1, dtype=float)
    best = None
    for i in range(1, 16):
        h_prime = h * 0.5**i
        # (1/h') phi*(k h') = scaled conjugate at k
        penalty = np.array([young_conjugate(w, h_prime, float(kk)) for kk in k])
        finite = np.isfinite(penalty)
        rhs = np.max(k[finite][None, :] * np.log(t)[:, None] - penalty[finite][None, :], axis=1)
        needed = float(np.max(lhs - rhs))
        if best is None or needed < best[1]:
            best = (h_prime, needed)
        if needed <= math.log(c_cap):
            C = math.exp(max(0.0, needed))
            defect = float(np.max(lhs - rhs - math.log(C)))
            return YoungWitness(h_prime=h_prime, C=C, max_defect=defect)
    raise WitnessSearchError(
        f"no (h', C) witness with C <= {c_cap:g} found below h = {h}",
        best_defect=best[1],
    )
