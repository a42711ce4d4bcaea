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

which the discrete conjugate must reproduce.  Every other kind is evaluated
as the exact discrete Legendre transform of phi sampled on a uniform u-grid:
since phi* = (conv phi)*, the sup over the samples is attained at a vertex of
their lower convex hull, namely the first vertex whose right-hand hull slope
reaches h t (a ``searchsorted`` on the hull, which one monotone-chain pass
builds once per weight into a small cache).  The conjugate is +inf when h t
exceeds the last hull slope by more than 1e-9, i.e. when h t u - phi(u) is
still climbing at the grid end (condition (gamma) fails).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np

from .errors import DomainError, ParameterError, WitnessSearchError

# u-grid of the discrete conjugate.  u = 64 corresponds to arguments
# e^64 ~ 6e27 of the weight, far beyond any maximizer that occurs for the
# supported t-range of the library.
_U_MAX = 64.0
_RESOLUTION = 1e-3
# hulls kept at once, one per weight (at most ~1.5 MB each)
_HULL_CACHE_SIZE = 8


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
    if not (np.isfinite(ts).all() and np.isfinite(vs).all()):
        raise DomainError("tabulated knots must be finite (no nan or inf)")
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
    if spec.startswith("table:"):
        path = spec[len("table:"):]
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        return tabulated_weight([(row[0], row[1]) for row in data])
    raise ParameterError(f"unrecognized weight spec {spec!r}")


def eval_weight(w: WeightFunction, t):
    """Evaluate w at t (scalar or array); t must be nonnegative (NaN is refused)."""
    arr = np.asarray(t, dtype=float)
    if not np.all(arr >= 0):
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


def _gevrey_scaled_conjugate(w: WeightFunction, h: float, t):
    """(1/h) phi_s*(h t) in closed form."""
    s = w.gevrey_s
    tau = h * t
    with np.errstate(divide="ignore", invalid="ignore"):
        val = (1.0 + (tau / s) * (np.log(tau / s) - 1.0)) / h
    return np.where(tau <= s, 0.0, val)


@lru_cache(maxsize=_HULL_CACHE_SIZE)
def _lower_hull(w: WeightFunction) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, phi, slopes) at the lower-hull vertices of phi(u) = w(e^u) on the u-grid.

    One monotone-chain pass, kept per weight (the hull depends on neither h
    nor t) and shared read-only; slopes[k] runs from vertex k to vertex k + 1.
    """
    u = np.arange(0.0, _U_MAX + _RESOLUTION, _RESOLUTION)
    phi = eval_weight(w, np.exp(u))
    us, ps = u.tolist(), phi.tolist()
    verts, slopes = [0], []
    for i in range(1, len(us)):
        slope = (ps[i] - ps[verts[-1]]) / (us[i] - us[verts[-1]])
        while slopes and slope <= slopes[-1]:
            verts.pop()
            slopes.pop()
            slope = (ps[i] - ps[verts[-1]]) / (us[i] - us[verts[-1]])
        verts.append(i)
        slopes.append(slope)
    hull = (u[verts], phi[verts], np.array(slopes))
    for arr in hull:
        arr.flags.writeable = False
    return hull


def _grid_scaled_conjugate(w: WeightFunction, h: float, t):
    """(1/h) max_i { h t u_i - w(e^{u_i}) } over the u-grid, floored at 0.

    The maximizer for tau = h t is the first vertex of the lower convex hull
    of the samples (u_i, phi_i) whose right-hand slope is >= tau
    (``searchsorted`` on the slopes).  The value is +inf when tau exceeds the
    last hull slope by more than 1e-9, i.e. when the objective still climbs
    by more than 1e-12 per grid step at u = _U_MAX.  The tolerance keeps a
    tau within roundoff of the last slope finite, such as log1p at tau = 1,
    whose sampled slope there is 1.
    """
    u, phi, slopes = _lower_hull(w)
    tau = h * t
    j = np.searchsorted(slopes, tau)
    sup = np.maximum(tau * u[j] - phi[j], 0.0)
    return np.where(tau > slopes[-1] + 1e-9, np.inf, sup) / h


def _shaped_conjugate(kernel, w: WeightFunction, h: float, t):
    """Check h > 0 and t >= 0, apply ``kernel(w, h, t)``, return t's shape."""
    if not 0 < h < np.inf:
        raise DomainError("h must be positive and finite")
    arr = np.asarray(t, dtype=float)
    if not np.all(arr >= 0):
        raise DomainError("the conjugate is evaluated at t >= 0")
    out = kernel(w, h, np.atleast_1d(arr))
    if np.isscalar(t) or arr.ndim == 0:
        return float(out[0])
    return np.reshape(out, arr.shape)


@dataclass(frozen=True)
class YoungConjugate:
    """Evaluator for the scaled Young conjugate t |-> (1/h) phi*(h t)."""

    source: WeightFunction
    h: float

    def __post_init__(self):
        if not 0 < self.h < np.inf:
            raise DomainError("h must be positive and finite")

    def __call__(self, t):
        return young_conjugate(self.source, self.h, t)


def young_conjugate(w: WeightFunction, h: float, t):
    """Scaled Young conjugate (1/h) phi*(h t), phi(u) = w(e^u).

    Closed form for the Gevrey kinds, the discrete Legendre transform of the
    sampled w(e^u) via its lower convex hull otherwise.
    """
    kernel = _gevrey_scaled_conjugate if w.kind == "gevrey" else _grid_scaled_conjugate
    return _shaped_conjugate(kernel, w, h, t)


def young_conjugate_grid(w: WeightFunction, h: float, t):
    """Discrete conjugate regardless of kind (oracle for the closed forms)."""
    return _shaped_conjugate(_grid_scaled_conjugate, w, h, t)


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
    if not 0 < h < np.inf:
        raise DomainError("h must be positive and finite")
    t = np.asarray(t_grid, dtype=float)
    if np.any(t <= 0):
        raise DomainError("the inequality is evaluated at t > 0")
    lhs = eval_weight(w, t) / h
    k = np.arange(0, k_max + 1, dtype=float)
    best = None
    for i in range(1, 16):
        h_prime = h * 0.5**i
        # (1/h') phi*(k h') = scaled conjugate at k
        penalty = young_conjugate(w, h_prime, k)
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
