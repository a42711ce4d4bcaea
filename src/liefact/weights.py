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
reaches h t (a ``searchsorted`` on the hull, which array passes build once
per weight into a small cache; Lucet, *Faster than the fast Legendre
transform: the linear-time Legendre transform*, Numer. Algorithms 16, 1997).
The conjugate is +inf when h t exceeds the last hull slope by more than
1e-9, i.e. when h t u - phi(u) is still climbing at the grid end (condition
(gamma) fails).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import math
import warnings

import numpy as np

from .errors import DomainError, ParameterError, WitnessSearchError

# u-grid of the discrete conjugate.  u = 64 corresponds to arguments
# e^64 ~ 6e27 of the weight, far beyond any maximizer that occurs for the
# supported t-range of the library.
_U_MAX = 64.0
_RESOLUTION = 1e-3
# hulls kept at once, one per weight: three float arrays of at most 64,001
# entries, so at most ~1.5 MB each (building one traces under 5 MB more)
_HULL_CACHE_SIZE = 8
_WITNESS_K_MAX = 400  # largest k of the sup in ``young_inequality_witness``


@dataclass(frozen=True)
class WeightFunction:
    """A weight function of one of the supported kinds, checked when made:

        "gevrey"    w(t) = max(0, t^s - 1), 0 < s = ``gevrey_s`` <= 1
        "log1p"     w(t) = log(1 + t)  (comparison class; fails (gamma))
        "tabulated" piecewise-linear through two or more finite ``knots``
                    (t, w), t increasing, w nonnegative and nondecreasing;
                    the last segment's slope extends beyond the final knot

    A kind takes its own parameter only; anything else raises DomainError.
    (beta_0) w(t) = o(t) is derived: t^s - 1 = o(t) iff s < 1, log(1 + t) =
    o(t), and a table is o(t) iff its last slope (the limit of w(t)/t) is 0.
    So is (gamma) log t = o(w(t)): it holds for t^s - 1, fails for log(1 + t),
    and holds for a table iff its last slope is > 0 (else w is bounded).
    """

    kind: str
    gevrey_s: float | None = None
    knots: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        wanted = {"gevrey": ["gevrey_s"], "log1p": [], "tabulated": ["knots"]}.get(self.kind)
        if wanted is None:
            raise DomainError(f"unknown weight kind {self.kind!r}")
        given = [name for name in ("gevrey_s", "knots") if getattr(self, name) is not None]
        if given != wanted:
            raise DomainError(f"a {self.kind} weight takes the parameters {wanted}, got {given}")
        if self.kind == "gevrey":
            if not 0.0 < self.gevrey_s <= 1.0:
                raise DomainError(f"gevrey order must lie in (0, 1], got {self.gevrey_s}")
        elif self.kind == "tabulated":
            pts = tuple((float(t), float(v)) for t, v in self.knots)
            if len(pts) < 2:
                raise DomainError("tabulated weight needs at least two knots")
            ts, vs = np.array(pts).T
            if not (np.isfinite(ts).all() and np.isfinite(vs).all()):
                raise DomainError("tabulated knots must be finite (no nan or inf)")
            if np.any(np.diff(ts) <= 0):
                raise DomainError("tabulated knots must have strictly increasing t")
            if np.any(np.diff(vs) < 0) or np.any(vs < 0):
                raise DomainError("tabulated weight values must be nonnegative and nondecreasing")
            object.__setattr__(self, "knots", pts)

    @property
    def satisfies_beta0(self) -> bool:
        if self.kind == "tabulated":
            return self.knots[-1][1] == self.knots[-2][1]
        return self.kind == "log1p" or self.gevrey_s < 1.0

    @property
    def satisfies_gamma(self) -> bool:
        if self.kind == "tabulated":
            return self.knots[-1][1] > self.knots[-2][1]
        return self.kind == "gevrey"

    def spec_string(self) -> str:
        if self.kind == "gevrey":
            return f"gevrey:s={self.gevrey_s:g}"
        if self.kind == "log1p":
            return "log1p"
        return f"table:{len(self.knots)} knots"


def gevrey_weight(s: float) -> WeightFunction:
    """Gevrey weight of order s: w(t) = max(0, t^s - 1); (beta_0) iff s < 1."""
    return WeightFunction("gevrey", gevrey_s=s)


def log1p_weight() -> WeightFunction:
    """w(t) = log(1+t).  Not a weight in the strict sense (log t = o(w) fails);
    used as the comparison class whose decay spaces are the smooth functions."""
    return WeightFunction("log1p")


def tabulated_weight(knots) -> WeightFunction:
    """Weight given by sorted (t, w(t)) knots with linear interpolation."""
    return WeightFunction("tabulated", knots=knots)


def parse_weight_spec(spec: str) -> WeightFunction:
    """Parse "gevrey:s=0.5", "log1p" or "table:<path.csv>" (columns t,omega).

    ParameterError names a spec whose order or table rows are not numbers; a
    table file that cannot be opened raises OSError.
    """
    if spec == "log1p":
        return log1p_weight()
    if spec.startswith("gevrey:s="):
        try:
            s = float(spec[len("gevrey:s="):])
        except ValueError:
            raise ParameterError(f"weight spec {spec!r}: the Gevrey order is not a number") from None
        return gevrey_weight(s)
    if spec.startswith("table:"):
        try:
            with warnings.catch_warnings():  # no rows: checked below, not warned
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(spec[len("table:"):], delimiter=",", skiprows=1, ndmin=2)
        except ValueError:  # a non-number or a ragged row
            data = np.empty((0, 0))
        if data.shape[1] < 2:
            raise ParameterError(f"weight spec {spec!r}: the table is not rows of numbers t,omega")
        return tabulated_weight(data[:, :2])
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
    else:
        ts, vs = np.array(w.knots).T
        # extrapolate with the final segment's slope so the conjugate stays
        # well-defined (keeps w superlinear in u = log t)
        slope = (vs[-1] - vs[-2]) / (ts[-1] - ts[-2])
        out = np.where(arr > ts[-1], vs[-1] + slope * (arr - ts[-1]), np.interp(arr, ts, vs))
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

    Array passes over a linked chain of the samples: each pass drops every
    interior vertex whose right slope is <= its left slope (the monotone
    chain's rule, so collinear points go too), until none is left.  Only the
    vertices next to a drop can change their verdict, so every pass after
    the first looks at those alone; a concave kink of phi costs one pass per
    sample its hull bridges on either side.  Kept per weight (the hull
    depends on neither h nor t) and shared read-only; slopes[k] runs from
    vertex k to vertex k + 1.
    """
    u = np.arange(0.0, _U_MAX + _RESOLUTION, _RESOLUTION)
    phi = eval_weight(w, np.exp(u))
    n = len(u)
    prv, nxt = np.arange(-1, n - 1), np.arange(1, n + 1)
    right = np.append(np.diff(phi) / np.diff(u), np.inf)  # slope to the next vertex
    alive = np.ones(n, dtype=bool)
    check = np.arange(1, n - 1)
    while check.size:
        drop = check[right[check] <= right[prv[check]]]
        alive[drop] = False
        # each run of dropped vertices joins its surviving neighbours a < b
        a, b = prv[drop[alive[prv[drop]]]], nxt[drop[alive[nxt[drop]]]]
        nxt[a], prv[b] = b, a
        right[a] = (phi[b] - phi[a]) / (u[b] - u[a])
        check = np.stack((a, b), axis=1).ravel()  # sorted: a_0 < b_0 <= a_1 < ...
        check = check[(np.diff(check, prepend=0) > 0) & (check < n - 1)]
    verts = np.flatnonzero(alive)
    hull = (u[verts], phi[verts], right[verts[:-1]])
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


def young_inequality_witness(w: WeightFunction, h: float, t_grid,
                             c_cap: float = 1e6) -> YoungWitness:
    """Search h' < h and C with (1/h) w(t) <= sup_k [k log t - (1/h') phi*(k h')] + log C.

    h' sweeps h * 2^-1, h * 2^-2, ...; the first h' whose required constant
    stays below ``c_cap`` wins.  The sup runs over k = 0.._WITNESS_K_MAX.
    """
    t = np.asarray(t_grid, dtype=float)
    if np.any(t <= 0):
        raise DomainError("the inequality is evaluated at t > 0")
    wt = eval_weight(w, t)
    k = np.arange(0, _WITNESS_K_MAX + 1, dtype=float)
    best = np.inf
    for i in range(1, 16):
        h_prime = h * 0.5**i
        # (1/h') phi*(k h') = scaled conjugate at k; it refuses a bad h
        penalty = young_conjugate(w, h_prime, k)
        finite = np.isfinite(penalty)
        rhs = np.max(k[finite][None, :] * np.log(t)[:, None] - penalty[finite][None, :], axis=1)
        gap = wt / h - rhs
        needed = float(np.max(gap))
        best = min(best, needed)
        if needed <= math.log(c_cap):
            C = math.exp(max(0.0, needed))
            defect = float(np.max(gap - math.log(C)))
            return YoungWitness(h_prime=h_prime, C=C, max_defect=defect)
    raise WitnessSearchError(
        f"no (h', C) witness with C <= {c_cap:g} found below h = {h}",
        best_defect=best,
    )
