"""Decay-based membership diagnostics for coefficient families.

The weighted decay seminorm of a coefficient family T is

    p_hat_{w,h}(T) = sup_xi ||T_xi||_HS * exp((1/h) w(sqrt(lambda_xi))),

finite exactly when T lies in the (w, h) decay class.  Membership at *some* h
is decided by a single parameter value (the decay classes form a regular
inductive family in h), so a point estimate of the critical h suffices: we
regress log ||T_xi||_HS against -w(sqrt(lambda_xi)) and report h* = -1/slope.

``fit_weight_from_decay`` runs the explicit construction that manufactures a
weight from super-polynomial decay: with C_n = sup_xi ||T_xi||_HS (1+lambda)^n,

    g(t) = max_{n <= t} [ n log(1+t) - log C_n ]

is superlogarithmic as soon as every C_n is finite, and the defining
inequality ||T_xi||_HS <= C_n (1+lambda_xi)^{-n} transfers to the returned
tabulated weight by construction.  On a truncated dual the C_n are only
trustworthy while the sup is attained away from the largest lambda, so n is
capped accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EstimationError, InsufficientDataError, ParameterError
from .fourier import FourierCoefficients
from .weights import WeightFunction, eval_weight, tabulated_weight

_ZERO_FLOOR = 1e-300
_FIT_GRID_POINTS = 512  # uniform knots of ``fit_weight_from_decay``'s table
_FIT_N_CAP = 64  # and the cap on its order n


def decay_seminorm(T: FourierCoefficients, w: WeightFunction, h: float) -> float:
    """sup_xi ||T_xi||_HS e^{(1/h) w(sqrt(lambda_xi))} over the truncated dual.

    Computed in log space; a sup beyond double range is reported as +inf.
    """
    if not 0 < h < np.inf:
        raise DomainError("h must be positive and finite")
    norms = T.hs_norms()
    pos = norms > 0.0
    if not pos.any():
        return 0.0
    best = np.max(np.log(norms[pos]) + eval_weight(w, np.sqrt(T.layout.casimir[pos])) / h)
    with np.errstate(over="ignore"):
        return float(np.exp(best))


@dataclass
class DecayReport:
    weight: WeightFunction
    h_values: np.ndarray
    seminorm_values: np.ndarray   # p_hat_{w,h}(T) along h_values
    h_star: float                 # +inf when the coefficients do not decay in w
    slope: float
    intercept: float
    residual: float               # rms residual of the regression
    sqrt_lambda: np.ndarray
    log_hsnorm: np.ndarray
    fitted: np.ndarray
    h_star_low: float             # refit on the lower half of the spectrum
    h_star_high: float            # refit on the upper half
    super_omega: bool             # h* drifts toward 0: decays faster than e^{-w/h} for all h


def _usable_points(T: FourierCoefficients, rel_floor: float = 1e-13):
    """Coefficient norms usable for regression.

    Besides the hard zero floor, entries below ``rel_floor`` times the largest
    norm are dropped: transforms of sampled functions carry an additive
    roundoff floor around 1e-16 that would otherwise flatten the decay tail
    and bias every fit.
    """
    norms = T.hs_norms()
    keep = norms > max(_ZERO_FLOOR, rel_floor * np.max(norms))
    return T.layout.casimir[keep], norms[keep]


def _fit_inv_h(wvals: np.ndarray, y: np.ndarray):
    design = np.stack([np.ones_like(wvals), -wvals], axis=1)
    sol, *_ = np.linalg.lstsq(design, y, rcond=None)
    return float(sol[0]), float(sol[1]), design @ sol


def _h_from_slope(inv_h: float) -> float:
    return 1.0 / inv_h if inv_h > 1e-12 else np.inf


def estimate_critical_h(T: FourierCoefficients, w: WeightFunction) -> DecayReport:
    """Least-squares fit log||T_xi|| ~ c - (1/h*) w(sqrt(lambda_xi)).

    A refit on the lower and upper halves of the spectrum detects super-w
    decay: when the upper-half h* keeps shrinking the coefficients decay
    faster than e^{-w/h} for every h.
    """
    lams, norms = _usable_points(T)
    if len(norms) < 8:
        raise InsufficientDataError("need at least 8 nonzero coefficients")
    if np.ptp(lams) == 0:  # np.unique would import numpy.ma (numpy 2)
        raise InsufficientDataError("need at least 2 distinct eigenvalues")
    wvals = eval_weight(w, np.sqrt(lams))
    y = np.log(norms)
    intercept, inv_h, fitted = _fit_inv_h(wvals, y)
    residual = float(np.sqrt(np.mean((y - fitted) ** 2)))
    h_star = _h_from_slope(inv_h)
    h_values = (h_star if np.isfinite(h_star) else 1.0) * np.array([0.25, 0.5, 1.0, 2.0, 4.0])
    seminorms = np.array([decay_seminorm(T, w, h) for h in h_values])
    ordered = np.sort(lams)  # np.median would import numpy.ma (numpy 2)
    median = 0.5 * (ordered[(len(lams) - 1) // 2] + ordered[len(lams) // 2])
    low, high = lams <= median, lams > median
    h_low = h_high = h_star
    if np.count_nonzero(low) >= 3 and np.ptp(lams[low]) > 0:
        h_low = _h_from_slope(_fit_inv_h(wvals[low], y[low])[1])
    if np.count_nonzero(high) >= 3 and np.ptp(lams[high]) > 0:
        h_high = _h_from_slope(_fit_inv_h(wvals[high], y[high])[1])
    super_omega = bool(
        np.isfinite(h_low) and np.isfinite(h_high) and h_high < 0.6 * h_low
    )
    return DecayReport(
        weight=w, h_values=h_values, seminorm_values=seminorms, h_star=float(h_star),
        slope=float(-inv_h), intercept=float(intercept), residual=residual,
        sqrt_lambda=np.sqrt(lams), log_hsnorm=y, fitted=fitted,
        h_star_low=float(h_low), h_star_high=float(h_high), super_omega=super_omega,
    )


def fit_weight_from_decay(T: FourierCoefficients) -> WeightFunction:
    """Manufacture a tabulated weight from super-polynomially decaying T.

    Raises when the coefficients do not decay past the first polynomial order
    within the truncation.
    """
    # no relative floor here: the cap on n below already keeps truncation and
    # roundoff artifacts out of the constants C_n
    lams, norms = _usable_points(T, rel_floor=0.0)
    if len(norms) == 0:
        raise ParameterError("cannot fit a weight to identically zero coefficients")
    lam_max = float(np.max(lams))
    min_norm = float(np.min(norms))
    if lam_max <= 0.0:
        # a single block at the trivial representation: C_n is constant
        n_max = 8
    else:
        n_max = int(np.floor(-np.log(min_norm) / np.log1p(lam_max)))
        if n_max < 1:
            raise ParameterError(
                "coefficients do not decay polynomially within the truncated dual"
            )
    n_max = min(n_max, _FIT_N_CAP)
    ns = np.arange(0, n_max + 1)
    # log C_n = max_xi [log||T|| + n log(1+lambda)]
    log_c = np.max(np.log(norms)[None, :] + ns[:, None] * np.log1p(lams)[None, :], axis=1)
    t_max = float(np.sqrt(1.0 + lam_max)) if lam_max > 0 else float(n_max + 2)
    # a knot at exactly t = 1 pins the normalization point
    ts = np.sort(np.append(np.linspace(0.0, max(t_max, 2.0), _FIT_GRID_POINTS), 1.0))
    ts = ts[np.r_[True, ts[1:] > ts[:-1]]]
    terms = ns[None, :] * np.log1p(ts)[:, None] - log_c[None, :]
    feasible = ns[None, :] <= np.maximum(ts, 0.0)[:, None]
    feasible[:, 0] = True  # n = 0 always admissible
    g = np.max(np.where(feasible, terms, -np.inf), axis=1)
    # normalize so the weight vanishes on [0, 1] (shift absorbs into the constant)
    shift = max(0.0, float(g[np.searchsorted(ts, 1.0)]))
    vals = np.maximum(0.0, g - shift)
    return tabulated_weight(list(zip(ts, vals)))


def gevrey_order_estimate(T: FourierCoefficients) -> float:
    """Exponent s of the decay law ||T_xi||_HS ~ A exp(-c lambda^(s/2)).

    Profiles s over a grid: -log||T|| ~ C + c (sqrt(lambda))^s is one centred
    closed-form least-squares fit per candidate, all candidates at once, and
    the best residual with c > 0 wins.  (A plain regression of log(-log||T||)
    on log sqrt(lambda) is the C = 0 special case; the amplitude constant of
    compactly supported bumps biases it low at desk-scale band limits, so the
    profiled form is used throughout.)  Values of s above 1 indicate decay
    outside the weight-function range.
    """
    lams, norms = _usable_points(T)
    mask = (norms < 1.0) & (lams > 1.0)
    if np.count_nonzero(mask) < 3:
        raise EstimationError("too few decaying coefficients for an order fit")
    x = np.sqrt(lams[mask])
    y = -np.log(norms[mask])
    if np.ptp(x) == 0:
        raise EstimationError("the decaying coefficients sit on one eigenvalue: no order to fit")
    # decay classes are sup-defined, so fit the norm envelope: per log-bin in
    # sqrt(lambda), keep the largest norm (smallest y), the first of each bin
    # in one sort by (bin, y); this irons out the oscillation near-zeros of
    # compactly supported functions
    if len(x) > 24:
        edges = np.geomspace(float(np.min(x)), float(np.max(x)) * (1 + 1e-9), 25)
        bins = np.searchsorted(edges, x, side="right")
        order = np.lexsort((y, bins))
        keep = order[np.r_[True, np.diff(bins[order]) != 0]]
        x, y = x[keep], y[keep]
    s = np.arange(0.05, 4.0 + 1e-9, 0.005)
    xc = x ** s[:, None]
    xc -= xc.mean(axis=1, keepdims=True)  # y - mean(y) ~ c (x^s - mean(x^s))
    yc = y - y.mean()
    c = (xc @ yc) / np.einsum("ij,ij->i", xc, xc)
    res = np.sum((yc - c[:, None] * xc) ** 2, axis=1)
    if not np.any(c > 0):
        raise EstimationError("no decaying power law fits the coefficients")
    return float(s[np.argmin(np.where(c > 0, res, np.inf))])
