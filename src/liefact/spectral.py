"""Laplace-Beltrami calculus on the truncated dual.

The Laplacian acts on coefficients by F(Lap f)(xi) = -lambda_xi F(f)(xi), so
powers Lap^j are computed spectrally (exact on the truncated dual) and never
by repeated differencing.  The finite-difference routine below exists only to
validate the eigenvalue normalization: with the orthonormal Lie-algebra bases
chosen in the groups module, second differences of matrix coefficients must
reproduce -lambda_xi exactly in the step-size limit.

Seminorms: p_j(f) = max_{i <= j} sup |Lap^i f| and the weighted family

    p_{w,h}(f) = sup_j sup |Lap^j f| * exp(-(1/h) phi*(2 j h)),

whose factor 2 reflects that the Laplacian has degree two.  The two-sided
coefficient estimates checked by ``iterates_vs_decay_check`` are

    ||F f(xi)||_HS  <= C1 inf_j (1+lambda)^(n-j) sup|Lap^j f|,
    sup|Lap^j f|    <= C2 sup_xi (1+lambda)^(j+n) ||F f(xi)||_HS,

with n = dim G; the reported constants are the smallest ones valid across the
truncated dual (empirical, the equivalence itself is qualitative).
"""

from __future__ import annotations

from dataclasses import dataclass
import itertools

import numpy as np

from .classify import decay_seminorm
from .fourier import FourierCoefficients, GridFunction, forward, inverse
from .groups import DualIndex
from .weights import WeightFunction, young_conjugate


def apply_laplacian(T: FourierCoefficients) -> FourierCoefficients:
    """Multiply each coefficient block by -lambda_xi."""
    return T.scaled(-T.layout.casimir)


FD_STEP, FD_BOUND = 1e-3, 1e-3  # laplacian_fd_defect's step t, and the bound verify holds it to


def laplacian_fd_defect(group, xi: DualIndex, x) -> float:
    """max_ij |Lap_fd xi_ij(x) + lambda_xi xi_ij(x)| via second differences.

    Lap f(x) ~ sum_k [f(x exp(t X_k)) - 2 f(x) + f(x exp(-t X_k))] / t^2 over
    the orthonormal Lie-algebra basis {X_k}, t = ``FD_STEP``.
    """
    center = group.irrep_matrix(xi, x)
    acc = np.zeros_like(center)
    for k in range(group.dim):
        for sign in (+1.0, -1.0):
            y = group.multiply(x, group.exp_step(k, sign * FD_STEP))
            acc += group.irrep_matrix(xi, y)
        acc -= 2.0 * center
    lap = acc / FD_STEP**2
    return float(np.max(np.abs(lap + xi.casimir * center)))


def _iterate_sups(T: FourierCoefficients, grid, j_max: int):
    """Yield sup|Lap^j f| on ``grid`` for j = 0..j_max from f's coefficients
    T, computed spectrally (+inf on overflow): one inverse per iterate."""
    cur = T
    for j in range(j_max + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            if j:
                cur = apply_laplacian(cur)
            vals = inverse(cur, grid).values
            sup = float(np.max(np.abs(vals))) if vals.size else 0.0
        yield sup if np.isfinite(sup) else np.inf


def iterate_supnorms(f: GridFunction, j_max: int) -> np.ndarray:
    """[ sup|Lap^j f| for j = 0..j_max ], computed spectrally.

    Overflowing entries are reported as +inf, not raised.
    """
    return np.fromiter(_iterate_sups(forward(f), f.grid, j_max), dtype=float, count=j_max + 1)


_SEMINORM_J_MAX = 40  # iterate_seminorm's default last j


@dataclass
class SeminormReport:
    """sup_j of the weighted Laplacian iterates, with the full term table."""

    weight: WeightFunction
    h: float
    js: np.ndarray
    supnorms: np.ndarray
    weighted_terms: np.ndarray
    value: float
    argmax_j: int
    saturated: bool  # some iterate overflowed before the early stop

    @property
    def reached(self) -> bool:
        """Whether the early-stop rule fired, so ``value`` is the sup: false
        when the terms still climb at j_max, or when an iterate overflowed."""
        return not self.saturated and _early_stop(self.weighted_terms)


def _early_stop(terms) -> bool:
    """The last three weighted terms each fell below 1e-3 of the running sup."""
    w = np.asarray(terms)
    below = w < 1e-3 * np.maximum(np.maximum.accumulate(w), 1e-300)
    return len(w) >= 3 and bool(below[-3:].all())


def iterate_seminorm(f: GridFunction, w: WeightFunction, h: float,
                     j_max: int = _SEMINORM_J_MAX) -> SeminormReport:
    """p_{w,h}(f) = sup_j sup|Lap^j f| exp(-(1/h) phi*(2jh)) over j = 0..j_max.

    Stops early once three successive weighted terms drop below 1e-3 of the
    running sup (the weighted sequence eventually decreases for band-limited f
    because phi*(t)/t -> infinity).
    """
    return _weighted_sup(_iterate_sups(forward(f), f.grid, j_max), w, h, j_max)


def _weighted_sup(sups, w: WeightFunction, h: float, j_max: int) -> SeminormReport:
    """``iterate_seminorm`` on the iterates' sups, read from ``sups`` one at a
    time up to j_max or the early stop, whichever comes first."""
    penalty = young_conjugate(w, h, 2.0 * np.arange(j_max + 1))
    supnorms = []
    weighted = []
    best = 0.0
    argmax = 0
    saturated = False
    with np.errstate(over="ignore", invalid="ignore"):
        for j, (pen, sup) in enumerate(zip(penalty, sups)):
            saturated = sup == np.inf
            supnorms.append(sup)
            term = sup * np.exp(-pen)
            weighted.append(term)
            if term > best:
                best, argmax = term, j
            if saturated or _early_stop(weighted):
                break
    supnorms = np.array(supnorms)
    weighted = np.array(weighted)
    return SeminormReport(
        weight=w, h=h, js=np.arange(len(supnorms)), supnorms=supnorms,
        weighted_terms=weighted, value=float(best) if not saturated else np.inf,
        argmax_j=argmax, saturated=saturated,
    )


@dataclass
class IteratesDecayReport:
    """Fitted constants of the two-sided iterate/decay estimates."""

    c1: float  # coefficient decay from iterate growth
    c2: float  # iterate growth from coefficient decay
    consistent: bool
    seminorm_function_side: float     # p_{w,h}(f)
    seminorm_coefficient_side: float  # sup_xi ||F f(xi)||_HS e^{w(sqrt(lambda))/h}
    function_side_reached: bool       # SeminormReport.reached: the sup, not a cut climb


def iterates_vs_decay_check(f: GridFunction, w: WeightFunction, h: float,
                            j_max: int = 24) -> IteratesDecayReport:
    """Empirical constants for the iterate/decay inequalities plus the
    weighted-seminorm shadow on both sides of the transform.  The function
    side is ``iterate_seminorm`` to max(j_max, its default j_max), and
    ``function_side_reached`` is its ``reached``: false when the value is
    the last term of a climb cut there, not the sup.  Both sides read one
    pass of iterates: max(j_max, j_stop) + 1 inverse transforms, j_stop the
    function side's last j."""
    n = f.group.dim
    T = forward(f)
    j_func = max(j_max, _SEMINORM_J_MAX)
    sups = _iterate_sups(T, f.grid, j_func)
    sup = np.fromiter(itertools.islice(sups, j_max + 1), dtype=float, count=j_max + 1)
    finite = np.isfinite(sup) & (sup > 0)
    js = np.arange(j_max + 1)[finite]
    log_sup = np.log(sup[finite])
    hs = T.hs_norms()
    pos = hs > 0
    log_norms = np.log(hs[pos])
    log1p_lam = np.log1p(T.layout.casimir[pos])
    # per xi: inf_j (1+lambda)^(n-j) sup_j, in logs
    bound = np.min((n - js)[None, :] * log1p_lam[:, None] + log_sup[None, :], axis=1,
                   initial=np.inf)
    c1 = float(np.max(np.exp(log_norms - bound), initial=0.0))
    # per j: sup_xi (1+lambda)^(j+n) ||F f(xi)||, in logs
    c2 = 0.0
    if log_norms.size:
        bound = np.max(log_norms[None, :] + (js + n)[:, None] * log1p_lam[None, :], axis=1)
        c2 = float(np.max(np.exp(log_sup - bound), initial=0.0))
    func_side = _weighted_sup(itertools.chain(sup.tolist(), sups), w, h, j_func)
    coef_side = decay_seminorm(T, w, h)
    consistent = bool(np.isfinite(c1) and np.isfinite(c2))
    return IteratesDecayReport(
        c1=c1, c2=c2, consistent=consistent,
        seminorm_function_side=func_side.value, seminorm_coefficient_side=coef_side,
        function_side_reached=func_side.reached,
    )
