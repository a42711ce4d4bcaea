import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import liefact
from liefact.classify import (
    _usable_points,
    decay_seminorm,
    estimate_critical_h,
    fit_weight_from_decay,
    gevrey_order_estimate,
)
from liefact.errors import EstimationError, InsufficientDataError, ParameterError
from liefact.factorize import gevrey_bump
from liefact.fourier import FourierCoefficients, GridFunction, forward
from liefact.groups import SU2, Torus, haar_quadrature
from liefact.serialize import coefficients_from_json, coefficients_to_json
from liefact.signals import (
    heat_coefficients,
    poisson_coefficients,
    poisson_function,
    synth_coefficients,
)
from liefact.weights import eval_weight, gevrey_weight


class TestDecaySeminorm:
    def test_constructed_cancellation(self, su2):
        w = gevrey_weight(1.0)
        T = synth_coefficients(su2, 8, lambda lam: np.exp(-eval_weight(w, np.sqrt(lam))))
        assert decay_seminorm(T, w, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_poisson_boundary_case(self, t1):
        t = 2.0
        T = poisson_coefficients(t1, 32, t)
        val = decay_seminorm(T, gevrey_weight(1.0), 1.0 / t)
        assert val <= np.e + 1e-12
        assert val == pytest.approx(1.0, rel=1e-12)  # the k = 0 block dominates

    def test_zero(self, t1):
        T = FourierCoefficients.zeros(t1, 4)
        assert decay_seminorm(T, gevrey_weight(1.0), 1.0) == 0.0

    def test_monotone_in_h(self, t1):
        T = synth_coefficients(t1, 32, lambda lam: np.exp(-1.3 * np.sqrt(lam)))
        w = gevrey_weight(1.0)
        values = [decay_seminorm(T, w, h) for h in (0.25, 0.5, 1.0, 2.0, 4.0)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_scaling_equivariance(self, t1):
        T = synth_coefficients(t1, 16, lambda lam: np.exp(-np.sqrt(lam)))
        w = gevrey_weight(1.0)
        scaled = T.scaled(np.full(len(T.duals), -2.5j))
        assert decay_seminorm(scaled, w, 1.0) == pytest.approx(
            2.5 * decay_seminorm(T, w, 1.0), rel=1e-12)


class TestCriticalH:
    def test_su2_poisson_slope(self, su2):
        T = synth_coefficients(su2, 32, lambda lam: np.exp(-2.0 * np.sqrt(lam)))
        report = estimate_critical_h(T, gevrey_weight(1.0))
        assert report.h_star == pytest.approx(0.5, rel=0.10)

    def test_exact_exponential_recovers_slope(self, t1):
        w = gevrey_weight(1.0)
        T = synth_coefficients(
            t1, 64, lambda lam: np.exp(-3.0 * eval_weight(w, np.sqrt(lam))))
        report = estimate_critical_h(T, w)
        assert report.residual < 1e-10
        assert report.h_star == pytest.approx(1.0 / 3.0, rel=0.01)

    def test_heat_drift_signature(self, t1):
        # heat-type decay is faster than e^{-w/h} for every h: the fitted h*
        # keeps shrinking and the residual grows as the band limit increases
        # (scale 0.1 keeps the whole tail above the regression noise floor)
        w = gevrey_weight(1.0)
        low = estimate_critical_h(
            synth_coefficients(t1, 8, lambda lam: np.exp(-0.1 * lam)), w)
        high = estimate_critical_h(
            synth_coefficients(t1, 16, lambda lam: np.exp(-0.1 * lam)), w)
        assert high.residual > low.residual
        assert high.h_star < low.h_star
        assert high.super_omega

    def test_white_coefficients(self, t1):
        T = synth_coefficients(t1, 16, lambda lam: 1.0)
        report = estimate_critical_h(T, gevrey_weight(1.0))
        assert report.h_star == np.inf

    def test_too_few_entries(self, t1):
        T = FourierCoefficients.zeros(t1, 8)
        with pytest.raises(InsufficientDataError):
            estimate_critical_h(T, gevrey_weight(1.0))

    def test_single_eigenvalue(self, t1):
        T = FourierCoefficients.zeros(t1, 8, value_dim=1)
        for xi in T.entries:
            if xi.casimir == 16.0:  # k = +-4 only: one distinct eigenvalue
                T.entries[xi][0, 0, 0] = 1.0
        with pytest.raises(InsufficientDataError):
            estimate_critical_h(T, gevrey_weight(1.0))


    def test_report_independent_of_load_order(self, t1, t2):
        # a JSON read-back lists the dual in wire order; the fit must not see it
        w = gevrey_weight(1.0)
        for g, L in ((t1, 64), (t2, 16)):
            T = forward(poisson_function(g, g.haar_quadrature(L), 1.0))
            direct = estimate_critical_h(T, w)
            back = estimate_critical_h(coefficients_from_json(coefficients_to_json(T)), w)
            for field in dataclasses.fields(direct):
                a, b = getattr(direct, field.name), getattr(back, field.name)
                assert np.array_equal(a, b), (g, field.name, a, b)


class TestFitWeight:
    def test_polynomial_decay_caps_order(self, t1):
        T = synth_coefficients(t1, 64, lambda lam: (1.0 + lam) ** -5.0)
        w = fit_weight_from_decay(T)
        ts = np.array([10.0, 30.0, 60.0])
        ratios = eval_weight(w, ts) / np.log1p(ts)
        # flat n = 5 regime: the ratio saturates below five and stops growing
        assert np.all(ratios < 5.0 + 1e-9)
        assert ratios[-1] > 4.0
        assert ratios[-1] - ratios[-2] < 0.3

    def test_poisson_superlogarithmic(self, t1):
        # Poisson coefficients e^{-sqrt(lambda)} yield g(t) ~ sqrt(t): the
        # ratio against log(1+t) keeps growing along the tail
        T = poisson_coefficients(t1, 64, 1.0)
        w = fit_weight_from_decay(T)
        ts = np.array([5.0, 20.0, 60.0])
        ratios = eval_weight(w, ts) / np.log1p(ts)
        assert ratios[1] > ratios[0] + 0.15
        assert ratios[2] > ratios[1] + 0.2
        assert ratios[2] > 1.7

    def test_single_trivial_entry_monotone_ramp(self, t1):
        T = FourierCoefficients.zeros(t1, 4)
        triv = [xi for xi in T.entries if xi.casimir == 0.0][0]
        T.entries[triv][0, 0, 0] = 0.5
        w = fit_weight_from_decay(T)
        ts = np.linspace(0, 8, 50)
        vals = eval_weight(w, ts)
        assert np.all(np.diff(vals) >= -1e-12)
        assert vals[-1] > 0

    def test_weight_shape(self, t1):
        T = poisson_coefficients(t1, 32, 1.0)
        w = fit_weight_from_decay(T)
        assert np.all(eval_weight(w, np.linspace(0, 1, 20)) == 0.0)
        ts = np.linspace(0, 30, 200)
        assert np.all(np.diff(eval_weight(w, ts)) >= -1e-12)

    def test_defining_inequality_transfers(self, t1):
        T = poisson_coefficients(t1, 64, 1.0)
        w = fit_weight_from_decay(T)
        for xi, norm in zip(T.duals, T.hs_norms()):
            if norm > 0 and xi.casimir >= 2.0:
                bound = norm * np.exp(eval_weight(w, np.sqrt(1.0 + xi.casimir)))
                assert bound <= 1.0 + 1e-9

    def test_nondecaying_rejected(self, t1):
        T = synth_coefficients(t1, 16, lambda lam: 1.0)
        with pytest.raises(ParameterError):
            fit_weight_from_decay(T)


def test_fits_import_no_numpy_ma():
    # numpy 2's np.unique and np.median import numpy.ma (16-24 ms) on first use
    code = "\n".join([
        "import sys",
        "from liefact.classify import estimate_critical_h, fit_weight_from_decay",
        "from liefact.groups import Torus",
        "from liefact.signals import poisson_coefficients",
        "from liefact.weights import gevrey_weight",
        "T = poisson_coefficients(Torus(1), 32, 1.0)",
        "estimate_critical_h(T, gevrey_weight(1.0))",
        "fit_weight_from_decay(T)",
        "print('numpy.ma' in sys.modules)",
    ])
    src = os.path.dirname(os.path.dirname(liefact.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


def gevrey_order_by_loop(T: FourierCoefficients) -> float:
    """The order fit as one lstsq per candidate s and a loop over the envelope
    bins: the reference for ``gevrey_order_estimate``'s batched closed form."""
    lams, norms = _usable_points(T)
    mask = (norms < 1.0) & (lams > 1.0)
    x, y = np.sqrt(lams[mask]), -np.log(norms[mask])
    if len(x) > 24:
        bins = np.geomspace(float(np.min(x)), float(np.max(x)) * (1 + 1e-9), 25)
        bx, by = [], []
        for lo, hi in zip(bins[:-1], bins[1:]):
            sel = (x >= lo) & (x < hi)
            if sel.any():
                i = np.argmin(y[sel])
                bx.append(x[sel][i])
                by.append(y[sel][i])
        x, y = np.array(bx), np.array(by)
    best_s, best_res = None, np.inf
    for s in np.arange(0.05, 4.0 + 1e-9, 0.005):
        design = np.stack([np.ones_like(x), x**s], axis=1)
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        if coef[1] <= 0:
            continue
        res = float(np.sum((y - design @ coef) ** 2))
        if res < best_res:
            best_s, best_res = float(s), res
    return best_s


def _order_fit_input(case: str) -> FourierCoefficients:
    kind, group, L, p = case.split(" ")
    g = {"t1": Torus(1), "t2": Torus(2), "su2": SU2()}[group]
    L, p = int(L), float(p)
    if kind == "poisson":
        return poisson_coefficients(g, L, p)
    if kind == "heat":
        return heat_coefficients(g, L, p)
    if kind == "law":  # ||T|| = exp(-(1 + lambda)^(p/2)), a Gevrey-p law
        return synth_coefficients(g, L, lambda lam: np.exp(-(1.0 + lam) ** (p / 2)))
    if kind == "wavy":  # a decay law with an oscillating amplitude
        return synth_coefficients(
            g, L, lambda lam: np.exp(-p * np.sqrt(lam)) * (1.0 + 0.3 * np.cos(lam)))
    s, halfwidth = map(float, kind.split("/")[1:])  # bump/s/halfwidth on T^1
    return forward(gevrey_bump(s, 0.0, halfwidth, haar_quadrature(g, L)))


class TestGevreyOrder:
    @pytest.mark.parametrize("case", [
        "law t1 64 1.0", "poisson t1 64 1.0", "poisson t1 256 2.0", "heat t1 64 0.05",
        "law t1 256 0.5", "poisson t2 16 1.0", "heat t2 16 0.2", "law t2 32 0.3",
        "wavy t2 16 0.7", "poisson su2 8 1.0", "heat su2 16 0.05", "law su2 16 0.8",
        "wavy su2 8 1.3", "bump/1.5/1.0 t1 64 0", "bump/2.0/0.5 t1 128 0",
        "bump/2.0/1.0 t1 256 0", "bump/3.0/1.5 t1 128 0",
    ])
    def test_batched_fit_matches_the_loop(self, case):
        T = _order_fit_input(case)
        assert gevrey_order_estimate(T) == gevrey_order_by_loop(T)

    def test_one_eigenvalue_refused_before_the_fit(self, t2):
        # the decaying coefficients at k = (1, 1), (1, -1) and their negatives
        # share lambda = 2: no law in sqrt(lambda) is determined (the loop
        # fit returns a meaningless 0.055 here)
        grid = haar_quadrature(t2, 4)
        x, y = grid.nodes.T
        f = GridFunction(t2, grid, (0.5 * np.cos(x + y) + 0.25 * np.cos(x - y))[:, None])
        with pytest.raises(EstimationError, match="one eigenvalue"):
            gevrey_order_estimate(forward(f))

    def test_exponential_families(self, t1):
        cases = [(lambda lam: np.exp(-np.sqrt(lam)), 1.0, 0.05),
                 (lambda lam: np.exp(-lam**0.25), 0.5, 0.05),
                 (lambda lam: np.exp(-lam), 2.0, 0.1)]
        for fn, expected, tol in cases:
            T = synth_coefficients(t1, 128, fn)
            assert gevrey_order_estimate(T) == pytest.approx(expected, abs=tol)

    def test_nondecreasing_rejected(self, t1):
        T = synth_coefficients(t1, 16, lambda lam: 1.0)
        with pytest.raises(EstimationError):
            gevrey_order_estimate(T)
