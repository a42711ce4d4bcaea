"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 7 is additionally exercised at its literally stated parameters,
where the required geometry is infeasible: eight partition pieces supported in
translates of W = (-0.25, 0.25) cannot cover a circle of circumference 2*pi
(any valid piece must be that narrow for the factor's support to stay inside
V = (-0.5, 0.5), and 8 * 0.5 < 2*pi).  The library therefore refuses the
configuration with a coverage error, and the test records the failure as a
strict expected failure.  The same pipeline is verified at every stated
tolerance in two feasible configurations: delta = 2 with k = 8 pieces (the
piece count the module's own default formula assigns to delta = 2), and the
stated delta = 0.5 with its default piece count 27.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from liefact.classify import estimate_critical_h, gevrey_order_estimate
from liefact.errors import CoverageError
from liefact.factorize import (
    FiniteRep,
    bounded_factorize_set,
    default_piece_count,
    factorize_vector,
    strong_factorize,
    supported_factorize,
)
from liefact.fourier import forward, inverse, parseval_defect
from liefact.groups import SU2, Torus, enumerate_dual, haar_quadrature, weyl_summability
from liefact.signals import poisson_function, random_bandlimited, synth_coefficients
from liefact.spectral import iterate_seminorm, iterates_vs_decay_check, laplacian_fd_defect
from liefact.weights import gevrey_weight, young_conjugate_grid


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[{label}] FAIL")
        raise
    print(f"[{label}] PASS")


def test_criterion_1_parseval_and_inversion():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    with criterion("criterion 1: Parseval + inversion"):
        for group, L in ((Torus(1), 64), (Torus(2), 16), (SU2(), 8)):
            grid = haar_quadrature(group, L)
            for _ in range(20):
                f = random_bandlimited(group, grid, rng)
                assert parseval_defect(f) <= 1e-9
                back = inverse(forward(f), grid)
                assert np.abs(back.values - f.values).max() <= 1e-9
        elapsed = time.monotonic() - start
        assert elapsed <= 30.0, f"runtime {elapsed:.1f}s exceeds 30s"


def test_criterion_2_convolution_theorem():
    from liefact.fourier import conv_theorem_defect

    rng = np.random.default_rng(102)
    with criterion("criterion 2: convolution theorem"):
        grid = haar_quadrature(Torus(1), 16)
        for _ in range(3):
            chi = random_bandlimited(Torus(1), grid, rng)
            f = random_bandlimited(Torus(1), grid, rng)
            assert conv_theorem_defect(chi, f) <= 1e-8
        grid = haar_quadrature(SU2(), 2)
        chi = random_bandlimited(SU2(), grid, rng)
        f = random_bandlimited(SU2(), grid, rng)
        assert conv_theorem_defect(chi, f) <= 1e-8


def test_criterion_3_laplacian_eigenvalues():
    rng = np.random.default_rng(103)
    with criterion("criterion 3: Laplacian eigenvalue identity"):
        for group in (Torus(1), Torus(2), SU2()):
            for _ in range(2):
                x = group.random_element(rng)
                for xi in enumerate_dual(group, 5):
                    if xi.casimir <= 20.0:
                        assert laplacian_fd_defect(group, xi, x) <= 1e-3


def test_criterion_4_iterates_shadow():
    with criterion("criterion 4: theorem-of-iterates shadow"):
        f = poisson_function(Torus(1), haar_quadrature(Torus(1), 64), 1.0)
        report = iterates_vs_decay_check(f, gevrey_weight(1.0), 1.2)
        assert report.consistent
        assert report.c1 <= 1e4 and report.c2 <= 1e4
        r40 = iterate_seminorm(f, gevrey_weight(1.0), 1.2, j_max=40)
        r80 = iterate_seminorm(f, gevrey_weight(1.0), 1.2, j_max=80)
        assert np.isfinite(r40.value)
        assert abs(r80.value - r40.value) <= 0.01 * r40.value


def test_criterion_5_gevrey_classification():
    with criterion("criterion 5: Gevrey classification"):
        for group, L in ((Torus(1), 128), (SU2(), 32)):
            for c in (0.5, 1.0, 2.0):
                for s in (0.5, 1.0):
                    T = synth_coefficients(
                        group, L, lambda lam: np.exp(-c * lam ** (s / 2.0)))
                    s_est = gevrey_order_estimate(T)
                    assert abs(s_est - s) <= 0.05 * s, (group, c, s, s_est)
                    report = estimate_critical_h(T, gevrey_weight(s))
                    assert abs(report.h_star - 1.0 / c) <= 0.10 / c, (group, c, s)


def test_criterion_6_strong_factorization():
    rng = np.random.default_rng(106)
    start = time.monotonic()
    w = gevrey_weight(1.0)
    with criterion("criterion 6: strong factorization"):
        cases = [(Torus(1), 16, 5), (SU2(), 4, 5)]
        for group, L, count in cases:
            grid = haar_quadrature(group, L)
            for _ in range(count):
                f = random_bandlimited(group, grid, rng, decay=1.5)
                res = strong_factorize(f, w, 1.0, 2.0)
                assert res.residual <= 1e-10
                assert res.min_transfer_margin >= -1e-10
        fam = [poisson_function(Torus(1), haar_quadrature(Torus(1), 64), t)
               for t in (1.0, 1.5, 2.0)]
        bres = bounded_factorize_set(fam, w, 1.0, 2.0)
        assert max(bres.residuals) <= 1e-10
        rep = FiniteRep.from_labels(SU2(), [0, 1, 2])
        v = rng.standard_normal(rep.total_dim) + 1j * rng.standard_normal(rep.total_dim)
        vres = factorize_vector(rep, v, w, 1.0, 2.0)
        assert vres.action_residual <= 1e-9
        assert vres.orbit_residual <= 1e-9
        elapsed = time.monotonic() - start
        assert elapsed <= 10.0, f"runtime {elapsed:.1f}s exceeds 10s"


def _check_supported(delta, k, tol_outside=1e-6):
    grid = haar_quadrature(Torus(1), 256)
    f = poisson_function(Torus(1), grid, 2.0)
    res = supported_factorize(f, delta, gevrey_weight(0.5), 0.5, 1.0,
                              k=k, bump_order=2.0)
    for xi in res.mu:
        assert res.mu[xi] > 0.0
        assert res.mu[xi] >= res.mu_bounds[xi] - 1e-8
    sup_g = float(np.abs(res.g.values).max())
    assert res.outside_support_mass <= tol_outside * sup_g
    assert res.residual <= 1e-7
    return res


@pytest.mark.xfail(
    strict=True,
    raises=CoverageError,
    reason="stated parameters are geometrically infeasible: 8 pieces of width "
    "delta = 0.5 cover at most 4 of the 2*pi circle, so no partition "
    "subordinate to translates of W = (-delta/2, delta/2) exists",
)
def test_criterion_7_supported_factorization_as_stated():
    with criterion("criterion 7 (as stated): supported factorization"):
        _check_supported(delta=0.5, k=8)


def test_criterion_7_supported_factorization_feasible():
    start = time.monotonic()
    with criterion("criterion 7 (feasible delta=2, k=8): supported factorization"):
        _check_supported(delta=2.0, k=8)
        elapsed = time.monotonic() - start
        assert elapsed <= 20.0, f"runtime {elapsed:.1f}s exceeds 20s"


def test_criterion_7_supported_factorization_stated_delta_default_k():
    with criterion("criterion 7 (delta=0.5, default k=27): supported factorization"):
        assert default_piece_count(0.5) == 27
        _check_supported(delta=0.5, k=None)


def test_criterion_8_weyl_summability():
    with criterion("criterion 8: Weyl summability signature"):
        sums = weyl_summability(SU2(), 3.0, 64)

        def inc(L):
            return sums[L - 1] - sums[L // 2 - 1]

        for L in (8, 16, 32):
            assert inc(2 * L) / inc(L) <= 0.7
        sums = weyl_summability(SU2(), 1.5, 64)
        assert np.all(np.diff(sums) > 0.0)
        for L in (8, 16, 32):
            assert sums[2 * L - 1] / sums[L - 1] >= 1.1


def test_criterion_9_young_conjugate_oracle():
    with criterion("criterion 9: Young conjugate oracle"):
        ts = np.linspace(0.0, 50.0, 101)
        for s in (0.5, 1.0):
            for h in (0.5, 1.0, 2.0):
                with np.errstate(divide="ignore", invalid="ignore"):
                    closed = np.where(
                        h * ts <= s, 0.0,
                        1.0 / h + (ts / s) * (np.log(h / (s * np.e)) + np.log(ts)),
                    )
                grid = young_conjugate_grid(gevrey_weight(s), h, ts)
                rel = np.abs(grid - closed) / np.maximum(np.abs(closed), 1.0)
                assert np.max(rel) <= 1e-6
