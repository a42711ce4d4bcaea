"""The runnable property suite behind ``liefact verify``.

Each check measures a defect and compares it against a fixed bound; the suite
is deterministic given the seed, and the pass/fail set is seed-independent by
design (all bounds carry comfortable margins over the roundoff scale).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fourier
from .classify import decay_seminorm, estimate_critical_h, gevrey_order_estimate
from .factorize import (
    FiniteRep,
    bounded_factorize_set,
    factorize_vector,
    strong_factorize,
    supported_factorize,
)
from .fourier import GridFunction, forward, inverse, involution, parseval_defect
from .groups import SU2, Torus
from .signals import poisson_function, random_bandlimited, synth_coefficients
from .spectral import FD_BOUND, apply_laplacian, laplacian_fd_defect
from .weights import eval_weight, gevrey_weight, young_conjugate, young_conjugate_grid


@dataclass
class CheckResult:
    name: str
    measured: float
    bound: float

    @property
    def ok(self) -> bool:
        return bool(self.measured <= self.bound)

    @property
    def margin(self) -> float:
        """bound - measured: how far the check is from failing (negative = failed)."""
        return self.bound - self.measured


def _inner(f: GridFunction, g: GridFunction) -> complex:
    return complex(f.grid.integrate(f.values * g.values.conj()).sum())


def run_verification(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    t1, t2, su2 = Torus(1), Torus(2), SU2()
    L1, L2, Ls = 32, 10, 6
    results: list[CheckResult] = []

    def check(name, measured, bound):
        results.append(CheckResult(name, float(measured), float(bound)))

    # -- weights ---------------------------------------------------------
    worst = 0.0
    ts = np.linspace(0.0, 50.0, 101)
    for s in (0.5, 1.0):
        w = gevrey_weight(s)
        for h in (0.5, 1.0, 2.0):
            closed = young_conjugate(w, h, ts)
            grid = young_conjugate_grid(w, h, ts)
            worst = max(worst, float(np.max(np.abs(closed - grid) / np.maximum(closed, 1.0))))
    check("weights/young-conjugate-closed-form", worst, 1e-6)

    w1 = gevrey_weight(1.0)
    t_pairs = rng.uniform(0, 20, size=(50, 2))
    defect = max(
        young_conjugate(w1, 1.0, a) + young_conjugate(w1, 1.0, b)
        - young_conjugate(w1, 1.0, a + b)
        for a, b in t_pairs
    )
    check("weights/conjugate-superadditive", defect, 1e-10)

    pairs = np.sort(rng.uniform(0, 100, size=(50, 2)), axis=1)
    mono = max(eval_weight(w1, a) - eval_weight(w1, b) for a, b in pairs)
    check("weights/monotone", mono, 0.0)

    # -- groups ----------------------------------------------------------
    norm_defect = 0.0
    for g, L in ((t1, L1), (t2, L2), (su2, Ls)):
        norm_defect = max(norm_defect, abs(g.haar_quadrature(L).weights.sum() - 1.0))
    check("group/quadrature-normalization", norm_defect, 1e-13)

    worst = 0.0
    for g, L in ((t1, 3), (su2, 2)):
        grid = g.haar_quadrature(L)
        duals = g.enumerate_dual(L)
        tables = {xi.label: g.irrep_matrices(xi, grid.nodes) for xi in duals}
        for xi in duals:
            for eta in duals:
                val = np.einsum("n,nij,nkl->ijkl", grid.weights,
                                tables[xi.label], tables[eta.label].conj())
                if xi.label == eta.label:
                    d = xi.dim
                    val = val - np.einsum("ik,jl->ijkl", np.eye(d), np.eye(d)) / d
                worst = max(worst, float(np.max(np.abs(val))))
    check("group/schur-orthogonality", worst, 1e-10)

    worst = 0.0
    for g in (t1, t2, su2):
        for _ in range(8):
            x, y = g.random_element(rng), g.random_element(rng)
            for xi in g.enumerate_dual(2):
                mx, my = g.irrep_matrix(xi, x), g.irrep_matrix(xi, y)
                worst = max(worst, float(np.max(np.abs(
                    g.irrep_matrix(xi, g.multiply(x, y)) - mx @ my))))
                worst_u = float(np.max(np.abs(mx @ mx.conj().T - np.eye(xi.dim))))
                worst = max(worst, worst_u)
    check("group/homomorphism-unitarity", worst, 1e-10)

    # -- fourier -----------------------------------------------------------
    worst_rt, worst_par = 0.0, 0.0
    for g, L in ((t1, L1), (t2, L2), (su2, Ls)):
        grid = g.haar_quadrature(L)
        for _ in range(3):
            f = random_bandlimited(g, grid, rng, value_dim=2)
            f0 = GridFunction(g, grid, f.values[:, 0])
            rt = inverse(forward(f), grid)
            worst_rt = max(worst_rt, float(np.max(np.abs(rt.values - f.values))))
            worst_par = max(worst_par, parseval_defect(f0, forward(f0)))
    check("fourier/roundtrip", worst_rt, 1e-9)
    check("fourier/parseval", worst_par, 1e-9)

    grid = su2.haar_quadrature(2)
    fa = random_bandlimited(su2, grid, rng)
    fb = random_bandlimited(su2, grid, rng)
    Ta, Tb = forward(fa), forward(fb)
    lin = inverse(fourier.FourierCoefficients(
        su2, 2, [2.0 * a + 1j * b for a, b in zip(Ta.blocks, Tb.blocks)]), grid)
    ref = 2.0 * fa.values + 1j * fb.values
    check("fourier/linearity", float(np.max(np.abs(lin.values - ref))), 1e-12)

    # convolution against the nested quadrature (resolves through the module
    # namespace so the mutation hook in the test-suite can intercept it)
    worst = 0.0
    for g, L in ((t1, 8), (su2, 1)):
        grid = g.haar_quadrature(L)
        chi = random_bandlimited(g, grid, rng)
        f = random_bandlimited(g, grid, rng, value_dim=2)
        fast = fourier.convolve(chi, f)
        slow = fourier.convolve_by_quadrature(chi, f)
        worst = max(worst, float(np.max(np.abs(fast.values - slow.values))))
    check("fourier/convolution-vs-quadrature", worst, 1e-9)

    grid = t1.haar_quadrature(12)
    c1 = random_bandlimited(t1, grid, rng)
    c2 = random_bandlimited(t1, grid, rng)
    f = random_bandlimited(t1, grid, rng, value_dim=2)
    lhs = forward(fourier.convolve(fourier.convolve(c1, c2), f))
    (b1,), (b2,), (bf,) = (forward(g).blocks for g in (c1, c2, f))  # one block on the circle
    ref = np.einsum("nab,nbc,nvcd->nvad", b1[:, 0], b2[:, 0], bf)
    check("fourier/convolution-associativity", float(np.max(np.abs(lhs.blocks[0] - ref))), 1e-9)

    psi = random_bandlimited(su2, su2.haar_quadrature(2), rng)
    Tp, Tps = forward(psi), forward(involution(psi))
    worst = max(float(np.max(np.abs(a[:, 0] - b[:, 0].conj().swapaxes(1, 2))))
                for a, b in zip(Tps.blocks, Tp.blocks))
    check("fourier/involution-adjoint", worst, 1e-10)

    # -- spectral ----------------------------------------------------------
    worst = 0.0
    for g in (t1, t2, su2):
        x = g.random_element(rng)
        for xi in g.enumerate_dual(4):
            if xi.casimir <= 20.0:
                worst = max(worst, laplacian_fd_defect(g, xi, x))
    check("spectral/laplacian-eigenvalue-fd", worst, FD_BOUND)

    grid = t1.haar_quadrature(16)
    f = random_bandlimited(t1, grid, rng)
    g2 = random_bandlimited(t1, grid, rng)
    lf = inverse(apply_laplacian(forward(f)), grid)
    lg = inverse(apply_laplacian(forward(g2)), grid)
    check("spectral/self-adjoint", abs(_inner(lf, g2) - _inner(f, lg)), 1e-9)
    check("spectral/negative-semidefinite", _inner(lf, f).real, 1e-12)

    # -- classify ----------------------------------------------------------
    T = synth_coefficients(t1, 64, lambda lam: np.exp(-1.5 * np.sqrt(lam)))
    h_prev, worst = None, 0.0
    for h in (0.5, 1.0, 2.0, 4.0):
        v = decay_seminorm(T, w1, h)
        if h_prev is not None:
            worst = max(worst, v - h_prev)
        h_prev = v
    check("classify/seminorm-monotone-in-h", worst, 0.0)

    c = 3.7
    scaled = decay_seminorm(T.scaled(np.full(len(T.duals), c)), w1, 1.0)
    check("classify/scaling-equivariance",
          abs(scaled - c * decay_seminorm(T, w1, 1.0)), 1e-9)

    rep = estimate_critical_h(T, w1)
    s_est = gevrey_order_estimate(T)
    check("classify/synthesized-recovery",
          max(abs(rep.h_star - 1 / 1.5) * 1.5, abs(s_est - 1.0)), 0.01)

    # -- factorize -----------------------------------------------------------
    # decay 1.5 > 1/h keeps the weighted seminorm O(1), so the transfer
    # margins are roundoff-clean at the stated absolute tolerance
    grid = t1.haar_quadrature(16)
    f = random_bandlimited(t1, grid, rng, decay=1.5)
    res = strong_factorize(f, w1, 1.0, 2.0)
    check("factorize/strong-residual", res.residual, 1e-10)
    check("factorize/decay-transfer-margin", -res.min_transfer_margin, 1e-10)

    fam = [poisson_function(t1, t1.haar_quadrature(32), t) for t in (1.0, 1.5, 2.0)]
    bres = bounded_factorize_set(fam, w1, 1.0, 2.0)
    check("factorize/family-residual", max(bres.residuals), 1e-10)

    repn = FiniteRep.from_labels(su2, [0, 1, 2])
    v = rng.standard_normal(repn.total_dim) + 1j * rng.standard_normal(repn.total_dim)
    vres = factorize_vector(repn, v, w1, 1.0, 2.0)
    check("factorize/vector", max(vres.action_residual, vres.orbit_residual), 1e-9)

    # the outside-support mass measures band-limit truncation of the bump
    # pieces, so this check needs a high band limit
    w05 = gevrey_weight(0.5)
    gridS = t1.haar_quadrature(256)
    fS = poisson_function(t1, gridS, 2.0)
    sres = supported_factorize(fS, 2.0, w05, 0.5, 1.0, k=8)
    check("factorize/supported-residual", sres.residual, 1e-7)
    check("factorize/supported-mu-bound", -sres.min_mu_margin, 1e-8)
    check("factorize/supported-outside-mass",
          sres.outside_support_mass / float(np.max(np.abs(sres.g.values))), 1e-6)

    return results
