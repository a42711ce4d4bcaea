import numpy as np
import pytest

from liefact.fourier import GridFunction, forward, inverse, evaluate
from liefact.groups import enumerate_dual, haar_quadrature
from liefact.signals import poisson_function, random_bandlimited
from liefact.spectral import (
    apply_laplacian,
    iterate_seminorm,
    iterate_supnorms,
    iterates_vs_decay_check,
    laplacian_fd_defect,
)
from liefact.weights import gevrey_weight


class TestApplyLaplacian:
    def test_trivial_block_unchanged(self, su2, rng):
        grid = haar_quadrature(su2, 2)
        f = random_bandlimited(su2, grid, rng)
        T = forward(f)
        out = apply_laplacian(T)
        triv = [xi for xi in T.entries if xi.casimir == 0][0]
        assert np.abs(out.entries[triv]).max() == 0.0

    def test_torus_multiplier(self, t1, rng):
        grid = haar_quadrature(t1, 4)
        f = random_bandlimited(t1, grid, rng)
        T = forward(f)
        out = apply_laplacian(T)
        k3 = [xi for xi in T.entries if xi.label == (3,)][0]
        assert np.allclose(out.entries[k3], -9.0 * T.entries[k3])

    def test_su2_multiplier(self, su2, rng):
        grid = haar_quadrature(su2, 2)
        f = random_bandlimited(su2, grid, rng)
        out = apply_laplacian(forward(f))
        T = forward(f)
        xi2 = [xi for xi in T.entries if xi.label == 2][0]
        assert np.allclose(out.entries[xi2], -2.0 * T.entries[xi2])


class TestFiniteDifferences:
    def test_torus_character(self, t1, rng):
        xi = [x for x in enumerate_dual(t1, 4) if x.label == (2,)][0]
        for _ in range(3):
            x = t1.random_element(rng)
            assert laplacian_fd_defect(t1, xi, x, 1e-3) < 1e-4

    def test_su2_defining_rep(self, su2, rng):
        # validates lambda = 3/4 under the metric normalization
        xi = [x for x in enumerate_dual(su2, 1) if x.label == 1][0]
        for _ in range(3):
            x = su2.random_element(rng)
            assert laplacian_fd_defect(su2, xi, x, 1e-3) < 1e-3

    def test_trivial_rep(self, su2, rng):
        xi = [x for x in enumerate_dual(su2, 1) if x.label == 0][0]
        assert laplacian_fd_defect(su2, xi, su2.random_element(rng), 1e-3) <= 1e-3

    def test_fd_commutes_with_forward(self, t1, rng):
        # forward of the finite-difference Laplacian vs spectral multiplication
        grid = haar_quadrature(t1, 8)
        f = random_bandlimited(t1, grid, rng)
        T = forward(f)
        step = 1e-3
        shift_p = evaluate(T, np.mod(grid.nodes + step, 2 * np.pi))
        shift_m = evaluate(T, np.mod(grid.nodes - step, 2 * np.pi))
        lap_fd = GridFunction(t1, grid, (shift_p - 2 * f.values + shift_m) / step**2)
        T_fd = forward(lap_fd)
        T_spec = apply_laplacian(T)
        worst = max(
            np.abs(T_fd.entries[xi] - T_spec.entries[xi]).max() for xi in T.entries
        )
        assert worst < 1e-4


class TestIterates:
    def test_constant_function(self, t1):
        # spectral iterates amplify the roundoff floor by lambda_max^j, so the
        # "exact zero" entries are asserted at that scale
        grid = haar_quadrature(t1, 4)
        f = GridFunction(t1, grid, np.full(grid.size, 2.0))
        sup = iterate_supnorms(f, 3)
        assert sup[0] == pytest.approx(2.0, abs=1e-12)
        assert np.all(sup[1:] < 1e-10)

    def test_eigenfunction_powers(self, t1):
        grid = haar_quadrature(t1, 4)
        f = GridFunction(t1, grid, np.exp(2j * grid.nodes[:, 0]))
        sup = iterate_supnorms(f, 8)
        assert np.allclose(sup, 4.0 ** np.arange(9), rtol=1e-8)

    def test_poisson_against_direct_summation(self, t1):
        # oracle: sup |Lap^j f| = sum_k k^{2j} e^{-|k|} attained at x = 0
        L = 16
        f = poisson_function(t1, haar_quadrature(t1, L), 1.0)
        sup = iterate_supnorms(f, 10)
        ks = np.arange(-L, L + 1)
        for j in range(11):
            ref = np.sum(np.abs(ks, dtype=float) ** (2 * j) * np.exp(-np.abs(ks)))
            assert sup[j] == pytest.approx(ref, rel=1e-8)

    def test_overflow_reported_as_inf(self, t1):
        grid = haar_quadrature(t1, 64)
        f = GridFunction(t1, grid, np.exp(64j * grid.nodes[:, 0]))
        sup = iterate_supnorms(f, 90)
        assert np.isinf(sup[-1])
        assert np.isfinite(sup[0])


class TestIterateSeminorm:
    def test_constant(self, t1):
        grid = haar_quadrature(t1, 4)
        f = GridFunction(t1, grid, np.full(grid.size, 1.5))
        rep = iterate_seminorm(f, gevrey_weight(1.0), 1.0)
        assert rep.value == pytest.approx(1.5, abs=1e-12)
        assert rep.argmax_j == 0

    def test_poisson_stable_above_threshold(self, t1):
        f = poisson_function(t1, haar_quadrature(t1, 64), 1.0)
        r40 = iterate_seminorm(f, gevrey_weight(1.0), 1.2, j_max=40)
        r80 = iterate_seminorm(f, gevrey_weight(1.0), 1.2, j_max=80)
        assert np.isfinite(r40.value)
        assert abs(r80.value - r40.value) <= 0.01 * r40.value
        assert r40.argmax_j < 40

    def test_poisson_grows_below_threshold(self, t1):
        f = poisson_function(t1, haar_quadrature(t1, 64), 1.0)
        r20 = iterate_seminorm(f, gevrey_weight(1.0), 0.5, j_max=20)
        r40 = iterate_seminorm(f, gevrey_weight(1.0), 0.5, j_max=40)
        assert r40.value > 10.0 * r20.value

    def test_climb_cut_at_j_max_is_not_reached(self, t1):
        # outside the class the weighted terms still climb at j_max = 40: the
        # value (5.35e33) is the last term computed, not a sup; with j_max = 80
        # they peak at j = 64 (1.5e38) and have not fallen by 1e-3 at j = 80
        f = poisson_function(t1, haar_quadrature(t1, 64), 1.0)
        r40 = iterate_seminorm(f, gevrey_weight(1.0), 0.5, j_max=40)
        r80 = iterate_seminorm(f, gevrey_weight(1.0), 0.5, j_max=80)
        assert r40.argmax_j == 40 and r80.value > 1e3 * r40.value
        for rep, j_max in ((r40, 40), (r80, 80)):
            assert not rep.saturated and not rep.reached
            assert len(rep.js) == j_max + 1

    def test_early_stop_reaches_the_sup(self, t1, su2):
        # the rule fires at j = 44 for h = 1.2 (three terms below 1e-3 of the
        # sup at j = 26), so j_max = 40 stops before it does
        f = poisson_function(t1, haar_quadrature(t1, 64), 1.0)
        r40 = iterate_seminorm(f, gevrey_weight(1.0), 1.2, j_max=40)
        r80 = iterate_seminorm(f, gevrey_weight(1.0), 1.2, j_max=80)
        assert r80.reached and len(r80.js) < 81 and r80.argmax_j == r40.argmax_j
        assert not r40.reached and not r40.saturated
        zero = GridFunction(su2, haar_quadrature(su2, 2), np.zeros(haar_quadrature(su2, 2).size))
        rep = iterate_seminorm(zero, gevrey_weight(1.0), 1.0)
        assert rep.reached and rep.value == 0.0 and len(rep.js) == 3

    def test_saturation_flag_on_overflow(self, t1):
        # lambda = 1e6 overflows the iterates near j = 51 while the weighted
        # terms are still climbing, so the sup saturates instead of converging
        grid = haar_quadrature(t1, 1000)
        f = GridFunction(t1, grid, np.exp(1000j * grid.nodes[:, 0]))
        rep = iterate_seminorm(f, gevrey_weight(1.0), 1.0, j_max=80)
        assert rep.saturated
        assert np.isinf(rep.value)
        assert not rep.reached

    def test_step_precondition(self, t1, rng):
        xi = enumerate_dual(t1, 2)[0]
        from liefact.errors import DomainError
        with pytest.raises(DomainError):
            laplacian_fd_defect(t1, xi, t1.random_element(rng), 1.0)


class TestIteratesVsDecay:
    def test_poisson_constants(self, t1):
        f = poisson_function(t1, haar_quadrature(t1, 64), 1.0)
        rep = iterates_vs_decay_check(f, gevrey_weight(1.0), 1.2)
        assert rep.consistent
        assert rep.c1 <= 1e3 and rep.c2 <= 1e3

    def test_single_matrix_coefficient(self, su2):
        grid = haar_quadrature(su2, 2)
        xi2 = [xi for xi in enumerate_dual(su2, 2) if xi.label == 2][0]
        table = su2.irrep_matrices(xi2, grid.nodes)
        f = GridFunction(su2, grid, table[:, 0, 0])
        rep = iterates_vs_decay_check(f, gevrey_weight(1.0), 1.0)
        assert rep.consistent

    def test_zero_function(self, t1):
        grid = haar_quadrature(t1, 4)
        f = GridFunction(t1, grid, np.zeros(grid.size))
        rep = iterates_vs_decay_check(f, gevrey_weight(1.0), 1.0)
        assert rep.consistent
        assert rep.c1 == 0.0 and rep.c2 == 0.0


class TestOperatorProperties:
    def _inner(self, f, g):
        return complex(np.sum(f.grid.weights[:, None] * f.values * g.values.conj()))

    def test_self_adjointness(self, su2, rng):
        grid = haar_quadrature(su2, 3)
        f = random_bandlimited(su2, grid, rng)
        g = random_bandlimited(su2, grid, rng)
        lf = inverse(apply_laplacian(forward(f)), grid)
        lg = inverse(apply_laplacian(forward(g)), grid)
        assert abs(self._inner(lf, g) - self._inner(f, lg)) < 1e-9

    def test_negative_semidefinite(self, t1, su2, rng):
        for g, L in ((t1, 16), (su2, 3)):
            grid = haar_quadrature(g, L)
            f = random_bandlimited(g, grid, rng)
            lf = inverse(apply_laplacian(forward(f)), grid)
            assert self._inner(lf, f).real <= 1e-12

    def test_eigenfunction_geometric_growth(self, su2, rng):
        grid = haar_quadrature(su2, 2)
        xi2 = [xi for xi in enumerate_dual(su2, 2) if xi.label == 2][0]
        table = su2.irrep_matrices(xi2, grid.nodes)
        f = GridFunction(su2, grid, table[:, 1, 0])
        sup = iterate_supnorms(f, 6)
        ratios = sup[1:] / sup[:-1]
        assert np.allclose(ratios, xi2.casimir, rtol=1e-8)
