import gc
import inspect
import re
import warnings
import weakref

import numpy as np
import pytest

import liefact.fourier
from liefact.errors import BandlimitMismatchError, DomainError, ParameterError
from liefact.fourier import (
    FourierCoefficients,
    GridFunction,
    compose,
    conv_theorem_defect,
    convolve,
    convolve_by_quadrature,
    evaluate,
    forward,
    inverse,
    involution,
    parseval_defect,
)
from liefact.groups import (
    SU2,
    DualIndex,
    QuadratureGrid,
    Torus,
    dual_layout,
    enumerate_dual,
    haar_quadrature,
)
from liefact.signals import (
    poisson_coefficients,
    random_bandlimited,
    reproducing_kernel,
    synth_coefficients,
)
from liefact.serialize import decay_table_csv
from liefact.spectral import apply_laplacian
from test_wigner import wigner_d_sum


def s3_poisson(pts, r):
    """The S^3 Poisson kernel (1 - r^2) / (1 - 2r cos phi + r^2)^2 at (n, 3)
    elements, cos phi = cos(beta/2) cos((alpha + gamma)/2): sum_l (2l + 1)
    r^{2l} chi_l, so its coefficients are r^{2l} I.  An oracle with no
    transform and no Wigner code."""
    c = np.cos(pts[:, 1] / 2) * np.cos((pts[:, 0] + pts[:, 2]) / 2)
    return (1 - r * r) / (1 - 2 * r * c + r * r) ** 2


class TestForward:
    def test_constant_function(self, t1, su2):
        for g in (t1, su2):
            grid = haar_quadrature(g, 2)
            f = GridFunction(g, grid, np.ones(grid.size))
            T = forward(f)
            for xi, t in T.entries.items():
                if xi.casimir == 0:
                    assert t[0, 0, 0] == pytest.approx(1.0, abs=1e-12)
                else:
                    assert np.abs(t).max() < 1e-12

    def test_torus_character_lands_on_its_label(self, t1, t2):
        # f(x) = e^{3ix} has classical Fourier coefficient delta_{k,3}; on T^2
        # the sign and axis order of (2, -3) catch mirrored or swapped labels
        for g, k in ((t1, (3,)), (t2, (2, -3))):
            grid = haar_quadrature(g, 8)
            f = GridFunction(g, grid, np.exp(1j * grid.nodes @ np.array(k, dtype=float)))
            T = forward(f)
            for xi, t in T.entries.items():
                expected = 1.0 if xi.label == k else 0.0
                assert abs(t[0, 0, 0] - expected) < 1e-12

    def test_su2_conjugate_coefficient_schur_value(self, su2):
        # conj(D^1_00) concentrates in the 2l = 2 block with single entry 1/3
        grid = haar_quadrature(su2, 2)
        xi2 = [xi for xi in enumerate_dual(su2, 2) if xi.label == 2][0]
        table = su2.irrep_matrices(xi2, grid.nodes)
        f = GridFunction(su2, grid, table[:, 1, 1].conj())
        T = forward(f)
        for xi, t in T.entries.items():
            ref = np.zeros((xi.dim, xi.dim))
            if xi.label == 2:
                ref[1, 1] = 1.0 / 3.0
            assert np.abs(t[0] - ref).max() < 1e-10

    def test_su2_off_centre_coefficients_land_in_place(self, su2):
        # conj(D^xi_ij) at 2l = 3 concentrates at (i, j) of its block with value
        # 1/4; a mirrored or transposed degree slice would move it, which a
        # roundtrip cannot see because forward and inverse would agree
        grid = haar_quadrature(su2, 3)
        xi3 = [xi for xi in enumerate_dual(su2, 3) if xi.label == 3][0]
        table = su2.irrep_matrices(xi3, grid.nodes)
        picks = [(0, 1), (2, 0)]  # one per value_dim slice
        f = GridFunction(su2, grid, np.stack([table[:, i, j].conj() for i, j in picks], axis=1))
        T = forward(f)
        for two_l, block in enumerate(T.blocks):
            ref = np.zeros(block.shape[1:])
            if two_l == 3:
                for v, (i, j) in enumerate(picks):
                    ref[v, i, j] = 1.0 / 4.0
            assert np.abs(block[0] - ref).max() < 1e-12

    def test_su2_one_plan_per_grid(self, su2, rng, monkeypatch):
        # L' < L is served from the grid's one plan, E, and from the levels
        # 2l <= 2L' of the one Delta = d(pi/2) table; a private grid declared
        # at L' on the same axes carries the per-L' E and reads the same
        # levels, and both agree bit for bit
        import liefact._wigner
        import liefact.groups

        shared = haar_quadrature(su2, 12)
        points, factors, axes = shared.points, shared.factors, shared.axes
        grid = QuadratureGrid(su2, 12, points, factors, axes)
        f = GridFunction(su2, grid, random_bandlimited(su2, shared, rng, value_dim=2).values)
        gammas = points[2]
        own = {Lp: QuadratureGrid(su2, Lp, points, factors, {
            **axes, "E": np.exp(-0.5j * np.outer(gammas, np.arange(-2 * Lp, 2 * Lp + 1)))})
            for Lp in (3, 7, 12)}
        for Lp in own:
            liefact.groups.wigner_d_half_pi(2 * Lp)

        def refuse(*args):
            raise AssertionError("a Wigner level was built after the grids")

        read, cached = [], liefact.groups.wigner_d_half_pi
        monkeypatch.setattr(liefact._wigner, "wigner_d_matrices", refuse)
        monkeypatch.setattr(liefact.groups, "wigner_d_half_pi",
                            lambda two_l_max: read.append(two_l_max) or cached(two_l_max))
        for Lp in (3, 7, 12):
            read.clear()
            T = forward(f, Lp)
            assert set(read) == {2 * Lp}
            ref = forward(GridFunction(su2, own[Lp], f.values), Lp)
            assert all(np.array_equal(a, b) for a, b in zip(T.blocks, ref.blocks))
            assert np.array_equal(inverse(T, grid).values, inverse(ref, own[Lp]).values)
        assert grid.axes["E"].shape == (grid.axes["B"], 4 * 12 + 1)  # the B rows _plan reads

    @pytest.mark.parametrize("L, r", [(16, 0.3), (32, 0.5)])
    def test_su2_forward_of_the_s3_poisson_kernel(self, su2, L, r):
        # the kernel sampled pointwise on the grid, not through inverse, has
        # the coefficients r^{2l} I; what aliases in is below 1e-17
        grid = haar_quadrature(su2, L)
        T = forward(GridFunction(su2, grid, s3_poisson(grid.nodes, r)))
        for two_l, block in enumerate(T.blocks):
            assert np.abs(block[0, 0] - r ** two_l * np.eye(two_l + 1)).max() <= 1e-12

    @pytest.mark.parametrize("group", [Torus(1), Torus(2), SU2()], ids=["t1", "t2", "su2"])
    @pytest.mark.parametrize("L", [0, -1])
    def test_bandlimit_below_one_is_a_domain_error(self, group, L):
        # refused before any group call: SU(2) used to fail inside its plan
        # with a bare numpy reshape error
        grid = haar_quadrature(group, 3)
        f = GridFunction(group, grid, np.ones(grid.size))
        with pytest.raises(DomainError, match="band limit must be >= 1"):
            forward(f, L)

    def test_bandlimit_mismatch(self, t1):
        grid = haar_quadrature(t1, 4)
        f = GridFunction(t1, grid, np.ones(grid.size))
        with pytest.raises(BandlimitMismatchError):
            forward(f, bandlimit=8)


class TestInverse:
    def test_roundtrip(self, t1, t2, su2, rng):
        for g, L in ((t1, 32), (t2, 8), (su2, 16)):
            grid = haar_quadrature(g, L)
            f = random_bandlimited(g, grid, rng, value_dim=2)
            back = inverse(forward(f), grid)
            assert np.abs(back.values - f.values).max() < 1e-9

    def test_trivial_coefficient_gives_constant(self, su2):
        T = synth_coefficients(su2, 1, lambda lam: 1.0 if lam == 0 else 0.0)
        c = 2.5 - 0.5j
        T.entries[[xi for xi in T.entries if xi.casimir == 0][0]][0, 0, 0] = c
        f = inverse(T)
        assert np.abs(f.values - c).max() < 1e-12

    def test_poisson_kernel_against_direct_summation(self, t1, t2):
        # oracle: f(x) = sum_k e^{-|k|} e^{ikx} summed directly
        L = 16
        T = poisson_coefficients(t1, L, 1.0)
        f = inverse(T)
        x = f.grid.nodes[:, 0]
        ref = np.zeros(len(x), dtype=complex)
        for k in range(-L, L + 1):
            ref += np.exp(-abs(k)) * np.exp(1j * k * x)
        assert np.abs(f.values[:, 0] - ref).max() < 1e-12
        # T^2: a direct double sum of e^{-|k|} e^{i(k1 x1 + k2 x2)}
        L = 5
        f = inverse(poisson_coefficients(t2, L, 1.0))
        x1, x2 = f.grid.nodes[:, 0], f.grid.nodes[:, 1]
        ref = np.zeros(len(x1), dtype=complex)
        for k1 in range(-L, L + 1):
            for k2 in range(-L, L + 1):
                ref += np.exp(-np.hypot(k1, k2)) * np.exp(1j * (k1 * x1 + k2 * x2))
        assert np.abs(f.values[:, 0] - ref).max() < 1e-12

    def test_su2_integer_spins_stay_integer(self, su2, rng):
        # the integer and the half-integer spins run as two transforms: a
        # family with integer spins only keeps its half-integer blocks at
        # roundoff through inverse and forward
        grid = haar_quadrature(su2, 6)
        T = forward(random_bandlimited(su2, grid, rng, value_dim=2))
        blocks = [b if two_l % 2 == 0 else np.zeros_like(b) for two_l, b in enumerate(T.blocks)]
        back = forward(inverse(FourierCoefficients(su2, 6, blocks), grid))
        scale = max(np.abs(b).max() for b in blocks)
        for two_l, (got, ref) in enumerate(zip(back.blocks, blocks)):
            assert np.abs(got - ref).max() <= (1e-12 if two_l % 2 == 0 else 1e-14) * scale

    @pytest.mark.parametrize("group, L, Lp", [
        (Torus(1), 16, 16), (Torus(2), 6, 4), (SU2(), 3, 3), (SU2(), 16, 16), (SU2(), 8, 5)],
        ids=["t1-16", "t2-6-at-4", "su2-3", "su2-16", "su2-8-at-5"])
    def test_inverse_is_the_adjoint_of_forward(self, group, L, Lp, rng):
        # on arbitrary grid data, not only band-limited, with m = 3 and every
        # degree's block random (both spin parities on SU(2)):
        # sum_x w_x <inverse(T)(x), f(x)> = sum_xi d_xi <T_xi, forward(f, L')_xi>_HS,
        # relative to the Cauchy-Schwarz bound ||inverse(T)|| ||f|| of the left side
        grid = haar_quadrature(group, L)
        f = GridFunction(group, grid, rng.standard_normal((grid.size, 3, 2)) @ [1, 1j])
        layout = dual_layout(group, Lp)
        T = FourierCoefficients(group, Lp, [
            rng.standard_normal((len(idx), 3, d, d, 2)) @ [1, 1j]
            for d, idx in zip(layout.dims, layout.members)])
        back = inverse(T, grid).values
        left = np.sum(grid.weights[:, None] * back.conj() * f.values)
        F = forward(f, Lp)
        right = sum(d * np.vdot(t, c) for d, t, c in zip(layout.dims, T.blocks, F.blocks))
        scale = np.sqrt(grid.weights @ np.abs(back) ** 2 @ np.ones(3)
                        * (grid.weights @ np.abs(f.values) ** 2 @ np.ones(3)))
        assert abs(left - right) <= 1e-13 * scale

    def test_su2_transform_peak_memory(self, su2, rng):
        # per spin parity, the stages hold every row m' of the parity in two
        # work buffers (the inverse: one, and its output's own half); the
        # values are 2.5 MB at L = 16, m = 2, and the peaks 3.2 MB (forward)
        # and 4.1 MB (inverse), against 9.4 and 12.1 MB with full (4L+1)^2
        # planes and completed tables
        import tracemalloc

        grid = haar_quadrature(su2, 16)
        f = random_bandlimited(su2, grid, rng, value_dim=2)
        T = forward(f)
        peaks = []
        for run in (lambda: forward(f), lambda: inverse(T, grid)):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 4.0e6 and peaks[1] < 6.5e6

    def test_evaluate_matches_grid(self, su2, rng):
        grid = haar_quadrature(su2, 3)
        f = random_bandlimited(su2, grid, rng, value_dim=2)
        T = forward(f)
        idx = rng.choice(grid.size, size=40)
        vals = evaluate(T, grid.nodes[idx])
        assert np.abs(vals - f.values[idx]).max() < 1e-11

    def test_evaluate_builds_no_wigner_level_at_the_points(self, su2, rng, monkeypatch):
        # off the grid, evaluate reads the cached Delta = d(pi/2) tables: it
        # runs the Wigner recursion on no beta of its points
        import liefact._wigner

        grid = haar_quadrature(su2, 4)
        T = forward(random_bandlimited(su2, grid, rng))
        calls = []
        monkeypatch.setattr(liefact._wigner, "wigner_d_matrices", lambda *args: calls.append(args))
        evaluate(T, grid.nodes[rng.choice(grid.size, 40, replace=False)])
        assert calls == []
        monkeypatch.undo()
        grid = haar_quadrature(su2, 16)
        T = forward(random_bandlimited(su2, grid, rng, value_dim=2))
        idx = rng.choice(grid.size, 64, replace=False)
        assert np.abs(evaluate(T, grid.nodes[idx]) - inverse(T, grid).values[idx]).max() < 1e-12

    def test_su2_evaluate_chunks_are_independent(self, su2, rng):
        # at L = 16, m = 2 a chunk holds 16 points, the floor (2**19 bytes of
        # partial sums hold 15 points of the integer spins, 33 x 2 x 33 each,
        # and 16 of the half-integer ones), and the points are padded to
        # whole chunks: every GEMM has one shape, so 319 + 2 points, or one
        # point at a time, give the values of all 321 at once bit for bit
        import liefact.groups

        assert liefact.groups._TRIG_SUM_CHUNK == (16, 1 << 19, 1024)
        grid = haar_quadrature(su2, 16)
        T = forward(random_bandlimited(su2, grid, rng, value_dim=2))
        pts = np.array([su2.random_element(rng) for _ in range(321)])
        whole = evaluate(T, pts)
        assert np.array_equal(whole, np.concatenate([evaluate(T, pts[:319]),
                                                     evaluate(T, pts[319:])]))
        assert np.array_equal(whole[::40], np.concatenate([evaluate(T, p) for p in pts[::40]]))

    def test_su2_evaluate_peak_memory(self, su2, rng):
        # the coefficients of both spin parities' trigonometric sums (1.1 MB
        # each at L = 16, m = 2) and one chunk of partial sums peak at 2.3 MB
        # for 256 points; the bound is the 10 MB of the Wigner-level path
        # this replaced
        import tracemalloc

        grid = haar_quadrature(su2, 16)
        T = forward(random_bandlimited(su2, grid, rng, value_dim=2))
        pts = np.array([su2.random_element(rng) for _ in range(256)])
        tracemalloc.start()
        try:
            evaluate(T, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10.0e6

    @pytest.mark.parametrize("L, r", [(16, 0.3), (32, 0.5)])
    def test_su2_evaluate_matches_the_s3_poisson_kernel(self, su2, rng, L, r):
        # the coefficients r^{2l} I of the S^3 Poisson kernel; the terms past
        # 2L are below 1e-15 here
        T = FourierCoefficients.diagonal(su2, L, r ** dual_layout(su2, L).labels.astype(float))
        pts = np.array([su2.random_element(rng) for _ in range(500)])
        kernel = s3_poisson(pts, r)
        vals = evaluate(T, pts)[:, 0]
        assert np.abs(vals - kernel).max() <= 1e-10 * kernel.min()

    def test_t2_evaluate_matches_the_product_poisson_kernel(self, t2, rng):
        # the product of two circle Poisson kernels has the coefficients
        # r^{|k1| + |k2|}; at L = 64, r = 0.6 the rest is below 1e-13
        L, r = 64, 0.6
        T = FourierCoefficients.diagonal(t2, L, r ** np.abs(dual_layout(t2, L).labels).sum(1))
        pts = rng.uniform(0.0, 2 * np.pi, (500, 2))
        kernel = np.prod((1 - r * r) / (1 - 2 * r * np.cos(pts) + r * r), axis=1)
        vals = evaluate(T, pts)[:, 0]
        assert np.abs(vals - kernel).max() <= 1e-10 * kernel.min()

    @pytest.mark.parametrize("d", [1, 2])
    def test_evaluate_torus_off_grid_matches_character_sum(self, d, rng):
        # oracle f(x) = sum_k T_k e^{i k.x}, written out per label
        group = Torus(d)
        T = forward(random_bandlimited(group, haar_quadrature(group, 5), rng, value_dim=2))
        pts = rng.uniform(0.0, 2 * np.pi, (40, d))
        ref = sum(np.exp(1j * pts @ np.array(xi.label, dtype=float))[:, None]
                  * T.entries[xi][:, 0, 0] for xi in T.duals)
        assert np.abs(evaluate(T, pts) - ref).max() < 1e-12

    def test_evaluate_rejects_beta_outside_range(self, su2, rng):
        T = forward(random_bandlimited(su2, haar_quadrature(su2, 2), rng))
        for beta in (-0.1, np.pi + 0.1):
            with pytest.raises(DomainError):
                evaluate(T, np.array([[0.3, beta, 0.2]]))

    @pytest.mark.parametrize("m", [1, 3])
    def test_evaluate_su2_matches_per_xi_traces(self, su2, rng, m):
        # oracle f(x) = sum_xi d_xi Tr[xi(x)^* T_xi] over whole matrices, so a
        # wrong sign or row in the folded lower rows shows; the degrees run
        # even (a middle row m' = 0) and odd (none), and the points include
        # beta in {0, pi} and phases just below 4 pi
        T = FourierCoefficients(su2, 16, [
            rng.standard_normal((1, m, d, d)) + 1j * rng.standard_normal((1, m, d, d))
            for d in range(1, 34)])
        below = np.nextafter(4 * np.pi, 0.0)
        pts = np.concatenate([
            [su2.random_element(rng) for _ in range(64)],
            [[0.3, 0.0, 1.9], [2.2, np.pi, 0.7], [below, 0.0, below],
             [below, np.pi, below], [below, 1.1, below], [0.0, np.pi, below]]])
        ref = sum(xi.dim * np.einsum("nij,vij->nv", su2.irrep_matrices(xi, pts).conj(),
                                     T.entries[xi]) for xi in T.duals)
        assert np.abs(evaluate(T, pts) - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_evaluate_off_grid_matches_sum_formula(self, su2, rng):
        # oracle f(x) = sum_xi d_xi Tr[D^xi(x)^* T_xi], with D^xi built from the
        # factorial sum formula and the ZYZ phases, not from liefact._wigner
        entries = {}
        T = FourierCoefficients.zeros(su2, 2, 2)
        for xi in enumerate_dual(su2, 2):
            shape = (2, xi.dim, xi.dim)
            entries[xi] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            T.entries[xi] = entries[xi]
        pts = np.array([su2.random_element(rng) for _ in range(20)])
        for (a, b, g), got in zip(pts, evaluate(T, pts)):
            ref = np.zeros(2, dtype=complex)
            for xi, t in entries.items():
                two_ms = np.arange(xi.label, -xi.label - 1, -2)
                d = np.array([[wigner_d_sum(xi.label, mp, m, b) for m in two_ms]
                              for mp in two_ms])
                D = np.exp(-0.5j * two_ms[:, None] * a) * d * np.exp(-0.5j * two_ms * g)
                ref += xi.dim * np.einsum("ij,vij->v", D.conj(), t)
            assert np.abs(got - ref).max() < 1e-12


class TestRandomBandlimited:
    @staticmethod
    def per_xi_reference(group, grid, rng, value_dim, decay=0.3):
        """One draw per dual index in dual order, one entry written at a time."""
        T = FourierCoefficients.zeros(group, grid.bandlimit, value_dim)
        for xi in enumerate_dual(group, grid.bandlimit):
            shape = (value_dim, xi.dim, xi.dim)
            t = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            T.entries[xi] = t * np.exp(-decay * np.sqrt(xi.casimir)) / xi.dim
        return inverse(T, grid)

    @pytest.mark.parametrize("group,L", [(Torus(1), 16), (Torus(2), 6), (SU2(), 4)],
                             ids=["t1", "t2", "su2"])
    @pytest.mark.parametrize("m", [1, 2])
    def test_bit_equal_to_per_xi_draws(self, group, L, m):
        grid = haar_quadrature(group, L)
        rng_a, rng_b = np.random.default_rng(11), np.random.default_rng(11)
        got = random_bandlimited(group, grid, rng_a, value_dim=m)
        ref = self.per_xi_reference(group, grid, rng_b, m)
        assert np.array_equal(got.values, ref.values)
        assert got.value_dim == m
        # the generator is left in the same state
        assert rng_a.standard_normal() == rng_b.standard_normal()


class TestParseval:
    def test_random_su2(self, su2, rng):
        grid = haar_quadrature(su2, 8)
        f = random_bandlimited(su2, grid, rng)
        assert parseval_defect(f, forward(f)) < 1e-9

    def test_zero(self, t1):
        grid = haar_quadrature(t1, 4)
        f = GridFunction(t1, grid, np.zeros(grid.size))
        assert parseval_defect(f, forward(f)) == 0.0

    def test_single_matrix_coefficient_norm(self, su2):
        # Schur orthogonality: ||xi_ij||_2^2 = 1/d_xi
        grid = haar_quadrature(su2, 2)
        xi2 = [xi for xi in enumerate_dual(su2, 2) if xi.label == 2][0]
        table = su2.irrep_matrices(xi2, grid.nodes)
        f = GridFunction(su2, grid, table[:, 0, 2])
        assert f.l2_norm_sq() == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert parseval_defect(f, forward(f)) < 1e-10


class TestConvolution:
    def test_reproducing_kernel_is_identity(self, t1, su2, rng):
        for g, L in ((t1, 8), (su2, 3)):
            grid = haar_quadrature(g, L)
            f = random_bandlimited(g, grid, rng, value_dim=2)
            chi = inverse(reproducing_kernel(g, L), grid)
            out = convolve(chi, f)
            assert np.abs(out.values - f.values).max() < 1e-9

    def test_su2_poisson_kernels_form_a_semigroup(self, su2):
        # P_r * P_s = P_{rs}, as r^{2l} s^{2l} = (rs)^{2l}: the convolution of
        # two kernels sampled on the grid against the third, also sampled
        grid = haar_quadrature(su2, 16)
        out = convolve(*(GridFunction(su2, grid, s3_poisson(grid.nodes, r)) for r in (0.3, 0.4)))
        ref = s3_poisson(grid.nodes, 0.12)
        assert np.abs(out.values[:, 0] - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_constant_chi_averages(self, su2, rng):
        grid = haar_quadrature(su2, 2)
        f = random_bandlimited(su2, grid, rng)
        chi = GridFunction(su2, grid, np.ones(grid.size))
        out = convolve(chi, f)
        mean = np.sum(grid.weights[:, None] * f.values, axis=0)
        assert np.abs(out.values - mean[None, :]).max() < 1e-12

    def test_torus_characters_by_double_integral(self, t1):
        # direct nested-quadrature oracle at low band limit: characters are
        # idempotent under convolution and cross terms vanish
        grid = haar_quadrature(t1, 4)
        e2 = GridFunction(t1, grid, np.exp(2j * grid.nodes[:, 0]))
        e3 = GridFunction(t1, grid, np.exp(3j * grid.nodes[:, 0]))
        same = convolve_by_quadrature(e2, e2)
        assert np.abs(same.values[:, 0] - e2.values[:, 0]).max() < 1e-12
        cross = convolve_by_quadrature(e2, e3)
        assert np.abs(cross.values).max() < 1e-12

    @pytest.mark.parametrize("L", [1, 2])
    def test_quadrature_oracle_peak_memory(self, su2, rng, L):
        # a fixed budget of points y^-1 x per batch, not one batch of all
        # translates: 73.8 MB at L = 2 when the batch held 200,000 points
        import tracemalloc

        grid = haar_quadrature(su2, L)
        chi = random_bandlimited(su2, grid, rng)
        f = random_bandlimited(su2, grid, rng, value_dim=2)
        tracemalloc.start()
        try:
            slow = convolve_by_quadrature(chi, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6
        assert np.abs(slow.values - convolve(chi, f).values).max() < 1e-9

    def test_t2_quadrature_oracle_memory(self, t2, rng):
        # T^2 L = 8: 324 translates of 324 nodes, 27 batches of 3,888 points;
        # each is one trigonometric sum with a phase table per axis, not an
        # exp of every (point, label) phase (36 MB traced when it was)
        import tracemalloc

        grid = haar_quadrature(t2, 8)
        chi = random_bandlimited(t2, grid, rng)
        f = random_bandlimited(t2, grid, rng, value_dim=2)
        tracemalloc.start()
        try:
            slow = convolve_by_quadrature(chi, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6
        assert np.abs(slow.values - convolve(chi, f).values).max() < 1e-9

    def test_conv_theorem_defect_torus(self, t1, rng):
        grid = haar_quadrature(t1, 4)
        chi = random_bandlimited(t1, grid, rng)
        f = random_bandlimited(t1, grid, rng, value_dim=2)
        assert conv_theorem_defect(chi, f) < 1e-9

    def test_conv_theorem_defect_su2(self, su2, rng):
        grid = haar_quadrature(su2, 2)
        chi = random_bandlimited(su2, grid, rng)
        f = random_bandlimited(su2, grid, rng)
        assert conv_theorem_defect(chi, f) < 1e-8

    def test_zero_chi(self, t1, rng):
        grid = haar_quadrature(t1, 4)
        chi = GridFunction(t1, grid, np.zeros(grid.size))
        f = random_bandlimited(t1, grid, rng)
        assert conv_theorem_defect(chi, f) == 0.0

    def test_vector_valued_chi_rejected(self, t1, rng):
        grid = haar_quadrature(t1, 4)
        f2 = random_bandlimited(t1, grid, rng, value_dim=2)
        with pytest.raises(ParameterError):
            convolve(f2, f2)

    def test_torus2_kernel_identity(self, t2, rng):
        grid = haar_quadrature(t2, 3)
        f = random_bandlimited(t2, grid, rng, value_dim=2)
        chi = inverse(reproducing_kernel(t2, 3), grid)
        out = convolve(chi, f)
        assert np.abs(out.values - f.values).max() < 1e-9

    def test_band_limit_is_the_coarser_grid(self, t1, rng):
        # the L=4 truncated delta low-passes an L=8 function to its L=4 part
        grid4, grid8 = haar_quadrature(t1, 4), haar_quadrature(t1, 8)
        f = random_bandlimited(t1, grid8, rng, value_dim=2)
        out = convolve(inverse(reproducing_kernel(t1, 4), grid4), f)
        assert out.grid is grid8
        assert np.abs(out.values - inverse(forward(f, 4), grid8).values).max() < 1e-12

    def test_incomplete_coefficient_family_rejected(self, t1, rng):
        from liefact.errors import DomainError
        from liefact.fourier import FourierCoefficients

        T = forward(random_bandlimited(t1, haar_quadrature(t1, 4), rng))
        partial = [b[:-1] for b in T.blocks]  # the last dual index missing
        with pytest.raises(DomainError):
            FourierCoefficients(t1, 4, partial)

    def test_associativity_through_coefficients(self, t1, rng):
        grid = haar_quadrature(t1, 12)
        c1 = random_bandlimited(t1, grid, rng)
        c2 = random_bandlimited(t1, grid, rng)
        f = random_bandlimited(t1, grid, rng, value_dim=2)
        lhs = forward(convolve(convolve(c1, c2), f))
        T1, T2, Tf = forward(c1), forward(c2), forward(f)
        for xi, t in lhs.entries.items():
            ref = np.einsum(
                "ab,bc,vcd->vad", T1.entries[xi][0], T2.entries[xi][0], Tf.entries[xi]
            )
            assert np.abs(t - ref).max() < 1e-9

    def test_linearity(self, su2, rng):
        grid = haar_quadrature(su2, 2)
        fa = random_bandlimited(su2, grid, rng)
        fb = random_bandlimited(su2, grid, rng)
        Ta, Tb = forward(fa), forward(fb)
        combo = FourierCoefficients(su2, 2, [3.0 * a - 2j * b
                                             for a, b in zip(Ta.blocks, Tb.blocks)])
        out = inverse(combo, grid)
        ref = 3.0 * fa.values - 2j * fb.values
        assert np.abs(out.values - ref).max() < 1e-12


class TestInvolution:
    def test_real_even_fixed_point(self, t1):
        grid = haar_quadrature(t1, 8)
        f = GridFunction(t1, grid, np.cos(grid.nodes[:, 0]) + 0.3 * np.cos(3 * grid.nodes[:, 0]))
        out = involution(f)
        assert np.abs(out.values - f.values).max() < 1e-14

    def test_coefficients_become_adjoints(self, su2, rng):
        grid = haar_quadrature(su2, 3)
        psi = random_bandlimited(su2, grid, rng)
        T = forward(psi)
        Tstar = forward(involution(psi))
        for xi in T.entries:
            assert np.abs(Tstar.entries[xi][0] - T.entries[xi][0].conj().T).max() < 1e-10

    def test_involutive(self, su2, t1, rng):
        for g, L in ((t1, 6), (su2, 2)):
            grid = haar_quadrature(g, L)
            psi = random_bandlimited(g, grid, rng)
            back = involution(involution(psi))
            assert np.abs(back.values - psi.values).max() < 1e-12


class TestPackedCoefficients:
    def test_entry_assignment_writes_through(self, t2, su2, rng):
        # perfbench corrupts a transform by assigning one entry; every reader
        # of the packed blocks must see it
        for g, L in ((t2, 4), (su2, 2)):
            grid = haar_quadrature(g, L)
            f = random_bandlimited(g, grid, rng)
            T = forward(f)
            xi = T.duals[-2]
            bump = np.full((1, xi.dim, xi.dim), 0.5 - 0.25j)
            T.entries[xi] = T.entries[xi] + bump
            table = g.irrep_matrices(xi, grid.nodes)
            expected = f.values + xi.dim * np.einsum("nij,vij->nv", table.conj(), bump)
            assert np.abs(inverse(T, grid).values - expected).max() < 1e-12
            assert np.abs(evaluate(T, grid.nodes[:25]) - expected[:25]).max() < 1e-12
            t = T.entries[xi]
            assert T.hs_norms()[T.duals.index(xi)] == np.max(
                np.sqrt(np.sum(np.abs(t) ** 2, axis=(1, 2))))

    @pytest.mark.parametrize("group, other", [("t1", "su2"), ("su2", "t1"), ("t1", "t2")])
    def test_group_must_be_the_grids(self, group, other, request):
        # forward on such a pair failed with a bare KeyError from the other group's axes
        grid = haar_quadrature(request.getfixturevalue(other), 2)
        with pytest.raises(ParameterError, match="cannot carry"):
            GridFunction(request.getfixturevalue(group), grid, np.ones(grid.size))

    @pytest.mark.parametrize("group, other", [("su2", "t1"), ("su2", "t2"), ("t1", "su2")])
    def test_family_must_be_on_the_grids_group(self, group, other, request):
        # inverse on such a pair failed with a bare KeyError ('E' or
        # 'points_per_axis') from the other group's grid axes
        T = FourierCoefficients.zeros(request.getfixturevalue(group), 2)
        grid = haar_quadrature(request.getfixturevalue(other), 2)
        with pytest.raises(ParameterError, match="cannot carry"):
            inverse(T, grid)

    def test_composed_families_must_share_the_group(self, t1, t2):
        # at one band limit the blocks used to meet in numpy's broadcasting
        with pytest.raises(ParameterError, match="same group"):
            compose(FourierCoefficients.zeros(t1, 2), FourierCoefficients.zeros(t2, 2))

    def test_sizes_are_read_from_the_data(self, t2, su2, rng):
        grid = haar_quadrature(su2, 2)
        f = GridFunction(su2, grid, rng.standard_normal((grid.size, 3)))
        assert f.value_dim == 3 and not hasattr(f, "bandlimit")
        assert GridFunction(su2, grid, np.ones(grid.size)).value_dim == 1
        with pytest.raises(DomainError):
            GridFunction(su2, grid, np.ones((grid.size, 2, 2)))
        with pytest.raises(DomainError):
            GridFunction(su2, grid, np.ones(grid.size + 1))
        T = forward(f)
        assert FourierCoefficients(su2, 2, T.blocks).value_dim == 3
        with pytest.raises(DomainError):
            FourierCoefficients(su2, 2, [b[:, :1] for b in T.blocks[:-1]] + [T.blocks[-1]])
        with pytest.raises(DomainError):
            FourierCoefficients(t2, 2, [np.zeros(13)])

    def test_entries_keep_the_family_complete_and_shaped(self, su2):
        T = FourierCoefficients.zeros(su2, 2, value_dim=2)
        xi = T.duals[2]
        with pytest.raises(DomainError):
            T.entries[xi] = np.zeros((2, xi.dim + 1, xi.dim + 1))
        with pytest.raises(DomainError):
            T.entries[xi] = np.zeros((1, xi.dim, xi.dim))
        with pytest.raises(DomainError):
            del T.entries[xi]
        with pytest.raises(KeyError):
            T.entries[DualIndex(label=9, dim=10, casimir=24.75)] = np.zeros((2, 10, 10))
        assert len(T.entries) == len(T.duals) == 5

    def test_entries_resolve_every_label_and_refuse_outside_ones(self, t1, t2, su2):
        outside = {
            t1: [(4,), (-4,), (0, 0), (1.0,), 2, ("a",), (None,)],
            t2: [(4, 0), (0, -4), (1,), (1, 2, 3), (0.0, 1.0), (1, [2]), (1, "x")],
            su2: [7, -1, 2.0, (2,), True, "a", None, 2**70],
        }
        for g, labels in outside.items():
            T = FourierCoefficients.zeros(g, 3, value_dim=2)
            lay = T.layout
            for i, xi in enumerate(T.duals):
                view, slot = T.entries[xi], T.blocks[lay.block[i]][lay.slot[i]]
                assert view.base is slot.base is T.blocks[lay.block[i]]
                assert view.__array_interface__ == slot.__array_interface__
            for label in labels:
                with pytest.raises(KeyError):
                    T.entries[DualIndex(label=label, dim=1, casimir=0.0)]

    def test_entries_iterate_in_dual_order_and_write_through(self, t2, su2, rng):
        for g in (t2, su2):
            T = FourierCoefficients.zeros(g, 2, value_dim=2)
            assert list(T.entries) == list(T.duals)
            for i, xi in enumerate(T.entries):
                T.entries[xi] = np.full((2, xi.dim, xi.dim), i + 0.5j)
            for i, (xi, t) in enumerate(T.entries.items()):
                lay = T.layout
                assert np.array_equal(T.blocks[lay.block[i]][lay.slot[i]], t)
                assert np.all(t == i + 0.5j)

    def test_dropped_family_is_freed_without_the_cycle_collector(self, t2, rng):
        T = forward(random_bandlimited(t2, haar_quadrature(t2, 4), rng))
        T.entries[T.duals[0]][0, 0, 0] = 1.0
        ref = weakref.ref(T)
        gc.disable()
        try:
            del T
            assert ref() is None
        finally:
            gc.enable()

    def test_compose_rejects_mismatched_band_limits(self, t1, rng):
        A = forward(random_bandlimited(t1, haar_quadrature(t1, 4), rng))
        B = forward(random_bandlimited(t1, haar_quadrature(t1, 6), rng))
        with pytest.raises(BandlimitMismatchError):
            compose(A, B)

    def test_hs_norms_finite_past_the_square_range(self, t1, su2, rng):
        # entries of 1e300 square past the float range; their norms are still
        # finite, and every norm whose squares fit keeps the plain formula's bits
        T = FourierCoefficients.diagonal(t1, 4, np.full(9, 1e300))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norms = T.hs_norms()
            table = decay_table_csv(T)
        assert np.all(norms == 1e300)
        assert "inf" not in table and table.count("1e+300") == 9
        T = forward(random_bandlimited(su2, haar_quadrature(su2, 2), rng, value_dim=2))
        T.blocks[3][0, 1] = 1e300 + 1e300j
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norms = T.hs_norms()
        assert norms[3] == pytest.approx(4 * np.sqrt(2) * 1e300, rel=1e-15)  # 16 entries
        for i, xi in enumerate(T.duals):
            if i != 3:
                t = T.entries[xi]
                assert norms[i] == np.max(np.sqrt(np.sum(np.abs(t) ** 2, axis=(1, 2))))

    def test_block_algebra_matches_per_dual_loops(self, t2, su2, rng):
        # the packed expressions do the per-xi arithmetic of the loops they
        # replace, in the same order, so the results are bit-identical
        for g, L in ((t2, 4), (su2, 3)):
            grid = haar_quadrature(g, L)
            A = forward(random_bandlimited(g, grid, rng))
            T = forward(random_bandlimited(g, grid, rng, value_dim=2))
            norms, comp, lap = T.hs_norms(), compose(A, T), apply_laplacian(T)
            for i, xi in enumerate(T.duals):
                t = T.entries[xi]
                assert norms[i] == np.max(np.sqrt(np.sum(np.abs(t) ** 2, axis=(1, 2))))
                assert np.array_equal(comp.entries[xi],
                                      np.einsum("ab,vbc->vac", A.entries[xi][0], t))
                assert np.array_equal(lap.entries[xi], -xi.casimir * t)


class _QuadratureTorus(Torus):
    """The circle with transform hooks written as explicit sums,
    F f(k) = sum_x w f(x) e^{-ikx} and f(x) = sum_k T_k e^{ikx}, not FFTs;
    ``calls`` records which hook ran."""

    calls: list = []

    def _characters(self, points, bandlimit):
        k = dual_layout(self, bandlimit).labels[:, 0]
        return np.exp(-1j * np.outer(points[:, 0], k))  # (n, n_dual): xi_k(x)

    def forward_blocks(self, grid, values, bandlimit):
        self.calls.append("forward")
        coef = (grid.weights[:, None] * self._characters(grid.nodes, bandlimit)).T @ values
        return [coef[:, :, None, None]]

    def inverse_values(self, grid, blocks, bandlimit):
        self.calls.append("inverse")
        return self._characters(grid.nodes, bandlimit).conj() @ blocks[0][:, :, 0, 0]

    def evaluate_values(self, points, blocks, bandlimit):
        self.calls.append("evaluate")
        return self._characters(points, bandlimit).conj() @ blocks[0][:, :, 0, 0]


class TestGroupHooks:
    def test_fourier_goes_through_the_group_hooks(self, t1, rng):
        # fourier.py has no group branch: a group that brings its own
        # transform hooks is transformed by them, and agrees with T^1
        quad = _QuadratureTorus(1)
        _QuadratureTorus.calls.clear()
        grid, qgrid = haar_quadrature(t1, 6), haar_quadrature(quad, 6)
        vals = random_bandlimited(t1, grid, rng, value_dim=2).values
        chi_vals = random_bandlimited(t1, grid, rng).values
        f, qf = GridFunction(t1, grid, vals), GridFunction(quad, qgrid, vals)
        chi, qchi = GridFunction(t1, grid, chi_vals), GridFunction(quad, qgrid, chi_vals)
        pts = rng.uniform(0.0, 2 * np.pi, (40, 1))
        pairs = [
            (forward(f).blocks[0], forward(qf).blocks[0]),
            (inverse(forward(f)).values, inverse(forward(qf)).values),
            (compose(forward(chi), forward(f)).blocks[0],
             compose(forward(qchi), forward(qf)).blocks[0]),
            (convolve(chi, f).values, convolve(qchi, qf).values),
            (parseval_defect(f, forward(f)), parseval_defect(qf, forward(qf))),
            (evaluate(forward(f), pts), evaluate(forward(qf), pts)),
        ]
        for ref, got in pairs:
            assert np.abs(np.asarray(got) - ref).max() <= 1e-12
        assert {"forward", "inverse", "evaluate"} <= set(_QuadratureTorus.calls)

    def test_fourier_reads_only_the_group_protocol(self):
        # the transform hooks every group defines, and the element arithmetic
        # fourier.py already calls: any other group attribute it reads is a
        # group internal leaking into the group-free module
        hooks = {"forward_blocks", "inverse_values", "evaluate_values", "irrep_matrices",
                 "dual_arrays", "label_bandlimit"}
        elements = {"multiply", "inverse_element", "haar_quadrature", "dim"}
        for cls in (Torus, SU2):
            assert all(callable(getattr(cls, name, None)) for name in hooks), cls
        source = inspect.getsource(liefact.fourier)
        assert set(re.findall(r"\bgroup\.(\w+)", source)) <= hooks | elements
        assert "isinstance" not in source
        assert not re.search(r"\b(Torus|SU2)\b", source)
