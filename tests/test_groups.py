import re
import tracemalloc

import numpy as np
import pytest

import liefact.fourier
import liefact.groups
from liefact.errors import DomainError
from liefact.factorize import strong_factorize
from liefact.fourier import (
    FourierCoefficients, GridFunction, evaluate, forward, inverse, parseval_defect)
from liefact.groups import (
    SU2,
    DualIndex,
    DualLayout,
    QuadratureGrid,
    Torus,
    dual_layout,
    enumerate_dual,
    haar_quadrature,
    parse_group_spec,
    weyl_summability,
)
from liefact.signals import random_bandlimited, reproducing_kernel, synth_coefficients
from liefact.weights import gevrey_weight


class TestDualEnumeration:
    def test_torus1(self, t1):
        duals = enumerate_dual(t1, 2)
        labels = sorted(xi.label[0] for xi in duals)
        assert labels == [-2, -1, 0, 1, 2]
        for xi in duals:
            assert xi.dim == 1
            assert xi.casimir == xi.label[0] ** 2

    def test_su2(self, su2):
        duals = enumerate_dual(su2, 1)
        assert [xi.label for xi in duals] == [0, 1, 2]
        assert [xi.dim for xi in duals] == [1, 2, 3]
        assert [xi.casimir for xi in duals] == [0.0, 0.75, 2.0]

    def test_enumerate_dual_reads_the_one_layout_cache(self, t2, su2):
        assert liefact.fourier.dual_layout is dual_layout
        for g in (t2, su2):
            layout = dual_layout(g, 3)
            duals = enumerate_dual(g, 3)
            assert len(duals) == len(layout.duals)
            assert all(a is b for a, b in zip(duals, layout.duals))
            with pytest.raises(DomainError):
                enumerate_dual(g, 0)

    def test_torus2(self, t2):
        duals = enumerate_dual(t2, 1)
        assert len(duals) == 9
        assert sorted({xi.casimir for xi in duals}) == [0.0, 1.0, 2.0]


def _duals_oracle(group, L):
    """The dual as DualIndex objects, built label by label in Python."""
    if isinstance(group, Torus):
        rng = range(-L, L + 1)
        labels = [(k,) for k in rng] if group.d == 1 else [(a, b) for a in rng for b in rng]
        return tuple(DualIndex(lab, 1, float(sum(k * k for k in lab))) for lab in labels)
    return tuple(DualIndex(two_l, two_l + 1, two_l * (two_l + 2) / 4.0)
                 for two_l in range(2 * L + 1))


class TestDualLayout:
    @pytest.mark.parametrize("spec, L", [("t1", 1), ("t1", 7), ("t1", 256), ("t2", 1),
                                         ("t2", 9), ("t2", 64), ("su2", 1), ("su2", 6),
                                         ("su2", 16)])
    def test_arrays_equal_the_dual_index_build(self, spec, L):
        group = parse_group_spec(spec)
        duals = _duals_oracle(group, L)
        layout = DualLayout(*group.dual_arrays(L))
        assert "duals" not in vars(layout)  # built on first access only
        assert layout.duals == duals
        for name in ("label", "casimir", "dim"):
            want = np.array([getattr(xi, name) for xi in duals])
            got = getattr(layout, name + "s" if name == "label" else name)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert layout.dims == tuple(dict.fromkeys(xi.dim for xi in duals))
        for d, idx in zip(layout.dims, layout.members):
            want = [i for i, xi in enumerate(duals) if xi.dim == d]
            assert idx.tolist() == want
            assert (layout.block[idx] == layout.dims.index(d)).all()
            assert layout.slot[idx].tolist() == list(range(len(want)))
        wire = sorted(range(len(duals)), key=lambda i: (duals[i].casimir, str(duals[i].label)))
        assert layout.wire.tolist() == wire
        position = {xi.label: i for i, xi in enumerate(duals)}
        assert layout.index(layout.labels).tolist() == list(range(len(duals)))
        assert layout.index([xi.label for xi in duals[::7]]).tolist() == [
            position[xi.label] for xi in duals[::7]]

    def test_index_is_minus_one_off_the_dual(self, t1, t2, su2):
        assert dual_layout(t1, 3).index([(4,), (-4,), (3,), (-3,)]).tolist() == [-1, -1, 6, 0]
        assert dual_layout(t2, 2).index([(0, 3), (-3, 0), (2, -2)]).tolist() == [-1, -1, 20]
        assert dual_layout(su2, 2).index([-1, 5, 4, 0]).tolist() == [-1, -1, 4, 0]
        # another group's label shape, non-integer labels and no labels
        assert dual_layout(t2, 2).index([(1,)]).tolist() == [-1]
        assert dual_layout(t1, 2).index([(1, 0)]).tolist() == [-1]
        assert dual_layout(su2, 2).index([1.0, 2.5]).tolist() == [-1, -1]
        assert dual_layout(su2, 2).index([]).tolist() == []

    @pytest.mark.parametrize("group, labels", [
        ("su2", ["a"]), ("su2", [None]), ("su2", [2.0]), ("su2", [True]), ("su2", [2**70]),
        ("su2", [[2]]), ("t1", [3]), ("t1", [(1.0,)]), ("t1", [(True,)]), ("t2", [(1, "x")]),
        ("t2", [(1, 2, 3)]), ("t2", [(1, [2])]), ("t2", [(1, 2), (1,)]), ("t2", [(0, 0), 1]),
    ], ids=["str", "None", "float", "bool", "past 64 bits", "nested", "t1 bare int",
            "t1 float", "t1 bool", "t2 str", "t2 arity 3", "t2 nested", "t2 ragged",
            "t2 mixed"])
    def test_index_reads_minus_one_for_what_is_not_a_label(self, group, labels, request):
        # never numpy's error: a ragged batch reads -1 throughout
        layout = dual_layout(request.getfixturevalue(group), 2)
        assert layout.index(labels).tolist() == [-1] * len(labels)

    def test_float_band_limit_refused_by_the_signal_constructors(self, su2):
        for build in (reproducing_kernel, lambda g, L: synth_coefficients(g, L, np.exp)):
            with pytest.raises(DomainError, match="band limit must be an integer"):
                build(su2, 2.5)

    @pytest.mark.parametrize("L", [1.5, 2.0, True, "2", None])
    def test_dual_layout_refuses_a_non_integer_band_limit(self, su2, L):
        dual_layout(su2, 2)  # an int entry at the same value is no way round the check
        with pytest.raises(DomainError, match="band limit must be an integer"):
            dual_layout(su2, L)

    @pytest.mark.parametrize("call", [
        lambda: haar_quadrature(SU2(), 2.7),
        lambda: haar_quadrature(Torus(1), True),
        lambda: enumerate_dual(Torus(2), 2.5),
        lambda: weyl_summability(SU2(), 3, 2.5),
        lambda: forward(GridFunction(Torus(1), haar_quadrature(Torus(1), 3), np.ones(8)), 2.9),
    ], ids=["haar_quadrature float", "haar_quadrature bool", "enumerate_dual float",
            "weyl_summability float", "forward float"])
    def test_every_entry_point_refuses_a_non_integer_band_limit(self, call):
        # each used to truncate with int() first (or failed inside numpy):
        # 2.7 gave the L = 2 grid, True the L = 1 grid
        with pytest.raises(DomainError, match="band limit must be an integer"):
            call()

    def test_numpy_integer_band_limits_are_accepted(self, su2):
        L = np.int64(3)
        assert haar_quadrature(su2, L) is haar_quadrature(su2, 3)
        assert len(enumerate_dual(su2, L)) == 7 and len(weyl_summability(su2, 3, L)) == 3
        grid = haar_quadrature(su2, 3)
        assert forward(GridFunction(su2, grid, np.ones(grid.size)), np.int32(2)).bandlimit == 2

    def test_label_bandlimit_of_an_array_is_per_label(self, t1, t2, su2):
        for g, L in ((t1, 9), (t2, 6), (su2, 5)):
            labels = dual_layout(g, L).labels
            scalars = [g.label_bandlimit(tuple(lab) if g != su2 else int(lab)) for lab in labels]
            assert all(type(n) is int for n in scalars)
            assert g.label_bandlimit(labels).tolist() == scalars
            assert max(scalars) == L


class TestMatrixCoefficients:
    def test_identity_element(self, t1, t2, su2, rng):
        for g in (t1, t2, su2):
            for xi in enumerate_dual(g, 2):
                mat = g.irrep_matrix(xi, g.identity())
                assert np.allclose(mat, np.eye(xi.dim), atol=1e-14)

    def test_defining_rep_is_the_element(self, su2, rng):
        xi = enumerate_dual(su2, 1)[1]
        for _ in range(10):
            x = su2.random_element(rng)
            assert np.allclose(
                su2.irrep_matrix(xi, x), su2.defining_matrix(x), atol=1e-13
            )

    def test_unitarity_at_quadrature_nodes(self, t1, su2, rng):
        for g, L in ((t1, 4), (su2, 3)):
            grid = haar_quadrature(g, L)
            sample = rng.choice(grid.size, size=min(64, grid.size), replace=False)
            for xi in enumerate_dual(g, L):
                mats = g.irrep_matrices(xi, grid.nodes[sample])
                prod = np.einsum("nij,nkj->nik", mats, mats.conj())
                assert np.abs(prod - np.eye(xi.dim)).max() < 1e-12

    def test_homomorphism(self, t1, t2, su2, rng):
        for g in (t1, t2, su2):
            for _ in range(10):
                x, y = g.random_element(rng), g.random_element(rng)
                xy = g.multiply(x, y)
                for xi in enumerate_dual(g, 3):
                    lhs = g.irrep_matrix(xi, xy)
                    rhs = g.irrep_matrix(xi, x) @ g.irrep_matrix(xi, y)
                    assert np.abs(lhs - rhs).max() < 1e-10

    def test_su2_character_formula(self, su2, rng):
        # independent oracle: tr D^l depends only on the rotation angle Theta,
        # with cos(Theta/2) = Re tr(u)/2 in the defining representation
        for _ in range(10):
            x = su2.random_element(rng)
            u = su2.defining_matrix(x)
            half_theta = np.arccos(np.clip(u.trace().real / 2.0, -1.0, 1.0))
            for xi in enumerate_dual(su2, 4):
                got = su2.irrep_matrix(xi, x).trace()
                if half_theta < 1e-8:
                    ref = xi.dim
                else:
                    ref = np.sin((xi.label + 1) * half_theta) / np.sin(half_theta)
                assert got.imag == pytest.approx(0.0, abs=1e-10)
                assert got.real == pytest.approx(ref, abs=1e-9)

    def test_invalid_beta_rejected(self, su2):
        xi = enumerate_dual(su2, 1)[1]
        with pytest.raises(DomainError):
            su2.irrep_matrix(xi, np.array([0.0, 3.5, 0.0]))


    @pytest.mark.parametrize("spec, label", [
        ("su2", -1), ("su2", 2.5), ("su2", True), ("su2", (2,)), ("su2", "2"),
        ("t1", (1.5,)), ("t1", 3), ("t1", (1, 2)), ("t2", (1,)), ("t2", (1.0, 2.0))])
    def test_label_outside_the_dual_rejected(self, spec, label):
        g = parse_group_spec(spec)
        xi = DualIndex(label=label, dim=1, casimir=0.0)
        with pytest.raises(DomainError, match=re.escape(repr(label))):
            g.irrep_matrix(xi, g.identity())
        with pytest.raises(DomainError, match=re.escape(repr(label))):
            g.irrep_matrices(xi, np.stack([g.identity()] * 3))

    def test_su2_grid_table_built_on_distinct_betas(self, su2, monkeypatch):
        # a product grid repeats B betas, so the Wigner table needs only those
        import liefact.groups

        angles = []
        real = liefact.groups.wigner_d_matrices

        def spy(two_l_max, beta):
            angles.append(np.size(beta))
            return real(two_l_max, beta)

        monkeypatch.setattr(liefact.groups, "wigner_d_matrices", spy)
        grid = haar_quadrature(su2, 3)
        xi = enumerate_dual(su2, 3)[5]
        mats = su2.irrep_matrices(xi, grid.nodes)
        assert angles and max(angles) <= grid.axes["B"]
        for node, mat in zip(grid.nodes, mats):
            assert np.array_equal(mat, su2.irrep_matrix(xi, node))

    def test_su2_grid_table_peak_memory(self, su2):
        # the phase product is formed in the result, not in a second temporary
        import tracemalloc

        grid = haar_quadrature(su2, 8)
        xi = enumerate_dual(su2, 8)[8]
        tracemalloc.start()
        try:
            mats = su2.irrep_matrices(xi, grid.nodes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mats.shape == (len(grid.nodes), 9, 9)
        assert peak < 2.2 * mats.nbytes


class TestIrrepBlocks:
    """``evaluate_values`` against xi(x) from ``irrep_matrices``, read out by
    one-hot families: on SU(2) through the Delta = d(pi/2) factorization, on
    the torus through one phase table per axis; and ``irrep_matrices``
    itself, which streams the Wigner levels of one xi."""

    def test_su2_degrees_equal_irrep_matrices(self, su2, rng):
        # a family one-hot in value column (m', m) of degree 2l evaluates to
        # d conj(xi_{m'm}(x)) there: every entry of every degree in one call
        L = 4
        grid = haar_quadrature(su2, L)
        random_pts = np.array([su2.random_element(rng) for _ in range(30)])
        for xi in enumerate_dual(su2, L):
            d = xi.dim
            T = FourierCoefficients.zeros(su2, L, value_dim=d * d)
            T.blocks[xi.label][0] = np.eye(d * d).reshape(d * d, d, d)
            for pts in (random_pts, grid.nodes[::7]):
                vals = evaluate(T, pts).reshape(len(pts), d, d)
                assert np.abs(vals - d * su2.irrep_matrices(xi, pts).conj()).max() <= 1e-13 * d

    def test_torus_block_columns_equal_irrep_matrices(self, t1, t2, rng):
        # evaluate multiplies one phase table per axis, a single xi takes
        # e^{-ik.x} whole; on T^1 both are exp(i k x) of the same product, on
        # T^2 they may round apart in the last bits (well under 1e-14 here)
        for g in (t1, t2):
            pts = np.array([g.random_element(rng) for _ in range(30)])
            for i, xi in enumerate(enumerate_dual(g, 3)):
                T = FourierCoefficients.zeros(g, 3)
                T.blocks[0][i] = 1.0
                vals = evaluate(T, pts)
                assert vals.shape == (len(pts), 1)
                mats = g.irrep_matrices(xi, pts)
                assert np.abs(vals - np.conj(mats[:, 0])).max() <= (0.0 if g is t1 else 1e-14)

    def test_su2_blocks_stream_in_bounded_memory(self, su2, rng):
        # irrep_matrices keeps one degree's Wigner levels at a time: a table
        # of every level on the 256 distinct betas would alone take every_level
        # bytes
        pts = np.array([su2.random_element(rng) for _ in range(256)])
        every_level = sum(256 * d * d * 8 for d in range(1, 34))
        tracemalloc.start()
        try:
            mats = su2.irrep_matrices(enumerate_dual(su2, 16)[32], pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mats.shape == (256, 33, 33)
        assert peak < 0.9 * every_level

    def test_su2_distinct_betas_skip_the_gather(self, su2, rng):
        # distinct betas build the levels on the points' own betas; with one
        # point repeated they go through np.unique and the gather: same rows
        pts = np.array([su2.random_element(rng) for _ in range(40)])
        dup = np.concatenate([pts, pts[5:6]])
        for xi in enumerate_dual(su2, 6):
            got, ref = su2.irrep_matrices(xi, pts), su2.irrep_matrices(xi, dup)
            assert np.array_equal(got, ref[:-1])
            assert np.array_equal(ref[-1], got[5])

    def test_coordinates_validated(self, t2, su2):
        with pytest.raises(DomainError):
            evaluate(FourierCoefficients.zeros(su2, 2), np.array([[0.0, -0.5, 0.0]]))
        with pytest.raises(DomainError):
            evaluate(FourierCoefficients.zeros(t2, 2), np.zeros((4, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("spec", ["t1", "t2", "su2"])
    def test_non_finite_coordinates_rejected(self, spec, bad, rng):
        g = parse_group_spec(spec)
        T = FourierCoefficients.zeros(g, 2)
        xi = g.enumerate_dual(2)[1]
        x = g.random_element(rng)
        for axis in range(len(x)):
            y = x.copy()
            y[axis] = bad
            for call in (lambda: evaluate(T, [x, y]), lambda: g.irrep_matrix(xi, y),
                         lambda: g.irrep_matrices(xi, np.stack([x, y])),
                         lambda: g.multiply(x, y), lambda: g.multiply(y, x),
                         lambda: g.inverse_element(y)):
                with pytest.raises(DomainError, match="finite"):
                    call()


class TestElements:
    def test_inverse_roundtrip(self, t1, t2, su2, rng):
        for g in (t1, t2, su2):
            for _ in range(10):
                x = g.random_element(rng)
                e = g.multiply(x, g.inverse_element(x))
                for xi in enumerate_dual(g, 2):
                    assert np.allclose(
                        g.irrep_matrix(xi, e), np.eye(xi.dim), atol=1e-12
                    )

    def test_array_arithmetic_equals_rows(self, t1, t2, su2, rng):
        # an (n, dim) array of elements gives the row-by-row results bit for
        # bit; on SU(2) the first rows sit at beta in {0, pi}, where the ZYZ
        # extraction merges the free phase
        for g in (t1, t2, su2):
            x = np.array([g.random_element(rng) for _ in range(24)])
            y = np.array([g.random_element(rng) for _ in range(24)])
            if g is su2:
                x[:4, 1], y[:4, 1] = (0.0, np.pi, 0.0, np.pi), (0.0, 0.0, np.pi, np.pi)
            cases = [(g.multiply(x, y), [g.multiply(a, b) for a, b in zip(x, y)]),
                     (g.inverse_element(x), [g.inverse_element(a) for a in x])]
            if g is su2:
                cases.append((g.defining_matrix(x), [g.defining_matrix(a) for a in x]))
            for batched, rows in cases:
                assert batched.shape == np.shape(rows)
                assert np.array_equal(batched, np.array(rows))

    def test_zyz_extraction_degenerate_beta(self, su2):
        for beta in (0.0, np.pi):
            x = np.array([1.3, beta, 0.0])
            u = su2.defining_matrix(x)
            back = su2.coords_from_matrices(u)
            assert np.abs(su2.defining_matrix(back) - u).max() < 1e-13


class TestSU2Stages:
    """Each stage of the SU(2) transform against its adjoint, on random
    complex input: <S x, y> = <x, S^+ y> within 1e-13 of ||S x|| ||y||.  S is
    the forward stage with its quadrature weights divided out; the blocks
    carry the inner product sum_xi d_xi <., .>_HS that ``inverse`` is the
    adjoint for."""

    cases = pytest.mark.parametrize("L, m, p", [
        (L, m, p) for L in (3, 16) for m in (1, 3) for p in (0, 1)])

    @staticmethod
    def _setup(L, m, p, rng):
        grid = haar_quadrature(SU2(), L)
        par = list(SU2._plan(L, m, grid))[p]
        gz, spare = np.empty((2, grid.size * m // 2), dtype=complex)
        return grid, par, gz, spare, lambda *shape: rng.standard_normal(shape + (2,)) @ [1, 1j]

    @staticmethod
    def _check(Sx, y, x, Sy):
        left, right = np.vdot(Sx, y), np.vdot(x, Sy)
        assert abs(left - right) <= 1e-13 * np.linalg.norm(Sx) * np.linalg.norm(y)

    @cases
    def test_alpha_stage_adjoint(self, L, m, p, rng):
        grid, par, gz, spare, randc = self._setup(L, m, p, rng)
        B = grid.axes["B"]
        g = liefact.groups._take(gz, par.n, B * B * m)  # every row m' of the parity
        x = randc(grid.size, m)
        liefact.groups._alpha_stage(par, x, None, gz, spare)
        Sx = g * (2 * B)
        y = randc(*g.shape)
        g[...] = y
        out = np.zeros((2, grid.size * m // 2), dtype=complex)  # the other parity's half 0
        liefact.groups._alpha_stage(par, out, None, gz, None, adjoint=True)
        liefact.groups._unfold(*out)
        self._check(Sx, y, x, out.reshape(-1, m))

    @cases
    def test_gamma_stage_adjoint(self, L, m, p, rng):
        grid, par, gz, spare, randc = self._setup(L, m, p, rng)
        B, n = grid.axes["B"], par.n
        g, z = liefact.groups._take(gz, n, B, B, m), liefact.groups._take(gz, B, m, n, n)
        x = randc(*g.shape)
        g[...] = x
        liefact.groups._gamma_stage(par, None, None, gz, spare)
        Sx = z * (B / par.w)[:, None, None, None]
        y = randc(*z.shape)
        z[...] = y
        liefact.groups._gamma_stage(par, None, None, gz, spare, adjoint=True)
        self._check(Sx, y, x, g)

    @cases
    def test_beta_stage_adjoint(self, L, m, p, rng):
        grid, par, gz, spare, randc = self._setup(L, m, p, rng)
        n = par.n
        z = liefact.groups._take(gz, grid.axes["B"], m, n, n)
        y0 = liefact.groups._take(spare, (n + 1) // 2, m, n, n)
        x = randc(*z.shape)
        z[...] = x
        liefact.groups._beta_stage(par, None, None, gz, spare)
        Sx = y0.copy()
        y = randc(*y0.shape)
        y0[...] = y
        liefact.groups._beta_stage(par, None, None, gz, spare, adjoint=True)
        self._check(Sx, y, x, z)

    @cases
    def test_fold_adjoint(self, L, m, p, rng):
        grid, par, gz, spare, randc = self._setup(L, m, p, rng)
        y0 = liefact.groups._take(spare, (par.n + 1) // 2, m, par.n, par.n)
        x = randc(*y0.shape)
        y0[...] = x
        blocks = [None] * (2 * L + 1)
        liefact.groups._fold(par, None, blocks, gz, spare)
        ys = [None] * (2 * L + 1)
        for two_l, _, _ in par.degrees:
            ys[two_l] = randc(1, m, two_l + 1, two_l + 1)
        # sqrt(d) on both sides turns sum_xi d_xi <., .>_HS into a plain one
        Sx = np.concatenate([np.sqrt(b.shape[-1]) * b.ravel() for b in blocks if b is not None])
        y = np.concatenate([np.sqrt(b.shape[-1]) * b.ravel() for b in ys if b is not None])
        liefact.groups._fold(par, None, ys, gz, spare, adjoint=True)
        self._check(Sx, y, x, y0)


class TestQuadrature:
    def test_normalization(self, t1, t2, su2):
        for g, L in ((t1, 8), (t2, 4), (su2, 4)):
            grid = haar_quadrature(g, L)
            assert abs(grid.weights.sum() - 1.0) < 1e-14

    def test_cached_grid_is_read_only(self, t1, t2, su2):
        for g in (t1, t2, su2):
            grid = haar_quadrature(g, 3)
            before = grid.nodes.copy()
            arrays = [grid.nodes, grid.weights, grid.inversion_permutation,
                      *grid.points, *grid.factors]
            arrays += [a for a in grid.axes.values() if isinstance(a, np.ndarray)]
            if g is su2:  # the transform plan, E
                assert any(a is grid.axes["E"] for a in arrays)
            for arr in arrays:
                with pytest.raises(ValueError):
                    arr.flat[0] = 5.0
            assert np.array_equal(haar_quadrature(g, 3).nodes, before)

    def test_su2_grid_holds_no_wigner_table(self, su2):
        # the plan is E alone, and the transform reads d(beta) through the
        # cached Delta = d(pi/2) levels: 35 KB and 0.10 MB at L = 16, where
        # the stored quarter tables were 0.87 MB; the coordinates are the
        # (alpha, beta, gamma) axes of the grid
        grid = haar_quadrature(su2, 16)
        assert set(grid.axes) == {"beta_w", "B", "E"}
        assert [len(p) for p in grid.points] == [2 * grid.axes["B"], grid.axes["B"], grid.axes["B"]]
        assert grid.axes["E"].shape == (grid.axes["B"], 4 * 16 + 1)
        levels = liefact.groups.wigner_d_half_pi(32)
        assert grid.axes["E"].nbytes + sum(t.nbytes for t in levels) <= 0.15e6

    @pytest.mark.parametrize("spec, L", [("t2", 5), ("su2", 4)])
    def test_transforms_leave_nodes_and_weights_unbuilt(self, spec, L, rng):
        # the transforms and the L2 norm read the coordinate axes alone
        group = parse_group_spec(spec)
        grid = QuadratureGrid(group, L, *group._quadrature_rule(L))  # fresh, not the cached one
        f = random_bandlimited(group, grid, rng, value_dim=2)
        T = forward(f)
        inverse(T, grid)
        strong_factorize(GridFunction(group, grid, f.values[:, 0]), gevrey_weight(1.0), 0.5, 1.0)
        evaluate(T, np.stack([group.random_element(rng) for _ in range(5)]))
        norm_sq = f.l2_norm_sq()
        parseval_defect(f)
        assert "nodes" not in vars(grid) and "weights" not in vars(grid)
        # the per-axis contraction is the sum against the dense weights
        dense = np.sum(grid.weights[:, None] * np.abs(f.values) ** 2)
        assert abs(norm_sq - dense) <= 1e-14 * dense

    @pytest.mark.parametrize("spec, L", [("t1", 5), ("t2", 3), ("su2", 2), ("su2", 5)])
    def test_nodes_and_weights_match_the_repeat_tile_layout(self, spec, L):
        # the product rule against the grids as they were once stored: the
        # coordinates repeated and tiled, the last one fastest
        group = parse_group_spec(spec)
        grid = QuadratureGrid(group, L, *group._quadrature_rule(L))
        if spec == "su2":
            B = 2 * L + 2
            phases = 2 * np.pi * np.arange(2 * B) / B
            u, w = np.polynomial.legendre.leggauss(B)
            nodes = np.stack([np.repeat(phases, B * B), np.tile(np.repeat(np.arccos(u), B), 2 * B),
                              np.tile(phases[:B], 2 * B * B)], axis=1)
            weights = np.tile(np.repeat(w / 2.0, B), 2 * B) / (2 * B * B)
        else:
            n, d = 2 * L + 2, group.d
            axis = 2 * np.pi * np.arange(n) / n
            nodes = np.stack([np.tile(np.repeat(axis, n ** (d - 1 - a)), n ** a) for a in range(d)],
                             axis=1)
            weights = np.full(n**d, 1.0 / n**d)
        assert grid.size == len(nodes)
        for got, want in ((grid.nodes, nodes), (grid.weights, weights)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()  # bit for bit
        for arr in (grid.nodes, grid.weights, *grid.points, *grid.factors):
            with pytest.raises(ValueError):
                arr.flat[0] = 5.0

    def test_torus1_uniform_rule(self, t1):
        grid = haar_quadrature(t1, 2)
        assert grid.size == 6
        assert np.allclose(grid.weights, 1.0 / 6.0)

    def test_schur_orthogonality(self, t1, t2, su2):
        for g, L in ((t1, 3), (t2, 2), (su2, 2)):
            grid = haar_quadrature(g, L)
            duals = enumerate_dual(g, L)
            tables = {xi.label: g.irrep_matrices(xi, grid.nodes) for xi in duals}
            for xi in duals:
                for eta in duals:
                    val = np.einsum(
                        "n,nij,nkl->ijkl", grid.weights,
                        tables[xi.label], tables[eta.label].conj(),
                    )
                    if xi.label == eta.label:
                        d = xi.dim
                        val = val - np.einsum("ik,jl->ijkl", np.eye(d), np.eye(d)) / d
                    assert np.abs(val).max() < 1e-10

    @pytest.mark.parametrize("L", [2, 3])
    def test_su2_grid_covers_the_group_once(self, su2, L):
        grid = haar_quadrature(su2, L)
        B = 2 * L + 2
        assert grid.size == 2 * B * B * B
        u = su2.defining_matrix(grid.nodes).reshape(grid.size, 4)
        gap = np.abs(u[:, None] - u[None]).max(axis=2) + 3.0 * np.eye(grid.size)
        assert gap.min() > 1e-3  # no element sampled twice
        # forward equals the quadrature on the double-cover 2B x B x 2B grid,
        # alpha and gamma both on [0, 4pi), for a function that is not band-limited
        def f(nodes):
            m = su2.defining_matrix(nodes)
            return np.stack([np.exp(m[:, 0, 0].real + m[:, 1, 0].imag),
                             np.cos(3 * m[:, 0, 1].real) + 1j * m[:, 1, 1].imag], axis=1)

        phases = 2 * np.pi * np.arange(2 * B) / B
        x, w = np.polynomial.legendre.leggauss(B)
        old = np.stack(np.meshgrid(phases, np.arccos(x), phases, indexing="ij"), -1).reshape(-1, 3)
        old_w = np.broadcast_to(w[:, None] / 2.0, (2 * B, B, 2 * B)).reshape(-1) / (2 * B) ** 2
        T = forward(GridFunction(su2, grid, f(grid.nodes)))
        for xi, t in T.entries.items():
            ref = np.einsum("n,nv,nij->vij", old_w, f(old), su2.irrep_matrices(xi, old))
            assert np.abs(t - ref).max() < 1e-13

    def test_inversion_permutation(self, t1, t2, su2, rng):
        for g, L in ((t1, 3), (t2, 2), (su2, 2)):
            grid = haar_quadrature(g, L)
            perm = grid.inversion_permutation
            assert sorted(perm) == list(range(grid.size))
            idx = rng.choice(grid.size, size=32)
            for i in idx:
                xinv = g.inverse_element(grid.nodes[i])
                node = grid.nodes[perm[i]]
                for xi in enumerate_dual(g, 1):
                    assert np.allclose(
                        g.irrep_matrices(xi, node[None])[0],
                        g.irrep_matrices(xi, xinv[None])[0],
                        atol=1e-12,
                    )


class TestWeylSummability:
    def test_su2_convergent_at_dimension(self, su2):
        sums = weyl_summability(su2, 3.0, 64)

        def inc(L):
            return sums[L - 1] - sums[L // 2 - 1]

        for L in (8, 16, 32):
            assert inc(2 * L) <= inc(L) / 1.5

    def test_su2_divergent_at_half_dimension(self, su2):
        sums = weyl_summability(su2, 1.5, 64)
        for L in (8, 16, 32):
            assert sums[2 * L - 1] / sums[L - 1] >= 1.1

    def test_torus1_against_brute_force(self, t1):
        sums = weyl_summability(t1, 1.0, 64)
        for L in (1, 8, 64):
            brute = sum((1.0 + k * k) ** -1.0 for k in range(-L, L + 1))
            assert sums[L - 1] == pytest.approx(brute, rel=1e-12)
        # convergent: late increments are tiny
        assert sums[63] - sums[31] < 0.04


def test_parse_group_spec():
    assert parse_group_spec("t1") == Torus(1)
    assert parse_group_spec("t2") == Torus(2)
    assert parse_group_spec("su2") == SU2()
