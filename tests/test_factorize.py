import re

import numpy as np
import pytest

from liefact import factorize
from liefact.classify import decay_seminorm, gevrey_order_estimate
from liefact.errors import (
    BandlimitMismatchError,
    ConditioningError,
    CoverageError,
    DomainError,
    ParameterError,
    QuasianalyticError,
)
from liefact.factorize import (
    FiniteRep,
    bounded_factorize_set,
    build_partition,
    bump_partition_of_unity,
    default_piece_count,
    factorize_vector,
    gevrey_bump,
    induced_action,
    orbit_map,
    strong_factorize,
    supported_factorize,
)
from liefact.fourier import GridFunction, convolve, evaluate, forward, inverse
from liefact.groups import SU2, Torus, dual_layout, enumerate_dual, haar_quadrature
from liefact.signals import (
    poisson_coefficients,
    poisson_function,
    random_bandlimited,
    reproducing_kernel,
    synth_coefficients,
)
from liefact.weights import eval_weight, gevrey_weight


REPS = [  # (group, labels): T^1, T^2, SU(2) with a repeated label
    (Torus(1), [(1,), (-2,), (1,)]),
    (Torus(2), [(0, 1), (1, -1), (2, 0)]),
    (SU2(), [1, 1, 4]),
]


def _rep(group, labels, rng):
    """The rep with a random unitary basis."""
    m = FiniteRep.from_labels(group, labels).total_dim
    q, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    return FiniteRep.from_labels(group, labels, basis=q)


def _pi_table(rep, nodes):
    """Dense pi on the nodes, block by block (reference for the transform path)."""
    table = np.zeros((len(nodes), rep.total_dim, rep.total_dim), dtype=complex)
    offset = 0
    for xi in rep.blocks:
        rows = slice(offset, offset + xi.dim)
        table[:, rows, rows] = rep.group.irrep_matrices(xi, nodes)
        offset += xi.dim
    return rep.basis @ table @ rep.basis.conj().T


class TestOrbitMap:
    def test_zero_vector(self, su2):
        rep = FiniteRep.from_labels(su2, [0, 1])
        f = orbit_map(rep, np.zeros(3))
        assert np.abs(f.values).max() == 0.0

    def test_trivial_block_constant(self, t1):
        rep = FiniteRep.from_labels(t1, [(0,)])
        f = orbit_map(rep, np.array([1.5 + 0.5j]))
        assert np.abs(f.values - (1.5 + 0.5j)).max() < 1e-14

    def test_torus_components_and_support(self, t1):
        # pi = diag(e^{-ix}, e^{-2ix}); the transform of a matrix coefficient
        # is supported on the contragredient labels {-1, -2}
        rep = FiniteRep.from_labels(t1, [(1,), (2,)])
        f = orbit_map(rep, np.array([1.0, 1.0]))
        x = f.grid.nodes[:, 0]
        assert np.abs(f.values[:, 0] - np.exp(-1j * x)).max() < 1e-13
        assert np.abs(f.values[:, 1] - np.exp(-2j * x)).max() < 1e-13
        support = {
            xi.label for xi, t in forward(f).entries.items() if np.abs(t).max() > 1e-12
        }
        assert support == {(-1,), (-2,)}

    def test_dimension_mismatch(self, su2):
        rep = FiniteRep.from_labels(su2, [0, 1])
        with pytest.raises(ParameterError):
            orbit_map(rep, np.zeros(5))

    @pytest.mark.parametrize("group, labels", REPS, ids=["t1", "t2", "su2"])
    def test_values_equal_pi_times_v(self, group, labels, rng):
        rep = _rep(group, labels, rng)
        v = rng.standard_normal(rep.total_dim) + 1j * rng.standard_normal(rep.total_dim)
        f = orbit_map(rep, v, group.haar_quadrature(rep.bandlimit + 1))
        for i in rng.integers(f.grid.size, size=16):
            assert np.abs(f.values[i] - rep.evaluate(f.grid.nodes[i]) @ v).max() < 1e-12

    @pytest.mark.parametrize("group, labels", REPS, ids=["t1", "t2", "su2"])
    def test_grid_below_rep_bandlimit_rejected(self, group, labels, rng):
        rep = _rep(group, labels, rng)
        grid = group.haar_quadrature(rep.bandlimit - 1)
        v = np.ones(rep.total_dim)
        with pytest.raises(BandlimitMismatchError):
            orbit_map(rep, v, grid)
        with pytest.raises(BandlimitMismatchError):
            induced_action(rep, random_bandlimited(group, grid, rng), v)

    def test_other_groups_grid_rejected(self, t1, t2, su2, rng):
        for group, label, other in ((t1, (1,), t2), (t2, (1, 0), su2), (su2, 1, t1)):
            rep = FiniteRep.from_labels(group, [label])
            grid = other.haar_quadrature(2)
            v = np.ones(rep.total_dim)
            with pytest.raises(ParameterError, match="cannot act"):
                orbit_map(rep, v, grid)
            with pytest.raises(ParameterError, match="cannot act"):
                induced_action(rep, random_bandlimited(other, grid, rng), v)


class TestFromLabels:
    def test_labels_resolved_at_their_own_band_limit(self, t2, su2, monkeypatch):
        def refuse(*args):
            raise AssertionError("from_labels built a grid")

        monkeypatch.setattr(SU2, "haar_quadrature", refuse)
        monkeypatch.setattr(Torus, "haar_quadrature", refuse)
        rep = FiniteRep.from_labels(su2, [130])
        assert rep.total_dim == 131 and rep.bandlimit == 65
        rep = FiniteRep.from_labels(t2, [(70, 0)])
        assert rep.blocks[0].label == (70, 0) and rep.bandlimit == 70

    def test_layout_duals_left_unbuilt(self, t2, su2):
        # DualIndex objects for the given labels only, not for the whole box
        for group, label, L, dim in ((t2, (41, -3), 41, 1), (su2, 79, 40, 80)):
            rep = FiniteRep.from_labels(group, [label])
            assert rep.blocks[0].label == label and rep.blocks[0].dim == dim
            assert "duals" not in vars(dual_layout(group, L))

    def test_layout_wire_built_on_first_read(self, t2):
        # no lookup reads the wire order, one str per label and a lexsort:
        # the call traces 23 MB at T^2 L = 300, and 85 MB with the wire built
        import tracemalloc

        tracemalloc.start()
        try:
            FiniteRep.from_labels(t2, [(300, 0)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        layout = dual_layout(t2, 300)
        assert "wire" not in vars(layout) and peak < 40e6
        with pytest.raises(ValueError):
            layout.wire[0] = 1

    def test_unknown_labels_rejected(self, t1, t2, su2):
        for group, label in ((su2, -1), (t2, (1,)), (t1, (1, 2))):
            with pytest.raises(ParameterError):
                FiniteRep.from_labels(group, [label])

    @pytest.mark.parametrize("group, labels, first_bad", [
        ("su2", ["a"], 0), ("su2", [None], 0), ("su2", [2.0], 0), ("su2", [3.0], 0), ("su2", [True], 0),
        ("su2", [0, 1, 4.0, "b"], 2), ("t2", [(1, "x")], 0), ("t2", [(1, [2])], 0),
        ("t2", [(0, 1), (2.0, 0)], 1), ("t2", [(0, 1), (1,), (3, 3)], 1), ("t1", [3], 0),
        ("t1", [(float("inf"),)], 0),
    ])
    def test_non_labels_raise_parameter_error(self, group, labels, first_bad, request,
                                              monkeypatch):
        # the layout is built at an integer band limit only, then judges each label
        seen = []

        def spy(g, L):
            seen.append(L)
            return dual_layout(g, L)

        monkeypatch.setattr(factorize, "dual_layout", spy)
        with pytest.raises(ParameterError, match="unknown dual label " + re.escape(
                repr(labels[first_bad]))):
            FiniteRep.from_labels(request.getfixturevalue(group), labels)
        assert seen and all(type(L) is int for L in seen)

    def test_non_unitary_basis_rejected(self, su2, rng):
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        for basis in (2.0 * np.eye(3), z):
            with pytest.raises(ParameterError, match="unitary"):
                FiniteRep.from_labels(su2, [0, 1], basis=basis)


class TestInducedAction:
    def test_constant_chi_projects_on_trivial_block(self, su2, rng):
        rep = FiniteRep.from_labels(su2, [0, 1])
        grid = haar_quadrature(su2, rep.bandlimit)
        chi = GridFunction(su2, grid, np.ones(grid.size))
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        out = induced_action(rep, chi, v)
        assert out[0] == pytest.approx(v[0], abs=1e-12)
        assert np.abs(out[1:]).max() < 1e-12

    def test_convolution_homomorphism(self, su2, rng):
        # Pi(chi1 * chi2) = Pi(chi1) Pi(chi2), checked by quadrature
        rep = FiniteRep.from_labels(su2, [0, 1, 2])
        grid = haar_quadrature(su2, 2)
        c1 = random_bandlimited(su2, grid, rng)
        c2 = random_bandlimited(su2, grid, rng)
        v = rng.standard_normal(rep.total_dim)
        lhs = induced_action(rep, convolve(c1, c2), v)
        rhs = induced_action(rep, c1, induced_action(rep, c2, v))
        assert np.abs(lhs - rhs).max() < 1e-9

    def test_reproducing_kernel_acts_as_identity(self, su2, rng):
        rep = FiniteRep.from_labels(su2, [0, 1, 2])
        grid = haar_quadrature(su2, 2)
        chi = inverse(reproducing_kernel(su2, 2), grid)
        v = rng.standard_normal(rep.total_dim) + 1j * rng.standard_normal(rep.total_dim)
        assert np.abs(induced_action(rep, chi, v) - v).max() < 1e-9

    @pytest.mark.parametrize("group, labels", REPS, ids=["t1", "t2", "su2"])
    def test_equals_explicit_quadrature_sum(self, group, labels, rng):
        rep = _rep(group, labels, rng)
        grid = group.haar_quadrature(rep.bandlimit + 1)
        chi = random_bandlimited(group, grid, rng)
        v = rng.standard_normal(rep.total_dim) + 1j * rng.standard_normal(rep.total_dim)
        explicit = np.einsum("n,nab,b->a", grid.weights * chi.scalar_values,
                             _pi_table(rep, grid.nodes), v)
        assert np.abs(induced_action(rep, chi, v) - explicit).max() < 1e-12

    def test_block_restriction_equals_coefficients(self, su2, rng):
        rep = FiniteRep.from_labels(su2, [0, 1, 2])
        grid = haar_quadrature(su2, 2)
        chi = random_bandlimited(su2, grid, rng)
        T = forward(chi)
        wchi = grid.weights * chi.scalar_values
        for xi in rep.blocks:
            block = np.einsum("n,nab->ab", wchi, su2.irrep_matrices(xi, grid.nodes))
            assert np.abs(block - T.entries[xi][0]).max() < 1e-10

    def test_intertwining_relation(self, su2, rng):
        # (pi(x) (x) Id)(F gamma_v(xi)) = xi(x)^* o F gamma_v(xi)
        rep = FiniteRep.from_labels(su2, [0, 1, 2])
        v = rng.standard_normal(rep.total_dim) + 1j * rng.standard_normal(rep.total_dim)
        gamma = orbit_map(rep, v)
        T = forward(gamma)
        for _ in range(3):
            x = su2.random_element(rng)
            pix = rep.evaluate(x)
            for xi in rep.blocks:
                lhs = np.einsum("ab,bij->aij", pix, T.entries[xi])
                rhs = np.einsum("ij,vjk->vik",
                                su2.irrep_matrix(xi, x).conj().T, T.entries[xi])
                assert np.abs(lhs - rhs).max() < 1e-9


class TestStrongFactorization:
    def test_random_bandlimited_residual(self, t1, su2, rng):
        w = gevrey_weight(1.0)
        for g, L in ((t1, 16), (su2, 4)):
            grid = haar_quadrature(g, L)
            f = random_bandlimited(g, grid, rng, value_dim=2, decay=1.5)
            res = strong_factorize(f, w, 1.0, 2.0)
            assert res.residual < 1e-10
            assert res.min_transfer_margin >= -1e-10

    def test_multipliers_and_ghat_structure(self, t1, rng):
        w = gevrey_weight(1.0)
        grid = haar_quadrature(t1, 8)
        f = random_bandlimited(t1, grid, rng)
        res = strong_factorize(f, w, 0.5, 1.0)
        T = forward(f)
        for xi, c in zip(res.g.duals, res.multipliers):
            assert c == pytest.approx(np.exp(eval_weight(w, np.sqrt(xi.casimir))), rel=1e-14)
            assert np.allclose(res.g.entries[xi][0], np.eye(xi.dim) / c)
            assert np.allclose(res.f_prime.entries[xi], c * T.entries[xi])

    def test_poisson_decay_transfer(self, t1):
        # e^{-2|k|} picks up e^{|k|}, landing exactly on the e^{-|k|} family:
        # seminorms at the transferred exponent agree with the source
        w = gevrey_weight(1.0)
        grid = haar_quadrature(t1, 8)
        f = poisson_function(t1, grid, 2.0)
        res = strong_factorize(f, w, 0.5, 1.0)
        assert res.h_effective == pytest.approx(1.0)
        lhs = decay_seminorm(res.f_prime, w, 1.0)
        rhs = decay_seminorm(forward(f), w, 0.5)
        assert lhs == pytest.approx(rhs, rel=1e-10)
        assert lhs == pytest.approx(1.0, rel=1e-10)

    def test_single_matrix_coefficient_block(self, su2):
        grid = haar_quadrature(su2, 2)
        xi2 = [xi for xi in enumerate_dual(su2, 2) if xi.label == 2][0]
        table = su2.irrep_matrices(xi2, grid.nodes)
        f = GridFunction(su2, grid, table[:, 0, 1])
        res = strong_factorize(f, gevrey_weight(1.0), 1.0, 2.0)
        c = res.multipliers[res.g.duals.index(xi2)]
        assert np.allclose(res.f_prime.entries[xi2], c * forward(f).entries[xi2])
        assert res.residual < 1e-12

    def test_parameter_validation(self, t1, rng):
        grid = haar_quadrature(t1, 4)
        f = random_bandlimited(t1, grid, rng)
        with pytest.raises(ParameterError):
            strong_factorize(f, gevrey_weight(1.0), 1.0, 0.5)

    def test_exactness_entrywise_on_dual(self, su2, rng):
        # the multipliers cancel per entry: F(g * f')(xi) = F(f)(xi)
        from liefact.fourier import compose

        grid = haar_quadrature(su2, 3)
        f = random_bandlimited(su2, grid, rng, value_dim=2, decay=1.0)
        res = strong_factorize(f, gevrey_weight(1.0), 1.0, 2.0)
        T = forward(f)
        recombined = compose(res.g, res.f_prime)
        for xi in T.entries:
            assert np.abs(recombined.entries[xi] - T.entries[xi]).max() < 1e-12


class TestBoundedFamily:
    def test_singleton_matches_strong(self, t1, rng):
        grid = haar_quadrature(t1, 8)
        f = random_bandlimited(t1, grid, rng, decay=1.5)
        single = strong_factorize(f, gevrey_weight(1.0), 1.0, 2.0)
        fam = bounded_factorize_set([f], gevrey_weight(1.0), 1.0, 2.0)
        assert fam.residuals[0] == pytest.approx(single.residual, abs=1e-14)
        for xi in single.f_prime.entries:
            assert np.allclose(fam.f_primes[0].entries[xi], single.f_prime.entries[xi])

    def test_poisson_family_shares_g(self, t1):
        from liefact.fourier import compose

        grid = haar_quadrature(t1, 32)
        fam = [poisson_function(t1, grid, t) for t in (1.0, 1.5, 2.0)]
        res = bounded_factorize_set(fam, gevrey_weight(1.0), 1.0, 2.0)
        assert max(res.residuals) < 1e-10
        assert np.isfinite(res.family_seminorm)
        for f, fp in zip(fam, res.f_primes):
            recombined = inverse(compose(res.g, fp), grid)
            assert np.abs(recombined.values - f.values).max() < 1e-10

    def test_zero_member(self, t1, rng):
        grid = haar_quadrature(t1, 8)
        f = random_bandlimited(t1, grid, rng)
        z = GridFunction(t1, grid, np.zeros(grid.size))
        res = bounded_factorize_set([f, z], gevrey_weight(1.0), 1.0, 2.0)
        assert all(np.abs(t).max() == 0.0 for t in res.f_primes[1].entries.values())

    def test_members_on_different_grids_rejected(self, t1, rng):
        # g could not act on both grids
        f1 = random_bandlimited(t1, haar_quadrature(t1, 8), rng)
        grid16 = haar_quadrature(t1, 16)
        f2 = GridFunction(t1, grid16, random_bandlimited(t1, grid16, rng).values)
        with pytest.raises(ParameterError):
            bounded_factorize_set([f1, f2], gevrey_weight(1.0), 1.0, 2.0)

    def test_members_from_lower_bandlimits_on_one_grid(self, t1, rng):
        # an inverse from L=4 coefficients lives on the L=8 grid like any other member
        grid = haar_quadrature(t1, 8)
        fam = [inverse(poisson_coefficients(t1, 4, 1.0), grid), random_bandlimited(t1, grid, rng)]
        w = gevrey_weight(1.0)
        res = bounded_factorize_set(fam, w, 1.0, 2.0)
        assert max(res.residuals) < 1e-12
        for fp, f in zip(res.f_primes, fam):
            single = strong_factorize(f, w, 1.0, 2.0).f_prime
            assert fp.bandlimit == 8
            assert all(np.array_equal(a, b) for a, b in zip(fp.blocks, single.blocks))

    def test_one_transform_for_the_family(self, t1, rng, monkeypatch):
        calls = []
        monkeypatch.setattr(factorize, "forward",
                            lambda f, *a: calls.append(f.value_dim) or forward(f, *a))
        grid = haar_quadrature(t1, 8)
        fam = [random_bandlimited(t1, grid, rng, value_dim=m) for m in (1, 2, 1)]
        bounded_factorize_set(fam, gevrey_weight(1.0), 1.0, 2.0)
        assert calls == [4]

    @pytest.mark.parametrize("group, L", [("t1", 32), ("t2", 8)])
    def test_stacked_bit_equal_to_members(self, group, L, rng, request):
        g = request.getfixturevalue(group)
        grid = haar_quadrature(g, L)
        w = gevrey_weight(1.0)
        fam = [random_bandlimited(g, grid, rng, value_dim=m, decay=1.5) for m in (1, 2, 1)]
        fam.append(poisson_function(g, grid, 2.0))
        res = bounded_factorize_set(fam, w, 1.0, 2.0)
        singles = [strong_factorize(f, w, 1.0, 2.0) for f in fam]
        for fp, single, r in zip(res.f_primes, singles, res.residuals):
            assert r == single.residual
            assert fp.value_dim == single.f_prime.value_dim
            assert all(np.array_equal(a, b) for a, b in zip(fp.blocks, single.f_prime.blocks))
        assert np.array_equal(res.multipliers, singles[0].multipliers)
        assert all(np.array_equal(a, b) for a, b in zip(res.g.blocks, singles[0].g.blocks))
        assert res.family_seminorm == max(
            decay_seminorm(s.f_prime, w, res.h_effective) for s in singles)


class TestVectorFactorization:
    def test_trivial_block(self, t1):
        rep = FiniteRep.from_labels(t1, [(0,)])
        res = factorize_vector(rep, np.array([2.0 - 1.0j]), gevrey_weight(1.0), 1.0, 2.0)
        assert res.action_residual < 1e-12
        assert np.abs(res.v_tilde - (2.0 - 1.0j)).max() < 1e-12  # C_triv = 1

    def test_su2_low_blocks(self, su2, rng):
        rep = FiniteRep.from_labels(su2, [0, 1])
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        res = factorize_vector(rep, v, gevrey_weight(1.0), 1.0, 2.0)
        assert res.action_residual < 1e-9
        assert res.orbit_residual < 1e-9

    def test_nontrivial_basis(self, su2, rng):
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        q, _ = np.linalg.qr(z)
        rep = FiniteRep.from_labels(su2, [0, 1], basis=q)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        res = factorize_vector(rep, v, gevrey_weight(1.0), 1.0, 2.0)
        assert res.action_residual < 1e-9
        assert res.orbit_residual < 1e-9

    @pytest.mark.parametrize("group, labels", REPS, ids=["t1", "t2", "su2"])
    def test_v_tilde_is_f_prime_at_the_identity(self, group, labels, rng):
        # v_tilde is read off the blocks as sum_xi d_xi Tr F(f')(xi), since
        # xi(e) = Id: the value of f' at e that evaluate gives
        rep = _rep(group, labels, rng)
        v = rng.standard_normal(rep.total_dim) + 1j * rng.standard_normal(rep.total_dim)
        res = factorize_vector(rep, v, gevrey_weight(1.0), 1.0, 2.0)
        ref = evaluate(res.factorization.f_prime, group.identity())[0]
        assert np.abs(res.v_tilde - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_torus_blocks(self, t1, rng):
        # exercises the g(x^-1) grid reindexing on the symmetric torus grid
        rep = FiniteRep.from_labels(t1, [(1,), (2,)])
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        res = factorize_vector(rep, v, gevrey_weight(1.0), 1.0, 2.0)
        assert res.action_residual < 1e-10
        assert res.orbit_residual < 1e-10


    def test_su2_peak_below_one_dense_table(self, su2, rng):
        # a dense (N, m, m) complex table of pi on the L = 8 grid is 142 MB
        import tracemalloc

        rep = FiniteRep.from_labels(su2, [0, 1, 16])
        N, m = su2.haar_quadrature(rep.bandlimit).size, rep.total_dim
        v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        tracemalloc.start()
        try:
            res = factorize_vector(rep, v, gevrey_weight(1.0), 1.0, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.action_residual < 1e-9 and res.orbit_residual < 1e-9
        assert peak < N * m * m * 16

    def test_su2_peak_below_four_orbits(self, su2, rng):
        # the orbit is let go once factored and the orbit residual is taken in
        # place, so few (N, m) complex arrays are alive at once: 3.0 of them
        # when measured
        import tracemalloc

        rep = FiniteRep.from_labels(su2, [0, 1, 16])
        N, m = su2.haar_quadrature(rep.bandlimit).size, rep.total_dim
        v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        tracemalloc.start()
        try:
            factorize_vector(rep, v, gevrey_weight(1.0), 1.0, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * N * m * 16


class TestBumps:
    def test_center_value(self, t1):
        grid = haar_quadrature(t1, 64)
        b = gevrey_bump(2.0, 0.0, 1.0, grid)
        i0 = int(np.argmin(np.abs(grid.nodes[:, 0])))
        assert b.values[i0, 0].real == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_vanishes_outside(self, t1):
        grid = haar_quadrature(t1, 64)
        b = gevrey_bump(2.0, 1.0, 0.5, grid)
        dist = np.abs(np.mod(grid.nodes[:, 0] - 1.0 + np.pi, 2 * np.pi) - np.pi)
        assert np.all(b.values[dist >= 0.5, 0] == 0.0)

    def test_coefficient_decay_order(self, t1):
        grid = haar_quadrature(t1, 256)
        b = gevrey_bump(2.0, 0.0, 1.0, grid)
        est = gevrey_order_estimate(forward(b))
        assert est == pytest.approx(0.5, rel=0.15)

    def test_quasianalytic_order_rejected(self, t1):
        grid = haar_quadrature(t1, 16)
        with pytest.raises(QuasianalyticError):
            gevrey_bump(1.0, 0.0, 0.5, grid)


class TestPartition:
    def test_partition_of_unity(self, t1):
        grid = haar_quadrature(t1, 128)
        chis = bump_partition_of_unity(2.0, 8, 2.0, grid)
        assert chis.value_dim == 8
        total = chis.values.sum(axis=1)
        assert np.abs(total - 1.0).max() < 1e-10

    def test_pieces_supported_in_translates(self, t1):
        grid = haar_quadrature(t1, 128)
        psis = build_partition(2.0, 8, 2.0, gevrey_weight(0.5), 1.0, grid)
        centers = 2 * np.pi * np.arange(8) / 8
        for c, psi in zip(centers, psis.values.T):
            dist = np.abs(np.mod(grid.nodes[:, 0] - c + np.pi, 2 * np.pi) - np.pi)
            assert np.all(psi[dist >= 1.0] == 0.0)

    def test_pieces_sum_to_half_decay_kernel(self, t1):
        grid = haar_quadrature(t1, 256)
        w = gevrey_weight(0.5)
        psis = build_partition(2.0, 8, 2.0, w, 1.0, grid)
        total = psis.values.sum(axis=1)
        ref = inverse(
            synth_coefficients(
                t1, 256, lambda lam: np.exp(-eval_weight(w, np.sqrt(lam)) / 2.0)
            ),
            grid,
        )
        assert np.abs(total - ref.values[:, 0]).max() < 1e-8

    def test_coverage_error_when_k_too_small(self, t1):
        grid = haar_quadrature(t1, 64)
        with pytest.raises(CoverageError):
            bump_partition_of_unity(0.5, 8, 2.0, grid)

    def test_default_piece_count(self):
        assert default_piece_count(2.0) == 8
        assert default_piece_count(0.5) == 27


class TestSupportedFactorization:
    def test_full_pipeline_feasible_parameters(self, t1):
        # delta = 2 is the configuration whose default piece count is 8
        grid = haar_quadrature(t1, 256)
        f = poisson_function(t1, grid, 2.0)
        w = gevrey_weight(0.5)
        res = supported_factorize(f, 2.0, w, 0.5, 1.0, k=8, bump_order=2.0)
        assert res.residual < 1e-7
        sup_g = float(np.abs(res.g.values).max())
        assert res.outside_support_mass <= 1e-6 * sup_g
        for xi in res.mu:
            assert res.mu[xi] > 0.0
            assert res.mu[xi] >= res.mu_bounds[xi] - 1e-8

    def test_blocks_are_hermitian_psd(self, t1):
        grid = haar_quadrature(t1, 128)
        f = poisson_function(t1, grid, 1.0)
        res = supported_factorize(f, 2.0, gevrey_weight(0.5), 0.5, 1.0, k=8)
        for s in res.S:
            assert np.abs(s - s.conj().T).max() < 1e-14
            assert np.min(np.linalg.eigvalsh(s)) >= -1e-12

    def test_quasianalytic_weight_rejected(self, t1):
        grid = haar_quadrature(t1, 64)
        f = poisson_function(t1, grid, 1.0)
        with pytest.raises(QuasianalyticError):
            supported_factorize(f, 2.0, gevrey_weight(1.0), 0.5, 1.0, k=8)

    def test_conditioning_error_reports_block(self, t1):
        # gevrey(0.9) decays so fast across L = 256 that the highest blocks of
        # S drop below the singularity floor
        grid = haar_quadrature(t1, 256)
        f = poisson_function(t1, grid, 1.0)
        with pytest.raises(ConditioningError) as err:
            supported_factorize(f, 2.0, gevrey_weight(0.9), 0.5, 1.0, k=8)
        assert err.value.xi is not None

    def test_vector_valued_target(self, t1, rng):
        grid = haar_quadrature(t1, 128)
        f = random_bandlimited(t1, grid, rng, value_dim=2, decay=1.0)
        res = supported_factorize(f, 2.0, gevrey_weight(0.5), 0.5, 1.0, k=8)
        assert res.residual < 1e-7
        assert res.f_prime.value_dim == 2

    def test_one_transform_for_the_pieces_and_one_for_f(self, t1, monkeypatch):
        calls = []
        monkeypatch.setattr(factorize, "forward",
                            lambda f, *a: calls.append(f.value_dim) or forward(f, *a))
        grid = haar_quadrature(t1, 64)
        supported_factorize(poisson_function(t1, grid, 1.0), 2.0, gevrey_weight(0.5),
                            0.5, 1.0, k=8)
        assert sorted(calls) == [1, 8]

    def test_S_bit_equal_to_per_piece_sum(self, t1):
        grid = haar_quadrature(t1, 128)
        w = gevrey_weight(0.5)
        res = supported_factorize(poisson_function(t1, grid, 1.0), 2.0, w, 0.5, 1.0, k=8)
        psis = build_partition(2.0, 8, 2.0, w, 1.0, grid)
        per_piece = [forward(GridFunction(t1, grid, p)).blocks[0][:, 0] for p in psis.values.T]
        assert np.array_equal(res.S, sum(a.conj().transpose(0, 2, 1) @ a for a in per_piece))

    def test_exponent_validation(self, t1):
        f = poisson_function(t1, haar_quadrature(t1, 64), 1.0)
        for h, h_prime in ((0.0, 1.0), (0.5, 0.5)):
            with pytest.raises(ParameterError):
                supported_factorize(f, 2.0, gevrey_weight(0.5), h, h_prime, k=8)

    @pytest.mark.parametrize("h,h_prime,message", [
        (float("nan"), 1.0, "h must"), (float("inf"), None, "h must"),
        (0.5, float("nan"), "h' must"), (0.5, float("inf"), "h' must")])
    def test_non_finite_exponent_rejected(self, t1, h, h_prime, message):
        f = poisson_function(t1, haar_quadrature(t1, 16), 1.0)
        with pytest.raises(ParameterError, match=message):
            strong_factorize(f, gevrey_weight(1.0), h, h_prime)

    @pytest.mark.parametrize("delta", [float("nan"), float("inf")])
    @pytest.mark.parametrize("k", [None, 8])
    def test_non_finite_delta_rejected(self, t1, delta, k):
        f = poisson_function(t1, haar_quadrature(t1, 64), 1.0)
        with pytest.raises(DomainError, match="delta"):
            supported_factorize(f, delta, gevrey_weight(0.5), 0.5, 1.0, k=k)

    def test_wrong_group_rejected(self, su2, rng):
        grid = haar_quadrature(su2, 2)
        f = random_bandlimited(su2, grid, rng)
        with pytest.raises(Exception):
            supported_factorize(f, 2.0, gevrey_weight(0.5), 0.5, 1.0, k=8)
