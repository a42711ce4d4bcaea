"""The small-d recursion against the explicit factorial sum formula."""

from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb, cos, factorial, sin, sqrt
import tracemalloc

import numpy as np
import pytest

import liefact._wigner
from liefact._wigner import wigner_d_half_pi, wigner_d_matrices
from liefact.groups import DualIndex, SU2


def wigner_d_sum(two_j, two_mp, two_m, beta):
    """Classical sum formula for d^j_{m'm}(beta) (oracle, factorial form)."""
    j, mp, m = two_j / 2, two_mp / 2, two_m / 2
    c, s = cos(beta / 2), sin(beta / 2)
    kmin = max(0, int(round(m - mp)))
    kmax = min(int(round(j + m)), int(round(j - mp)))
    total = 0.0
    for k in range(kmin, kmax + 1):
        num = sqrt(
            factorial(int(round(j + m))) * factorial(int(round(j - m)))
            * factorial(int(round(j + mp))) * factorial(int(round(j - mp)))
        )
        den = (
            factorial(int(round(j + m - k))) * factorial(k)
            * factorial(int(round(j - k - mp))) * factorial(int(round(k - m + mp)))
        )
        total += (
            (-1.0) ** (k + int(round(mp - m)))
            * num / den
            * c ** int(round(2 * j - 2 * k + m - mp))
            * s ** int(round(2 * k - m + mp))
        )
    return total


def test_recursion_matches_sum_formula():
    rng = np.random.default_rng(5)
    betas = rng.uniform(0.01, np.pi - 0.01, 6)
    mats = list(wigner_d_matrices(8, betas))
    for two_l in range(9):
        d = two_l + 1
        for bi, beta in enumerate(betas):
            for i in range(d):
                for j in range(d):
                    ref = wigner_d_sum(two_l, two_l - 2 * i, two_l - 2 * j, beta)
                    assert mats[two_l][bi, i, j] == pytest.approx(ref, abs=1e-12)


def test_wide_batch_matches_sum_formula_and_symmetries():
    # every level is built for the whole batch at once, so check a wide
    # batch that includes both endpoints
    rng = np.random.default_rng(11)
    betas = np.concatenate([[0.0, np.pi], rng.uniform(0.0, np.pi, 62)])
    mats = list(wigner_d_matrices(64, betas))
    for two_l in range(13):
        d = two_l + 1
        for bi, beta in enumerate(betas):
            ref = np.array([
                [wigner_d_sum(two_l, two_l - 2 * i, two_l - 2 * j, beta) for j in range(d)]
                for i in range(d)
            ])
            assert np.abs(mats[two_l][bi] - ref).max() < 1e-12
    # d^l_{m'm} = (-1)^{m-m'} d^l_{mm'} = d^l_{-m,-m'}; m - m' = i - j
    d64 = mats[64]
    k = np.arange(65)
    sign = (-1.0) ** (k[:, None] - k[None, :])
    assert np.abs(d64 - sign * d64.transpose(0, 2, 1)).max() < 1e-13
    assert np.abs(d64 - d64[:, ::-1, ::-1].transpose(0, 2, 1)).max() < 1e-13


def test_half_spin_matrix():
    beta = 0.8
    d = list(wigner_d_matrices(1, np.array([beta])))[1][0]
    c, s = cos(beta / 2), sin(beta / 2)
    assert np.allclose(d, [[c, -s], [s, c]], atol=1e-15)


def test_spin_one_closed_form():
    beta = 1.3
    d = list(wigner_d_matrices(2, np.array([beta])))[2][0]
    c, s = cos(beta), sin(beta)
    ref = np.array(
        [
            [(1 + c) / 2, -s / sqrt(2), (1 - c) / 2],
            [s / sqrt(2), c, -s / sqrt(2)],
            [(1 - c) / 2, s / sqrt(2), (1 + c) / 2],
        ]
    )
    assert np.allclose(d, ref, atol=1e-14)


def test_orthogonality_stable_to_high_degree():
    mats = list(wigner_d_matrices(256, np.array([0.3, 1.1, 2.8])))
    for two_l in (64, 128, 256):
        for d in mats[two_l]:
            assert np.abs(d @ d.T - np.eye(two_l + 1)).max() < 1e-11


def test_identity_angle():
    mats = list(wigner_d_matrices(6, np.array([0.0])))
    for two_l in range(7):
        assert np.allclose(mats[two_l][0], np.eye(two_l + 1), atol=1e-14)


def test_full_matrix_phases():
    # D^l = diag(e^{-i m' a}) d^l(b) diag(e^{-i m g}) with m decreasing
    a, b, g = 0.7, 1.2, 2.9
    D = SU2().irrep_matrix(DualIndex(label=2, dim=3, casimir=2.0), [a, b, g])
    d = list(wigner_d_matrices(2, np.array([b])))[2][0]
    ms = np.array([1.0, 0.0, -1.0])
    ref = np.exp(-1j * ms[:, None] * a) * d * np.exp(-1j * ms[None, :] * g)
    assert np.allclose(D, ref, atol=1e-14)


def test_levels_stream_in_bounded_memory():
    # the generator keeps only the level below the one it builds, so
    # consuming it level by level peaks near four top levels (the one kept,
    # the one being built and the temporaries of one step; 3.9 when
    # measured); the list of every level would take 11.5
    betas = np.random.default_rng(3).uniform(0.0, np.pi, 256)
    top = 256 * 33 * 33 * 8
    every_level = sum(256 * d * d * 8 for d in range(1, 34))
    tracemalloc.start()
    try:
        for two_l, d in enumerate(wigner_d_matrices(32, betas)):
            assert d.shape == (256, two_l + 1, two_l + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert two_l == 32
    assert peak < 6 * top < every_level


def test_yielded_levels_are_read_only():
    for d in wigner_d_matrices(5, np.array([0.4, 2.0])):
        with pytest.raises(ValueError):
            d[0, 0, 0] = 1.0


def test_irrep_matrices_match_sum_formula_with_phases():
    # D^l = diag(e^{-i m' a}) d_sum(b) diag(e^{-i m g}) with d from the factorial
    # sum formula: an oracle that shares no code with SU2.irrep_matrices
    rng = np.random.default_rng(17)
    su2 = SU2()
    pts = np.array([su2.random_element(rng) for _ in range(8)]
                   + [[0.4, 0.0, 2.1], [1.7, np.pi, 0.3], [5.0, np.pi, 11.0]])
    for two_l in range(9):
        xi = DualIndex(label=two_l, dim=two_l + 1, casimir=two_l * (two_l + 2) / 4.0)
        two_ms = np.arange(two_l, -two_l - 1, -2)
        for (a, b, g), got in zip(pts, su2.irrep_matrices(xi, pts)):
            d = np.array([[wigner_d_sum(two_l, mp, m, b) for m in two_ms] for mp in two_ms])
            ref = np.exp(-0.5j * two_ms[:, None] * a) * d * np.exp(-0.5j * two_ms * g)
            assert np.abs(got - ref).max() < 1e-12


def test_levels_hold_the_signed_mirror_identity():
    # d^l_{-m',-m} = (-1)^{m'-m} d^l_{m'm} on the whole level: the recursion
    # builds every row, so the mirror is a property of the result, not its
    # construction (4.4e-16 at most when measured)
    rng = np.random.default_rng(23)
    betas = np.concatenate([[0.0, np.pi], rng.uniform(0.0, np.pi, 30)])
    for two_l, level in enumerate(wigner_d_matrices(64, betas)):
        assert level.shape == (len(betas), two_l + 1, two_l + 1)
        k = np.arange(two_l + 1)
        sign = 1 - 2 * ((k[:, None] - k) % 2)  # (-1)^{m'-m} = (-1)^{i-j} on indices
        assert np.abs(level[:, ::-1, ::-1] - sign * level).max() <= 2e-15


def _exact_d(two_l, c, s):
    """d^l(beta) at rational (c, s) = (cos beta/2, sin beta/2), c^2 + s^2 = 1,
    rows and columns m = l..-l, as floats: the factorial sum formula

        d^l_{m'm} = sqrt((l+m')!(l-m')! / ((l+m)!(l-m)!))
                    sum_k (-1)^{k+m'-m} C(l+m, k) C(l-m, k-m+m') c^{2l-2k+m-m'} s^{2k-m+m'}

    with the sum in exact Fraction arithmetic and the square root in Decimal
    at 60 digits: an oracle that shares no arithmetic with the recursion."""
    out = np.empty((two_l + 1, two_l + 1))
    with localcontext() as ctx:
        ctx.prec = 60
        for i in range(two_l + 1):  # row: l + m' = two_l - i, l - m' = i
            for j in range(two_l + 1):  # column: l + m = two_l - j, l - m = j
                total = sum(
                    (-1) ** (k + j - i) * comb(two_l - j, k) * comb(j, k + j - i)
                    * c ** (two_l - 2 * k + i - j) * s ** (2 * k + j - i)
                    for k in range(max(0, i - j), min(two_l - j, i) + 1))
                ratio = Decimal(factorial(two_l - i) * factorial(i)) / (
                    factorial(two_l - j) * factorial(j))
                out[i, j] = float(Decimal(total.numerator) / total.denominator * ratio.sqrt())
    return out


@pytest.mark.parametrize("c, s", [(Fraction(3, 5), Fraction(4, 5)),
                                  (Fraction(12, 13), Fraction(5, 13))])
def test_level_64_matches_the_exact_sum_formula(c, s):
    # every entry of level 2l = 64 at a Pythagorean half-angle, against the
    # exact sum: 5.0e-16 and 1.2e-15 when measured
    beta = 2.0 * np.arctan2(float(s), float(c))
    *_, level = wigner_d_matrices(64, beta)
    assert np.abs(level[0] - _exact_d(64, c, s)).max() <= 2e-15


def test_levels_do_not_depend_on_the_batch():
    # every entry is computed per angle, so a level on a batch of 64 betas
    # (0 and pi included) is the levels of its betas one at a time, bit for bit
    rng = np.random.default_rng(29)
    betas = np.concatenate([[0.0, np.pi], rng.uniform(0.0, np.pi, 62)])
    singles = [list(wigner_d_matrices(64, beta)) for beta in betas]
    for two_l, level in enumerate(wigner_d_matrices(64, betas)):
        assert np.array_equal(level, np.concatenate([one[two_l] for one in singles]))


def _through_half_pi(two_l, two_l_max, betas):
    """d^l(beta) on a batch of betas as i^{m-m'} sum_k D_{km'} D_{km} e^{ik beta},
    D = d^l(pi/2) from the tables cached at two_l_max; rows and columns m = l..-l."""
    D = wigner_d_half_pi(two_l_max)[two_l]
    i = np.arange(two_l + 1)
    k = (two_l - 2 * i) / 2.0
    ipow = np.array([1, 1j, -1, -1j])[(i[:, None] - i) % 4]  # m - m' = i - j at (i, j)
    terms = (D[:, :, None] * D[:, None, :]).reshape(two_l + 1, -1)  # (k, m' m)
    return ipow * (np.exp(1j * np.outer(betas, k)) @ terms).reshape(-1, two_l + 1, two_l + 1)


def test_half_pi_factorization_matches_sum_formula():
    # Risbo's factorization through Delta = d(pi/2) against the factorial sum
    # formula, which shares no code with the recursion that builds Delta
    rng = np.random.default_rng(31)
    betas = np.concatenate([[0.0, np.pi / 2, np.pi], rng.uniform(0.0, np.pi, 5)])
    for two_l in range(17):
        got = _through_half_pi(two_l, 16, betas)
        two_ms = np.arange(two_l, -two_l - 1, -2)
        for beta, mat in zip(betas, got):
            ref = np.array([[wigner_d_sum(two_l, mp, m, beta) for m in two_ms] for mp in two_ms])
            assert np.abs(mat - ref).max() < 1e-12


def test_half_pi_factorization_matches_the_recursion_at_desk_scale():
    # on the 130 Gauss-Legendre betas of the L = 64 grid, 2l <= 64: 3.6e-14
    # at 2l = 64 when measured
    betas = np.arccos(np.polynomial.legendre.leggauss(130)[0])
    for two_l, level in enumerate(wigner_d_matrices(64, betas)):
        assert np.abs(_through_half_pi(two_l, 64, betas) - level).max() <= 1e-13


def test_half_pi_tables_are_cached_and_read_only(monkeypatch):
    # one table: every read shares its level objects, and a read past the top
    # grows the table and keeps the levels it had
    monkeypatch.setattr(liefact._wigner, "_HALF_PI", ())
    tables = wigner_d_half_pi(8)
    assert len(tables) == 9
    assert all(a is b for a, b in zip(wigner_d_half_pi(8), tables))
    grown = wigner_d_half_pi(12)
    assert len(grown) == 13 and all(a is b for a, b in zip(grown, tables))
    assert [t.shape for t in tables] == [(d, d) for d in range(1, 10)]
    for t in tables:
        with pytest.raises(ValueError):
            t[0, 0] = 1.0
