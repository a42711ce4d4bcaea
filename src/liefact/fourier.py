"""Group Fourier transform, inversion, Parseval, convolution, involution.

Forward transform of f : G -> C^m on a truncated dual (band limit L):

    F f(xi) = sum_nodes weight * f(x) (x) xi(x)      in C^m (x) L(H_xi),

stored as an (m, d, d) tensor per dual index.  Inversion:

    f(x) = sum_xi d_xi Tr[xi(x)^* o T_xi]            (trace per C^m slice).

Convolution (chi * f)(x) = int chi(y) f(y^-1 x) dy turns into slice-wise
left composition F(chi)(xi) o F(f)(xi), and the involution
psi^*(x) = conj(psi(x^-1)) into the Hermitian adjoint of the coefficients.

Everything is computed by quadrature on grids that are exact for products of
band-limited factors, so forward/inverse are mutually inverse on band-limited
inputs up to roundoff.  On the uniform torus grid (n points per axis) the
quadrature is numpy.fft read at k mod n.  SU(2) contracts the uniform
alpha/gamma axes of its product grid with exact DFT matrices, then runs one
Wigner-d contraction in beta.
"""

from __future__ import annotations

import numpy as np

from ._wigner import wigner_d_matrices
from .errors import BandlimitMismatchError, DomainError, ParameterError
from .groups import DualIndex, QuadratureGrid, Torus


class GridFunction:
    """Samples of f : G -> C^m on a Haar quadrature grid."""

    def __init__(self, group, grid: QuadratureGrid, values, value_dim: int | None = None,
                 bandlimit: int | None = None):
        values = np.asarray(values, dtype=complex)
        if values.ndim == 1:
            values = values[:, None]
        if values.shape[0] != grid.size:
            raise DomainError("value count must equal node count")
        self.group = group
        self.grid = grid
        self.values = values
        self.value_dim = value_dim if value_dim is not None else values.shape[1]
        if values.shape[1] != self.value_dim:
            raise DomainError("value_dim inconsistent with values array")
        # declared content band limit; defaults to what the grid can represent
        self.bandlimit = grid.bandlimit if bandlimit is None else int(bandlimit)

    @classmethod
    def from_callable(cls, group, grid: QuadratureGrid, fn, value_dim: int = 1,
                      bandlimit: int | None = None) -> "GridFunction":
        vals = np.asarray(fn(grid.nodes), dtype=complex)
        if vals.ndim == 1:
            vals = vals[:, None]
        return cls(group, grid, vals, value_dim=value_dim, bandlimit=bandlimit)

    @property
    def scalar_values(self) -> np.ndarray:
        if self.value_dim != 1:
            raise DomainError("scalar_values requires value_dim == 1")
        return self.values[:, 0]

    def sup_norm(self) -> float:
        """sup over nodes of the max-norm on C^m."""
        if self.values.size == 0:
            return 0.0
        return float(np.max(np.abs(self.values)))

    def l2_norm_sq(self) -> float:
        return float(np.sum(self.grid.weights[:, None] * np.abs(self.values) ** 2))


class FourierCoefficients:
    """Truncated family (T_xi) of (m, d_xi, d_xi) tensors over the dual.

    Every dual index within the band limit must be present (zero tensors are
    fine); transforms rely on the family being complete.
    """

    def __init__(self, group, bandlimit: int, value_dim: int,
                 entries: dict[DualIndex, np.ndarray]):
        self.group = group
        self.bandlimit = int(bandlimit)
        self.value_dim = int(value_dim)
        self.entries = entries
        for xi, t in entries.items():
            if t.shape != (value_dim, xi.dim, xi.dim):
                raise DomainError(f"entry for {xi.label} has shape {t.shape}")
        expected = group.enumerate_dual(self.bandlimit)
        if len(entries) != len(expected) or any(xi not in entries for xi in expected):
            raise DomainError("coefficient family must cover the whole truncated dual")

    @classmethod
    def zeros(cls, group, bandlimit: int, value_dim: int = 1) -> "FourierCoefficients":
        entries = {
            xi: np.zeros((value_dim, xi.dim, xi.dim), dtype=complex)
            for xi in group.enumerate_dual(bandlimit)
        }
        return cls(group, bandlimit, value_dim, entries)

    def matrix(self, xi: DualIndex) -> np.ndarray:
        """The d x d matrix at xi (value_dim 1 only)."""
        if self.value_dim != 1:
            raise DomainError("matrix() requires value_dim == 1")
        return self.entries[xi][0]

    def duals(self) -> list[DualIndex]:
        return sorted(self.entries.keys(), key=lambda xi: (xi.casimir, str(xi.label)))

    def map_entries(self, fn) -> "FourierCoefficients":
        return FourierCoefficients(
            self.group, self.bandlimit, self.value_dim,
            {xi: fn(xi, t) for xi, t in self.entries.items()},
        )

    def hs_norms(self) -> dict[DualIndex, float]:
        """Hilbert-Schmidt norm per dual index, maximized over the m slices."""
        out = {}
        for xi, t in self.entries.items():
            out[xi] = float(np.max(np.sqrt(np.sum(np.abs(t) ** 2, axis=(1, 2)))))
        return out


# ---------------------------------------------------------------------------
# transform plans
# ---------------------------------------------------------------------------


def _torus_bins(grid: QuadratureGrid, duals: list[DualIndex]):
    """(n, index) of the FFT bins k mod n; n = 2L+2 > 2|k_i| keeps them distinct."""
    n = grid.axes["points_per_axis"]
    return n, tuple((np.array([xi.label for xi in duals]) % n).T)


def _su2_plan(grid: QuadratureGrid, bandlimit: int):
    key = ("su2_plan", bandlimit)
    if key not in grid._cache:
        B = grid.axes["B"]
        two_L = 2 * bandlimit
        two_mus = np.arange(-two_L, two_L + 1)  # twice the magnetic index
        phases = grid.axes["alphas"]
        betas = np.arccos(grid.axes["beta_u"])
        dmats = wigner_d_matrices(two_L, betas)  # list indexed by 2l: (B, d, d)
        E = np.exp(-0.5j * np.outer(phases, two_mus))  # (2B, M)
        rows = {
            two_l: (two_l - np.arange(0, 2 * two_l + 1, 2)) + two_L
            for two_l in range(two_L + 1)
        }  # indices of m = l..-l within the two_mus axis
        grid._cache[key] = {
            "B": B,
            "two_mus": two_mus,
            "E": E,
            "dmats": dmats,
            "rows": rows,
            "beta_w": grid.axes["beta_w"] / 2.0,
            "wphase": 1.0 / (2 * B),
        }
    return grid._cache[key]


# ---------------------------------------------------------------------------
# forward / inverse
# ---------------------------------------------------------------------------


def forward(f: GridFunction, bandlimit: int | None = None) -> FourierCoefficients:
    """Group Fourier transform on the truncated dual.

    The grid must be exact at the requested band limit (precondition).
    """
    L = f.grid.bandlimit if bandlimit is None else int(bandlimit)
    if L > f.grid.bandlimit:
        raise BandlimitMismatchError(
            f"grid is exact to L = {f.grid.bandlimit}, requested {L}"
        )
    if isinstance(f.group, Torus):
        duals = f.group.enumerate_dual(L)
        n, bins = _torus_bins(f.grid, duals)
        d = f.group.d
        samples = f.values.reshape((n,) * d + (f.value_dim,))
        coef = np.fft.fftn(samples, axes=tuple(range(d)))[bins] / n**d  # (n_dual, m)
        entries = {xi: coef[i].reshape(f.value_dim, 1, 1) for i, xi in enumerate(duals)}
        return FourierCoefficients(f.group, L, f.value_dim, entries)
    plan = _su2_plan(f.grid, L)
    B = plan["B"]
    m = f.value_dim
    vals = f.values.reshape(2 * B, B, 2 * B, m)
    EA = plan["E"] * plan["wphase"]  # (2B, M), weights folded in
    g1 = np.einsum("aM,abcv->Mbcv", EA, vals, optimize=True)
    g2 = np.einsum("cN,Mbcv->MbNv", EA, g1, optimize=True)
    entries = {}
    for xi in f.group.enumerate_dual(L):
        two_l = xi.label
        rows = plan["rows"][two_l]
        sub = g2[np.ix_(rows, np.arange(B), rows)]  # (d, B, d, m)
        dm = plan["dmats"][two_l]  # (B, d, d)
        entries[xi] = np.einsum("b,bij,ibjv->vij", plan["beta_w"], dm, sub, optimize=True)
    return FourierCoefficients(f.group, L, m, entries)


def inverse(T: FourierCoefficients, grid: QuadratureGrid | None = None) -> GridFunction:
    """Fourier inversion f(x) = sum_xi d_xi Tr[xi(x)^* o T_xi] on a grid."""
    if grid is None:
        grid = T.group.haar_quadrature(T.bandlimit)
    if grid.bandlimit < T.bandlimit:
        raise BandlimitMismatchError("grid cannot represent the coefficient band limit")
    if isinstance(T.group, Torus):
        duals = T.group.enumerate_dual(T.bandlimit)
        n, bins = _torus_bins(grid, duals)
        d, m = T.group.d, T.value_dim
        spec = np.zeros((n,) * d + (m,), dtype=complex)
        spec[bins] = np.stack([T.entries[xi][:, 0, 0] for xi in duals], axis=0)
        vals = np.fft.ifftn(spec, axes=tuple(range(d))) * n**d
        return GridFunction(T.group, grid, vals.reshape(-1, m), value_dim=m,
                            bandlimit=T.bandlimit)
    plan = _su2_plan(grid, T.bandlimit)
    B = plan["B"]
    M = len(plan["two_mus"])
    m = T.value_dim
    H = np.zeros((M, B, M, m), dtype=complex)
    for xi, t in T.entries.items():
        rows = plan["rows"][xi.label]
        dm = plan["dmats"][xi.label]
        H[np.ix_(rows, np.arange(B), rows)] += xi.dim * np.einsum(
            "bij,vij->ibjv", dm, t, optimize=True
        )
    Ec = plan["E"].conj()  # e^{+i mu alpha}
    tmp = np.einsum("aM,MbNv->abNv", Ec, H, optimize=True)
    vals = np.einsum("abNv,cN->abcv", tmp, Ec, optimize=True)
    return GridFunction(T.group, grid, vals.reshape(-1, m), value_dim=m,
                        bandlimit=T.bandlimit)


def evaluate(T: FourierCoefficients, points) -> np.ndarray:
    """Evaluate the inverse transform at arbitrary group elements.

    Returns an (n_points, m) array.  Exact (up to roundoff) band-limited
    interpolation, usable off the quadrature grid.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    m = T.value_dim
    out = np.zeros((len(pts), m), dtype=complex)
    # keep the per-chunk tables (chunk x sum d^2 entries) modest
    table_size = sum(xi.dim**2 for xi in T.entries)
    chunk = max(128, 4_000_000 // table_size)
    if isinstance(T.group, Torus):
        K = np.array([xi.label for xi in T.entries], dtype=float)
        coef = np.stack([t[:, 0, 0] for t in T.entries.values()])
        for start in range(0, len(pts), chunk):
            sl = slice(start, start + chunk)
            out[sl] = np.exp(1j * pts[sl] @ K.T) @ coef
        return out
    two_L = 2 * T.bandlimit
    for start in range(0, len(pts), chunk):
        sl = slice(start, start + chunk)
        p = pts[sl]
        dmats = wigner_d_matrices(two_L, p[:, 1])
        acc = np.zeros((len(p), m), dtype=complex)
        for xi, t in T.entries.items():
            two_l = xi.label
            two_ms = np.arange(two_l, -two_l - 1, -2)
            left = np.exp(0.5j * np.outer(p[:, 0], two_ms))
            right = np.exp(0.5j * np.outer(p[:, 2], two_ms))
            Dc = left[:, :, None] * dmats[two_l] * right[:, None, :]  # conj(D), d real
            acc += xi.dim * np.einsum("nij,vij->nv", Dc, t, optimize=True)
        out[sl] = acc
    return out


# ---------------------------------------------------------------------------
# Parseval, convolution, involution
# ---------------------------------------------------------------------------


def parseval_defect(f: GridFunction) -> float:
    """Relative defect |  ||f||_2^2 - sum_xi d_xi ||F f(xi)||_HS^2  |."""
    T = forward(f)
    lhs = f.l2_norm_sq()
    rhs = 0.0
    for xi, t in T.entries.items():
        rhs += xi.dim * float(np.sum(np.abs(t) ** 2))
    return abs(lhs - rhs) / max(lhs, 1e-300)


def compose(A: FourierCoefficients, Bc: FourierCoefficients) -> FourierCoefficients:
    """Slice-wise composition (A_xi o B_xi): scalar left factor acting on C^m slices."""
    if A.value_dim != 1:
        raise ParameterError("left factor of a composition must be scalar-valued")
    L = min(A.bandlimit, Bc.bandlimit)
    entries = {}
    for xi in A.group.enumerate_dual(L):
        entries[xi] = np.einsum("ab,vbc->vac", A.entries[xi][0], Bc.entries[xi])
    return FourierCoefficients(A.group, L, Bc.value_dim, entries)


def convolve(chi: GridFunction, f: GridFunction) -> GridFunction:
    """(chi * f)(x) = int chi(y) f(y^-1 x) dy via coefficient composition."""
    if chi.group != f.group:
        raise ParameterError("convolution factors must live on the same group")
    if chi.value_dim != 1:
        raise ParameterError("the left convolution factor must be scalar-valued")
    L = min(chi.bandlimit, f.bandlimit)
    prod = compose(forward(chi, L), forward(f, L))
    return inverse(prod, f.grid)


def convolve_by_quadrature(chi: GridFunction, f: GridFunction) -> GridFunction:
    """Direct nested-quadrature convolution (oracle; quadratic in grid size)."""
    if chi.value_dim != 1:
        raise ParameterError("the left convolution factor must be scalar-valued")
    group, grid = f.group, f.grid
    Tf = forward(f)
    wchi = chi.grid.weights * chi.scalar_values
    out = np.zeros((grid.size, f.value_dim), dtype=complex)
    nx = grid.size
    block = max(1, 200_000 // nx)
    if isinstance(group, Torus):
        for start in range(0, chi.grid.size, block):
            ys = chi.grid.nodes[start:start + block]
            pts = np.mod(grid.nodes[None, :, :] - ys[:, None, :], 2 * np.pi)
            vals = evaluate(Tf, pts.reshape(-1, group.coord_dim)).reshape(len(ys), nx, -1)
            out += np.einsum("y,yxv->xv", wchi[start:start + block], vals)
    else:
        mats_x = np.stack([group.defining_matrix(x) for x in grid.nodes])
        for start in range(0, chi.grid.size, block):
            ys = chi.grid.nodes[start:start + block]
            uinv = np.stack([group.defining_matrix(y) for y in ys]).conj().transpose(0, 2, 1)
            prod = np.einsum("yab,nbc->ynac", uinv, mats_x).reshape(-1, 2, 2)
            vals = evaluate(Tf, group.coords_from_matrices(prod)).reshape(len(ys), nx, -1)
            out += np.einsum("y,yxv->xv", wchi[start:start + block], vals)
    return GridFunction(group, grid, out, value_dim=f.value_dim, bandlimit=f.bandlimit)


def conv_theorem_defect(chi: GridFunction, f: GridFunction) -> float:
    """Max HS distance between F(chi *_quad f)(xi) and F(chi)(xi) o F(f)(xi)."""
    direct = forward(convolve_by_quadrature(chi, f))
    composed = compose(forward(chi, direct.bandlimit), forward(f, direct.bandlimit))
    worst = 0.0
    for xi in composed.entries:
        diff = direct.entries[xi] - composed.entries[xi]
        worst = max(worst, float(np.max(np.sqrt(np.sum(np.abs(diff) ** 2, axis=(1, 2))))))
    return worst


def involution(psi: GridFunction) -> GridFunction:
    """psi^*(x) = conj(psi(x^-1)); F(psi^*)(xi) is the adjoint of F(psi)(xi)."""
    if psi.value_dim != 1:
        raise ParameterError("the involution acts on scalar functions")
    perm = psi.grid.inversion_permutation
    return GridFunction(psi.group, psi.grid, psi.values[perm].conj(),
                        value_dim=1, bandlimit=psi.bandlimit)

