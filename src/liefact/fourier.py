"""Group Fourier transform, inversion, Parseval, convolution, involution.

A function f : G -> C^m is held by its samples on a Haar quadrature grid
exact to a band limit L; samples and grid fix both m and L, so neither is
a separate parameter.  Its forward transform lives on the dual truncated at L:

    F f(xi) = sum_nodes weight * f(x) (x) xi(x)      in C^m (x) L(H_xi),

an (m, d, d) tensor per dual index.  Inversion:

    f(x) = sum_xi d_xi Tr[xi(x)^* o T_xi]            (trace per C^m slice).

Convolution (chi * f)(x) = int chi(y) f(y^-1 x) dy turns into slice-wise
left composition F(chi)(xi) o F(f)(xi), and the involution
psi^*(x) = conj(psi(x^-1)) into the Hermitian adjoint of the coefficients.

Everything is computed by quadrature on grids that are exact for products of
band-limited factors, so forward/inverse are mutually inverse on band-limited
inputs up to roundoff.  This module names no group: ``forward`` and
``inverse`` check the band limits (an integer, ``groups.checked_bandlimit``)
and hand the samples or blocks to the group's ``forward_blocks`` /
``inverse_values`` (see ``groups``), and ``evaluate`` hands the points to
its third transform hook, ``evaluate_values``, which reads the family as one
trigonometric sum in the coordinates.  On SU(2) all three read d^l(beta)
through the cached Delta = d(pi/2) levels and share one per-degree fold, so
no Wigner table is stored and no recursion runs at the points.  A family and
a grid, or two families, on different groups are refused with
``ParameterError`` before any group call.  The nested quadrature oracle
composes y^-1 x by the group's element arithmetic.

Coefficients are packed: a family holds one complex (count, m, d, d) block
per distinct irrep dimension d, laid out by ``groups.dual_layout``, so
diagonal multipliers, norms and compositions are array expressions over the
blocks.  The blocks are the only coefficient path inside the library;
``entries`` is a writable xi -> (m, d, d) view of them, kept for outside
callers.
"""

from __future__ import annotations

from collections.abc import MutableMapping

import numpy as np

from .errors import BandlimitMismatchError, DomainError, ParameterError
from .groups import DualIndex, DualLayout, QuadratureGrid, checked_bandlimit, dual_layout

# points y^-1 x that ``convolve_by_quadrature`` evaluates per batch
_ORACLE_BATCH_POINTS = 4096


class GridFunction:
    """Samples of f : G -> C^m on a Haar quadrature grid.

    The samples and the grid fix everything else: ``group`` must be the
    grid's, ``value_dim`` is the number of value columns and the band limit
    is the grid's, since the grid's quadrature is exact exactly there.
    """

    def __init__(self, group, grid: QuadratureGrid, values):
        values = np.asarray(values, dtype=complex)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2 or values.shape[0] != grid.size:
            raise DomainError("values must be one row of C^m per grid node")
        if group != grid.group:
            raise ParameterError(f"a grid on {grid.group} cannot carry a function on {group}")
        self.group, self.grid, self.values = group, grid, values
        self.value_dim = values.shape[1]

    @property
    def scalar_values(self) -> np.ndarray:
        if self.value_dim != 1:
            raise DomainError("scalar_values requires value_dim == 1")
        return self.values[:, 0]

    def l2_norm_sq(self) -> float:
        return float(self.grid.integrate(np.abs(self.values) ** 2).sum())


class _BlockEntries(MutableMapping):
    """xi -> the (m, d, d) view of its block; assignment writes through.

    It holds the blocks and the layout, never the family: a reference back
    would keep every dropped family alive until the cycle collector runs.
    """

    def __init__(self, blocks: tuple, layout: DualLayout):
        self._blocks, self._layout = blocks, layout

    def __getitem__(self, xi: DualIndex) -> np.ndarray:
        i = self._layout.index([xi.label])[0]
        if i < 0:
            raise KeyError(xi)
        return self._blocks[self._layout.block[i]][self._layout.slot[i]]

    def __setitem__(self, xi: DualIndex, value) -> None:
        view = self[xi]
        if np.shape(value) != view.shape:
            raise DomainError(f"entry for {xi.label} must have shape {view.shape}")
        view[...] = value

    def __delitem__(self, xi: DualIndex) -> None:
        raise DomainError("coefficient family must cover the whole truncated dual")

    def __iter__(self):
        return iter(self._layout.duals)

    def __len__(self) -> int:
        return len(self._layout.duals)


class FourierCoefficients:
    """Truncated family (T_xi) of (m, d_xi, d_xi) tensors over the dual.

    Every dual index within the band limit is present (zero tensors are
    fine); transforms rely on the family being complete.  ``blocks`` holds
    one (count, m, d, d) array per dimension, laid out by
    ``dual_layout(group, bandlimit)``; ``value_dim`` is read from them.
    """

    def __init__(self, group, bandlimit: int, blocks):
        self.group, self.bandlimit = group, checked_bandlimit(bandlimit)
        self.layout = dual_layout(group, self.bandlimit)
        self.blocks = tuple(np.asarray(b, dtype=complex) for b in blocks)
        self.value_dim = self.blocks[0].shape[1] if self.blocks and self.blocks[0].ndim == 4 else 0
        if [b.shape for b in self.blocks] != [(len(idx), self.value_dim, d, d) for d, idx
                                              in zip(self.layout.dims, self.layout.members)]:
            raise DomainError("coefficient blocks do not match the dual layout")
        self.entries = _BlockEntries(self.blocks, self.layout)

    @classmethod
    def zeros(cls, group, bandlimit: int, value_dim: int = 1) -> "FourierCoefficients":
        layout = dual_layout(group, checked_bandlimit(bandlimit))
        return cls(group, bandlimit, [
            np.zeros((len(idx), value_dim, d, d), dtype=complex)
            for d, idx in zip(layout.dims, layout.members)])

    @classmethod
    def diagonal(cls, group, bandlimit: int, c) -> "FourierCoefficients":
        """The scalar family T_xi = c_xi Id, c an array aligned with the dual order."""
        layout = dual_layout(group, checked_bandlimit(bandlimit))
        return cls(group, bandlimit, [
            c[idx, None, None, None] * np.eye(d, dtype=complex)
            for d, idx in zip(layout.dims, layout.members)])

    @property
    def duals(self) -> tuple[DualIndex, ...]:
        return self.layout.duals

    def scaled(self, c) -> "FourierCoefficients":
        """The family c_xi T_xi, c an array aligned with the dual order."""
        return FourierCoefficients(self.group, self.bandlimit, [
            c[idx, None, None, None] * b for idx, b in zip(self.layout.members, self.blocks)])

    def hs_norms(self) -> np.ndarray:
        """Hilbert-Schmidt norm per dual index, maximized over the m slices; a
        slice whose squares pass the float range is summed by ``hypot``."""
        out = np.empty(len(self.layout.labels))
        for idx, b in zip(self.layout.members, self.blocks):
            a = np.abs(b)
            with np.errstate(over="ignore"):
                norms = np.sqrt(np.sum(a ** 2, axis=(2, 3)))
            over = np.isinf(norms)
            norms[over] = np.hypot.reduce(a[over].reshape(-1, a.shape[-1] ** 2), axis=1)
            out[idx] = np.max(norms, axis=1)
        return out


# ---------------------------------------------------------------------------
# forward / inverse
# ---------------------------------------------------------------------------


def forward(f: GridFunction, bandlimit: int | None = None) -> FourierCoefficients:
    """Group Fourier transform on the truncated dual.

    The grid must be exact at the requested band limit (precondition).
    """
    L = f.grid.bandlimit if bandlimit is None else checked_bandlimit(bandlimit)
    if L > f.grid.bandlimit:
        raise BandlimitMismatchError(
            f"grid is exact to L = {f.grid.bandlimit}, requested {L}"
        )
    return FourierCoefficients(f.group, L, f.group.forward_blocks(f.grid, f.values, L))


def inverse(T: FourierCoefficients, grid: QuadratureGrid | None = None) -> GridFunction:
    """Fourier inversion f(x) = sum_xi d_xi Tr[xi(x)^* o T_xi] on a grid."""
    if grid is None:
        grid = T.group.haar_quadrature(T.bandlimit)
    if grid.group != T.group:
        raise ParameterError(f"a grid on {grid.group} cannot carry a family on {T.group}")
    if grid.bandlimit < T.bandlimit:
        raise BandlimitMismatchError("grid cannot represent the coefficient band limit")
    return GridFunction(T.group, grid, T.group.inverse_values(grid, T.blocks, T.bandlimit))


def evaluate(T: FourierCoefficients, points) -> np.ndarray:
    """Evaluate the inverse transform at arbitrary group elements.

    Returns an (n_points, m) array: exact (up to roundoff) band-limited
    interpolation, usable off the quadrature grid, by the group's
    ``evaluate_values``.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return T.group.evaluate_values(pts, T.blocks, T.bandlimit)


# ---------------------------------------------------------------------------
# Parseval, convolution, involution
# ---------------------------------------------------------------------------


def parseval_defect(f: GridFunction) -> float:
    """Relative defect |  ||f||_2^2 - sum_xi d_xi ||F f(xi)||_HS^2  |."""
    T = forward(f)
    lhs = f.l2_norm_sq()
    rhs = float(sum(d * np.sum(np.abs(b) ** 2) for d, b in zip(T.layout.dims, T.blocks)))
    return abs(lhs - rhs) / max(lhs, 1e-300)


def compose(A: FourierCoefficients, Bc: FourierCoefficients) -> FourierCoefficients:
    """Slice-wise composition (A_xi o B_xi): scalar left factor acting on C^m slices."""
    if A.value_dim != 1:
        raise ParameterError("left factor of a composition must be scalar-valued")
    if A.group != Bc.group:
        raise ParameterError("composition factors must live on the same group")
    if A.bandlimit != Bc.bandlimit:
        raise BandlimitMismatchError(
            f"composition factors have band limits {A.bandlimit} and {Bc.bandlimit}")
    blocks = [np.einsum("nab,nvbc->nvac", a[:, 0], b) for a, b in zip(A.blocks, Bc.blocks)]
    return FourierCoefficients(A.group, A.bandlimit, blocks)


def convolve(chi: GridFunction, f: GridFunction) -> GridFunction:
    """(chi * f)(x) = int chi(y) f(y^-1 x) dy via coefficient composition,
    at the band limit of the coarser of the two grids, sampled on f's grid."""
    if chi.group != f.group:
        raise ParameterError("convolution factors must live on the same group")
    if chi.value_dim != 1:
        raise ParameterError("the left convolution factor must be scalar-valued")
    L = min(chi.grid.bandlimit, f.grid.bandlimit)
    prod = compose(forward(chi, L), forward(f, L))
    return inverse(prod, f.grid)


def convolve_by_quadrature(chi: GridFunction, f: GridFunction) -> GridFunction:
    """Direct nested-quadrature convolution (oracle; quadratic in grid size).

    Evaluates f at y^-1 x for a batch of translates y at a time, as many as
    fit in ``_ORACLE_BATCH_POINTS`` points (at least one), so the memory it
    holds is bounded by the batch, not by the number of translates.
    """
    if chi.value_dim != 1:
        raise ParameterError("the left convolution factor must be scalar-valued")
    group, grid = f.group, f.grid
    Tf = forward(f)
    wchi = chi.grid.weights * chi.scalar_values
    out = np.zeros((grid.size, f.value_dim), dtype=complex)
    block = max(1, _ORACLE_BATCH_POINTS // grid.size)
    for start in range(0, chi.grid.size, block):
        ys = chi.grid.nodes[start:start + block]
        pts = group.multiply(group.inverse_element(ys)[:, None], grid.nodes)  # y^-1 x
        vals = evaluate(Tf, pts.reshape(-1, group.dim)).reshape(len(ys), grid.size, -1)
        out += np.einsum("y,yxv->xv", wchi[start:start + block], vals)
    return GridFunction(group, grid, out)


def conv_theorem_defect(chi: GridFunction, f: GridFunction) -> float:
    """Max HS distance between F(chi *_quad f)(xi) and F(chi)(xi) o F(f)(xi)."""
    direct = forward(convolve_by_quadrature(chi, f))
    composed = compose(forward(chi, direct.bandlimit), forward(f, direct.bandlimit))
    diff = FourierCoefficients(direct.group, direct.bandlimit,
                               [a - b for a, b in zip(direct.blocks, composed.blocks)])
    return float(np.max(diff.hs_norms()))


def involution(psi: GridFunction) -> GridFunction:
    """psi^*(x) = conj(psi(x^-1)); F(psi^*)(xi) is the adjoint of F(psi)(xi)."""
    if psi.value_dim != 1:
        raise ParameterError("the involution acts on scalar functions")
    perm = psi.grid.inversion_permutation
    return GridFunction(psi.group, psi.grid, psi.values[perm].conj())

