"""Concrete compact groups: the torus T^d (d = 1, 2) and SU(2).

Each group provides its unitary dual with dimensions and Casimir eigenvalues,
unitary matrix coefficients, group element arithmetic in explicit coordinates
(on arrays of elements, broadcasting), a Haar quadrature exact on
band-limited integrands, and the transform on that quadrature.

The dual and xi(x) live here only.  ``dual_layout`` is the one cache of a
truncated dual, read by ``enumerate_dual`` and every coefficient family;
``irrep_matrices`` builds one whole xi (``DomainError`` off the dual).  On
SU(2) one per-degree builder over the streamed Wigner levels makes the rows
m' >= 0 only (h = 2l//2 + 1), and ``irrep_matrices`` completes them by the
mirror xi_{-m',-m} = (-1)^{m'-m} conj(xi_{m'm}).

The transform is here too, and so is the grid layout: ``forward_blocks``,
``inverse_values`` and ``evaluate_values`` (at any points).  On the torus
they are numpy.fft read at k mod n and one product e^{ik.x} @ T.  On SU(2)
no stage holds a row m' < 0.  The forward runs the integer and the
half-integer spins apart (a degree 2l meets only the 2m of its own parity),
each on the rows m' >= 0 of f and of conj f as 2m value columns: the alpha
axis against that parity's columns of an exact DFT matrix E, the betas split
into two planes at beta < pi/2 and at pi - beta, the gamma axis against E,
then one Wigner-d matmul per degree on a contiguous reversed slice of both
planes; ``complete_level`` mirrors conj f's rows into the rows m' < 0 of
F(f).  The inverse is the forward's adjoint, stage by stage in reverse, and
it and ``evaluate_values`` first fold each block's rows m' < 0 onto its rows
m' > 0 (``_fold_level``).  The SU(2) grid covers the group once: alpha runs
over [0, 4pi) and gamma over [0, 2pi), since (alpha, beta, gamma) and
(alpha + 2pi, beta, gamma + 2pi) are one element.  E and the tables, the
plan, are read-only grid data built with the SU(2) grid.  The tables keep a
quarter of each Wigner level, the rows m' >= 0 at the betas below pi/2.  A
band limit L' below the grid's slices that one plan.

Coordinates and normalizations
------------------------------
* Torus: angle vectors with period 2*pi per axis.  The character labeled by
  k in Z^d is x |-> exp(-i k.x), so the forward transform of exp(3ix) on T^1
  is supported at k = 3 (the classical Fourier coefficient indexing).
  Casimir eigenvalue |k|^2.
* SU(2): ZYZ Euler angles (alpha, beta, gamma) with beta in [0, pi]; the
  alpha/gamma phases are 4*pi-periodic (half-integer spins).  The irrep with
  label 2l has dimension 2l+1, Casimir eigenvalue l(l+1), and its matrix is
  the Wigner-D matrix; at 2l = 1 it is the defining 2x2 matrix.  Elements
  compose through the defining representation (unit quaternions as 2x2
  unitaries), which keeps the ZYZ extraction stable at beta in {0, pi}.

The bi-invariant metric is normalized so those Casimir values are exactly the
(-Laplacian) eigenvalues; finite-difference checks in the spectral module pin
this down.  Haar quadratures are normalized to total mass 1.  Each group's
``validate_coords`` refuses non-finite coordinates (``DomainError``); every
xi(x), product, inverse and evaluation goes through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
import math

import numpy as np

from ._wigner import complete_level, wigner_d_matrices
from .errors import DomainError, ParameterError


@dataclass(frozen=True)
class DualIndex:
    """One unitary-equivalence class: label, dimension, Casimir eigenvalue."""

    label: tuple[int, ...] | int   # k-vector (torus) or 2l (su2)
    dim: int
    casimir: float


class DualLayout:
    """Dual order, eigenvalues and block positions of one truncated dual.

    Built from the group's arrays: ``labels`` (an (n, d) int array on T^d,
    the degrees 2l on SU(2)), ``dim`` and ``casimir``, all read-only and in
    dual order.  The labels fill an integer box row-major (k + L on T^d, 2l
    on SU(2)), so ``index`` (an array of labels) and ``position`` (one label)
    find positions by arithmetic.  Block b holds the duals of dimension
    ``dims[b]`` at positions ``members[b]``; position i sits at
    ``(block[i], slot[i])``.  ``wire`` lists the positions in the
    order every output format uses (by Casimir, then label text).  ``duals``,
    the ``DualIndex`` objects, is built on first access.
    """

    def __init__(self, labels: np.ndarray, dim: np.ndarray, casimir: np.ndarray):
        self.labels, self.dim, self.casimir = labels, dim, casimir
        self._lo = tuple(np.atleast_1d(labels[0]).tolist())
        self._side = tuple(np.atleast_1d(labels[-1] - labels[0] + 1).tolist())
        firsts = np.unique(dim, return_index=True)[1]
        self.dims = tuple(dim[np.sort(firsts)].tolist())
        self.members = tuple(np.flatnonzero(dim == d) for d in self.dims)
        self.block, self.slot = np.empty((2, len(dim)), dtype=int)
        for b, idx in enumerate(self.members):
            self.block[idx], self.slot[idx] = b, np.arange(len(idx))
        self.wire = np.lexsort((np.array([str(lab) for lab in self._label_objects()]), casimir))
        for arr in (self.labels, self.casimir, self.dim, self.block, self.slot, self.wire,
                    *self.members):
            arr.flags.writeable = False

    def _label_objects(self) -> list:
        """The labels as ``DualIndex`` holds them: int tuples on T^d, ints on SU(2)."""
        labels = self.labels.tolist()
        return list(map(tuple, labels)) if self.labels.ndim == 2 else labels

    @cached_property
    def duals(self) -> tuple[DualIndex, ...]:
        return tuple(map(DualIndex, self._label_objects(), self.dim.tolist(),
                         self.casimir.tolist()))

    def index(self, labels) -> np.ndarray:
        """The positions of an array of labels, -1 for a label outside this dual."""
        lab = np.asarray(labels)
        if lab.dtype.kind != "i" or lab.shape[1:] != self.labels.shape[1:]:
            return np.full(len(lab), -1)
        off = (lab - self._lo).reshape(len(lab), -1)
        inside = np.all((off >= 0) & (off < self._side), axis=1)
        pos = np.ravel_multi_index(tuple(np.where(inside[:, None], off, 0).T), self._side)
        return np.where(inside, pos, -1)

    def position(self, label) -> int:
        """The position of one label by the same arithmetic on Python ints (no
        array is built), -1 for a label outside this dual, of another arity,
        or with a component that is not an int."""
        try:
            key = tuple(label) if self.labels.ndim == 2 else (label,)
        except TypeError:
            return -1
        if len(key) != len(self._side):
            return -1
        pos = 0
        for k, lo, n in zip(key, self._lo, self._side):
            if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or not 0 <= k - lo < n:
                return -1
            pos = pos * n + int(k - lo)
        return pos


@lru_cache(maxsize=None)
def dual_layout(group, bandlimit: int) -> DualLayout:
    """The layout of ``group``'s dual at ``bandlimit``, shared by every family.

    The only cache of the dual: the group builds its arrays once.
    """
    if bandlimit < 1:
        raise DomainError("band limit must be >= 1")
    return DualLayout(*group.dual_arrays(bandlimit))


def _parity_slice(two_L: int, two_l: int) -> slice:
    """Rows m = l..-l of degree 2l on its parity's axis, every second 2m of
    -2L..2L from (2L + 2l) mod 2 (from p = 2l mod 2 when 2L is even): a
    basic slice falling from 2m = 2l."""
    top = (two_L + two_l) // 2
    bottom = top - two_l
    return slice(top, bottom - 1 if bottom else None, -1)


def _take(buf: np.ndarray, *shape: int) -> np.ndarray:
    """The first entries of a flat work buffer, as an array of ``shape``."""
    return buf[:math.prod(shape)].reshape(shape)


def _fold_level(level: np.ndarray) -> np.ndarray:
    """(2, ..., h, d) from a full (..., d, d) level X: its rows m' >= 0, and
    its rows m' < 0 moved onto them, (-1)^{m'-m} X_{-m',-m} in row m' > 0
    (zero in row m' = 0).  Up to the conjugate, ``complete_level`` undoes it."""
    d = level.shape[-1]
    h, k = (d + 1) // 2, np.arange(d)
    out = np.zeros((2,) + level.shape[:-2] + (h, d), dtype=level.dtype)
    out[0] = level[..., :h, :]
    out[1, ..., :d - h, :] = level[..., :h - 1:-1, ::-1] * (1 - 2 * ((k[:d - h, None] + k) % 2))
    return out


def _wigner_plan(phases: np.ndarray, betas: np.ndarray, two_L: int) -> dict:
    """The SU(2) transform plan to degree 2L on a product grid (the grid
    makes E read-only with its other axes; the tables are made read-only here).

    E[a, 2L + 2m] = e^{-i m alpha_a}.  ``betas`` are the grid's B
    Gauss-Legendre betas, falling from pi to 0 and symmetric about pi/2.
    A quarter of each Wigner level is kept, the rows m' >= 0 on the last
    B/2 betas (beta < pi/2): tables[2l][j, i, b] = d^l_{m_i m_j}(betas[B/2 + b])
    for i < 2l//2 + 1, the gamma index first like the phase-stage planes,
    whose degree view [s, -h:] (s from ``_parity_slice``) lines up with it
    entry by entry.  The transforms reach the other rows and betas by the
    two mirrors (``SU2.forward_blocks``).
    """
    E = np.exp(-0.5j * np.outer(phases, np.arange(-two_L, two_L + 1)))
    tables = []
    for upper in wigner_d_matrices(two_L, betas[len(betas) // 2:]):
        tables.append(np.ascontiguousarray(upper.transpose(2, 1, 0)))
        tables[-1].flags.writeable = False
    return {"E": E, "tables": tuple(tables)}


class _Group:
    """What T^d and SU(2) share: the dual and the grids read from their one
    cache each, and one xi(x) read from ``irrep_matrices``."""

    def enumerate_dual(self, bandlimit: int) -> list[DualIndex]:
        return list(dual_layout(self, int(bandlimit)).duals)

    def haar_quadrature(self, bandlimit: int) -> QuadratureGrid:
        return _haar_quadrature(self, int(bandlimit))

    def identity(self) -> np.ndarray:
        return np.zeros(self.dim)

    def irrep_matrix(self, xi: DualIndex, x) -> np.ndarray:
        return self.irrep_matrices(xi, np.asarray(x, float)[None, :])[0]


@lru_cache(maxsize=None)
def _haar_quadrature(group, bandlimit: int) -> QuadratureGrid:
    """The only cache of the grids: the group builds its rule once."""
    if bandlimit < 1:
        raise DomainError("band limit must be >= 1")
    return QuadratureGrid(group, bandlimit, *group._quadrature_rule(bandlimit))


class QuadratureGrid:
    """Nodes and weights of a Haar quadrature, exact to a declared band limit.

    Products of two matrix coefficients within ``bandlimit`` are integrated
    exactly (up to roundoff); the weights sum to 1.
    """

    def __init__(self, group, bandlimit: int, nodes: np.ndarray, weights: np.ndarray, axes: dict):
        self.group, self.bandlimit, self.nodes, self.weights = group, int(bandlimit), nodes, weights
        self.axes = axes
        # haar_quadrature is lru_cached, so every caller shares these arrays
        for arr in (nodes, weights, *axes.values()):
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False

    @property
    def size(self) -> int:
        return len(self.weights)

    @cached_property
    def inversion_permutation(self) -> np.ndarray:
        """Permutation p with nodes[p[i]] = nodes[i]^-1 (exact on these grids)."""
        perm = self.group._inversion_permutation(self)
        perm.flags.writeable = False  # shared like nodes and weights
        return perm

    def __repr__(self):
        return f"QuadratureGrid({self.group.spec_string()}, L={self.bandlimit}, {self.size} nodes)"


@dataclass(frozen=True)
class Torus(_Group):
    """The d-torus, d in {1, 2}."""

    d: int

    def __post_init__(self):
        if self.d not in (1, 2):
            raise DomainError("torus dimension must be 1 or 2")

    @property
    def dim(self) -> int:
        return self.d

    def spec_string(self) -> str:
        return f"t{self.d}"

    # -- dual -----------------------------------------------------------

    def dual_arrays(self, bandlimit: int):
        """(labels, dim, casimir) up to ``bandlimit``: k in [-L, L]^d row-major,
        dimension 1, |k|^2 (uncached)."""
        rng = np.arange(-bandlimit, bandlimit + 1)
        labels = np.stack(np.meshgrid(*[rng] * self.d, indexing="ij"), axis=-1).reshape(-1, self.d)
        return labels, np.ones(len(labels), dtype=int), np.sum(labels**2, axis=1).astype(float)

    def label_bandlimit(self, label):
        """Smallest L whose dual can hold ``label``: max |k_i| (an int; an array
        of them for an array of labels, taken over the last axis)."""
        need = np.abs(label).max(axis=-1)
        return need if need.ndim else int(need)

    # -- elements ---------------------------------------------------------

    def multiply(self, x, y) -> np.ndarray:
        return np.mod(self.validate_coords(x) + self.validate_coords(y), 2 * np.pi)

    def inverse_element(self, x) -> np.ndarray:
        return np.mod(-self.validate_coords(x), 2 * np.pi)

    def exp_step(self, k: int, t: float) -> np.ndarray:
        out = np.zeros(self.d)
        out[k] = t
        return out

    def random_element(self, rng) -> np.ndarray:
        return rng.uniform(0, 2 * np.pi, self.d)

    def validate_coords(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.d:
            raise DomainError(f"torus({self.d}) coordinates need {self.d} angles")
        if not np.all(np.isfinite(x)):
            raise DomainError("torus coordinates must be finite")
        return x

    # -- matrix coefficients ----------------------------------------------

    def irrep_matrices(self, xi: DualIndex, points: np.ndarray) -> np.ndarray:
        k = np.asarray(xi.label)
        if k.dtype.kind not in "iu" or k.shape != (self.d,):
            raise DomainError(f"{xi.label!r} is not a label of the t{self.d} dual")
        phases = np.exp(-1j * self.validate_coords(points) @ k)
        return phases[:, None, None]

    # -- quadrature and transform -------------------------------------------

    def _quadrature_rule(self, bandlimit: int):
        """(nodes, weights, axes): n = 2L+2 uniform points per axis."""
        n = 2 * bandlimit + 2
        axis = 2 * np.pi * np.arange(n) / n
        nodes = np.stack(np.meshgrid(*[axis] * self.d, indexing="ij"), -1).reshape(-1, self.d)
        return nodes, np.full(len(nodes), 1.0 / n**self.d), {"points_per_axis": n}

    def _bins(self, grid: QuadratureGrid, bandlimit: int):
        """(n, index) of the FFT bins k mod n; n = 2L+2 > 2|k_i| keeps them distinct."""
        n = grid.axes["points_per_axis"]
        return n, tuple((dual_layout(self, bandlimit).labels % n).T)

    def forward_blocks(self, grid: QuadratureGrid, values: np.ndarray, bandlimit: int) -> list:
        """The (n_dual, m, 1, 1) coefficient block: numpy.fft read at k mod n."""
        n, bins = self._bins(grid, bandlimit)
        samples = values.reshape((n,) * self.d + (values.shape[1],))
        coef = np.fft.fftn(samples, axes=tuple(range(self.d)))[bins] / n**self.d  # (n_dual, m)
        return [coef[:, :, None, None]]

    def inverse_values(self, grid: QuadratureGrid, blocks, bandlimit: int) -> np.ndarray:
        """(N, m) samples of the family on the grid: the inverse FFT of its bins."""
        n, bins = self._bins(grid, bandlimit)
        m = blocks[0].shape[1]
        spec = np.zeros((n,) * self.d + (m,), dtype=complex)
        spec[bins] = blocks[0][:, :, 0, 0]
        vals = np.fft.ifftn(spec, axes=tuple(range(self.d))) * n**self.d
        return vals.reshape(-1, m)

    def evaluate_values(self, points: np.ndarray, blocks, bandlimit: int) -> np.ndarray:
        """(n, m) values of the family at arbitrary points: sum_k T_k e^{ik.x},
        one complex product per chunk of points."""
        pts = self.validate_coords(points)
        K = dual_layout(self, bandlimit).labels.astype(float)
        coef = blocks[0][:, :, 0, 0]  # (n_dual, m)
        out = np.empty((len(pts), coef.shape[1]), dtype=complex)
        chunk = max(128, 4_000_000 // len(K))  # chunk x n_dual phases at a time
        for start in range(0, len(pts), chunk):
            out[start:start + chunk] = np.exp(1j * pts[start:start + chunk] @ K.T) @ coef
        return out

    def _inversion_permutation(self, grid: QuadratureGrid) -> np.ndarray:
        n = grid.axes["points_per_axis"]
        neg = (-np.arange(n)) % n
        idx = np.ravel_multi_index(np.meshgrid(*[neg] * self.d, indexing="ij"), (n,) * self.d)
        return idx.ravel()


@dataclass(frozen=True)
class SU2(_Group):
    """The group SU(2) in ZYZ Euler coordinates."""

    @property
    def dim(self) -> int:
        return 3

    def spec_string(self) -> str:
        return "su2"

    # -- dual -----------------------------------------------------------

    def dual_arrays(self, bandlimit: int):
        """(labels, dim, casimir) up to ``bandlimit``: the degrees 2l = 0..2L,
        dimension 2l+1, l(l+1) (uncached)."""
        two_l = np.arange(2 * bandlimit + 1)
        return two_l, two_l + 1, two_l * (two_l + 2) / 4.0

    def label_bandlimit(self, label):
        """Smallest L whose dual can hold degree ``label`` = 2l: ceil(l)
        (elementwise on an array of degrees)."""
        return (label + 1) // 2

    # -- elements ---------------------------------------------------------

    def defining_matrix(self, x) -> np.ndarray:
        """Elements (..., 3) as defining 2x2 unitaries (..., 2, 2), unit quaternions."""
        x = self.validate_coords(x)
        a, b, g = x[..., 0], x[..., 1], x[..., 2]
        ch, sh = np.cos(b / 2), np.sin(b / 2)
        return np.stack([
            np.stack([ch * np.exp(-0.5j * (a + g)), -sh * np.exp(-0.5j * (a - g))], axis=-1),
            np.stack([sh * np.exp(0.5j * (a - g)), ch * np.exp(0.5j * (a + g))], axis=-1),
        ], axis=-2)

    def coords_from_matrices(self, us: np.ndarray) -> np.ndarray:
        """ZYZ angles (..., 3) of (..., 2, 2) SU(2) matrices; beta in [0, pi],
        phases in [0, 4pi)."""
        ch = np.abs(us[..., 0, 0])
        sh = np.abs(us[..., 1, 0])
        beta = 2.0 * np.arctan2(sh, ch)
        s = -2.0 * np.angle(us[..., 0, 0])
        d = 2.0 * np.angle(us[..., 1, 0])
        alpha = 0.5 * (s + d)
        gamma = 0.5 * (s - d)
        # degenerate axes: merge the free phase into alpha
        top = sh < 1e-300
        bot = ch < 1e-300
        alpha = np.where(top, s, np.where(bot, d, alpha))
        gamma = np.where(top | bot, 0.0, gamma)
        return np.stack([alpha % (4 * np.pi), beta, gamma % (4 * np.pi)], axis=-1)

    def multiply(self, x, y) -> np.ndarray:
        return self.coords_from_matrices(self.defining_matrix(x) @ self.defining_matrix(y))

    def inverse_element(self, x) -> np.ndarray:
        return self.coords_from_matrices(np.swapaxes(self.defining_matrix(x).conj(), -1, -2))

    def exp_step(self, k: int, t: float) -> np.ndarray:
        """exp(t X_k) for the orthonormal basis X_k = -i sigma_k / 2.

        This normalization makes the induced -Laplacian eigenvalue l(l+1).
        """
        sigma = [
            np.array([[0, 1], [1, 0]], dtype=complex),
            np.array([[0, -1j], [1j, 0]]),
            np.array([[1, 0], [0, -1]], dtype=complex),
        ][k]
        u = math.cos(t / 2) * np.eye(2) - 1j * math.sin(t / 2) * sigma
        return self.coords_from_matrices(u)

    def random_element(self, rng) -> np.ndarray:
        q = rng.standard_normal(4)
        q /= np.linalg.norm(q)
        u = np.array(
            [[q[0] + 1j * q[3], q[2] + 1j * q[1]], [-q[2] + 1j * q[1], q[0] - 1j * q[3]]]
        )
        return self.coords_from_matrices(u)

    def validate_coords(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != 3:
            raise DomainError("su2 coordinates are ZYZ triples (alpha, beta, gamma)")
        if not np.all(np.isfinite(x)):
            raise DomainError("su2 coordinates must be finite")
        beta = x[..., 1]
        if np.any(beta < -1e-12) or np.any(beta > np.pi + 1e-12):
            raise DomainError("beta must lie in [0, pi]")
        return x

    # -- matrix coefficients ----------------------------------------------

    def irrep_matrices(self, xi: DualIndex, points: np.ndarray) -> np.ndarray:
        two_l = xi.label
        if np.asarray(two_l).dtype.kind not in "iu" or np.ndim(two_l) or two_l < 0:
            raise DomainError(f"{two_l!r} is not a label of the su2 dual")
        return complete_level(next(self._degree_blocks(points, int(two_l), first=int(two_l))))

    def _degree_blocks(self, points: np.ndarray, two_L: int, first: int = 0):
        """The rows m' >= 0 of xi(x) for the degrees 2l = first..two_L, one
        (n, h, d) array at a time: the phases of every 2m, made once, times
        each streamed Wigner level on the distinct betas (a product grid
        repeats few); when no beta repeats, on the points' own betas, with
        no gather."""
        pts = self.validate_coords(np.atleast_2d(points))
        two_ms = np.arange(-two_L, two_L + 1)
        betas, where = np.unique(pts[:, 1], return_inverse=True)
        if len(betas) == len(pts):
            betas, where = pts[:, 1], slice(None)
        left = np.exp(-0.5j * np.outer(pts[:, 0], two_ms))
        right = np.exp(-0.5j * np.outer(pts[:, 2], two_ms))
        for two_l, d in enumerate(wigner_d_matrices(two_L, betas)):
            if two_l >= first:
                q, s = (two_L + two_l) % 2, _parity_slice(two_L, two_l)
                block = left[:, q::2][:, s][:, :d.shape[1], None] * d[where]
                block *= right[:, q::2][:, None, s]
                yield block

    # -- quadrature and transform -------------------------------------------

    def _quadrature_rule(self, bandlimit: int):
        """(nodes, weights, axes): 2B uniform alphas on [0, 4pi), the first B
        of them as gammas on [0, 2pi), B = 2L+2 Gauss-Legendre betas, and the
        transform plan on them.

        The grid covers SU(2) once: (alpha, beta, gamma + 2pi) is the element
        (alpha - 2pi, beta, gamma), so a double-cover sum over alpha and
        gamma in [0, 4pi) of a function times xi_{m'm} is twice the sum with
        gamma in [0, 2pi) when m' - m is an integer, the only pairs a matrix
        coefficient has.
        """
        B = 2 * bandlimit + 2
        # alpha over [0, 4pi) resolves half-integer phases; gamma needs only
        # the first half of the same axis
        phases = 2 * np.pi * np.arange(2 * B) / B
        u, w = np.polynomial.legendre.leggauss(B)
        betas = np.arccos(u)
        a = np.repeat(phases, B * B)
        b = np.tile(np.repeat(betas, B), 2 * B)
        g = np.tile(phases[:B], 2 * B * B)
        nodes = np.stack([a, b, g], axis=1)
        weights = np.tile(np.repeat(w / 2.0, B), 2 * B) / (2 * B * B)
        return nodes, weights, dict(alphas=phases, beta_u=u, beta_w=w, B=B,
                                    **_wigner_plan(phases, betas, 2 * bandlimit))

    @staticmethod
    def _plan(grid: QuadratureGrid, bandlimit: int):
        """(tables, stages) at ``bandlimit`` L', sliced from the grid's plan of
        2L+1 tables, with per spin parity p the (A, C, sign) read off E[:B]'s
        columns on the axis 2m = -2L'+p, ..., 2L'-p: A the alpha columns
        m' >= 0 falling, then those of -m'; C the gamma columns as rows, at
        beta and, reversed (m -> -m), at pi - beta; sign the (-1)^{L'+r} of
        row r (m' falling from the top) of the plane at pi - beta."""
        E, tables, B = grid.axes["E"], grid.axes["tables"], grid.axes["B"]
        cut = len(tables) - 1 - 2 * bandlimit
        stages = []
        for Ep in (E[:B, cut:E.shape[1] - cut:2], E[:B, cut + 1:E.shape[1] - cut:2]):
            H = (Ep.shape[1] + 1) // 2
            stages.append((np.hstack([Ep[:, ::-1][:, :H], Ep[:, :H]]), np.stack([Ep.T, Ep.T[::-1]]),
                           (-1.0) ** (bandlimit + np.arange(H))))
        return tables[:2 * bandlimit + 1], stages

    def forward_blocks(self, grid: QuadratureGrid, values: np.ndarray, bandlimit: int) -> list:
        """One (1, m, d, d) block per degree: the integer and the half-integer
        spins as two half-size transforms, one per parity p of 2l, each on
        the rows m' >= 0 only, of f and of conj f as 2m value columns, with
        the stages of ``_plan``:

        * alpha: alpha + 2pi multiplies e^{-i m alpha} by (-1)^{2m}, so the
          two halves fold into one, against A (conj f's half conjugated);
        * the beta weights, and two planes: the stored betas < pi/2 and
          pi - beta;
        * gamma: C over the half axis at twice the weight, as in the grid;
        * beta: one matmul per degree of its table against both planes.  By
          d_{m'm}(pi - beta) = (-1)^{l+m'} d_{m',-m}(beta), l + m' being
          (h - 1) + (L - r) on row r, the plane at pi - beta carries
          (-1)^{L+r} and the degree's (-1)^{h-1} picks add or subtract.

        By xi_{-m',-m} = (-1)^{m'-m} conj(xi_{m'm}), ``complete_level`` fills
        the rows m' < 0 of F(f) from the rows m' > 0 of F(conj f).  The
        stages write into two work buffers in turn."""
        tables, stages = self._plan(grid, bandlimit)
        B, m = grid.axes["B"], values.shape[1]
        half = B // 2
        beta_w = grid.axes["beta_w"][half:] / 2.0  # symmetric about pi/2
        values = values.reshape(2, B, B * B * m)
        blocks = [None] * len(tables)
        work = np.empty((2, B * B * B * m), dtype=complex)  # each stage's output, in turn
        for p, (A, C, sign) in enumerate(stages):
            H, M = len(sign), C.shape[1]
            fold = (np.subtract if p else np.add)(*values, out=_take(work[0], B, B * B * m))
            g = np.matmul(A.T * (1.0 / (2 * B)), fold, out=_take(work[1], 2 * H, B * B * m))
            np.conjugate(g[H:], out=g[H:])  # (f|conj f r, b c v)
            gt = g.reshape(2, H, B, B, m).transpose(3, 1, 0, 4, 2)  # (c, r, f|conj f, v, b)
            x = _take(work[0], 2, B, H, 2, m, half)  # (plane, c, r, f|conj f, v, b)
            np.multiply(gt[..., half:], beta_w, out=x[0])
            np.multiply(gt[..., half - 1::-1], sign[:, None, None, None] * beta_w, out=x[1])
            z = _take(work[1], 2, M, H, 2 * m, half)  # (plane, N, r, 2m, b)
            np.matmul(C * (1.0 / B), x.reshape(2, B, -1), out=z.reshape(2, M, -1))
            for two_l in range(p, len(tables), 2):
                tab = tables[two_l][..., None]  # (d, h, b, 1)
                h = tab.shape[1]
                r = np.matmul(z[:, _parity_slice(2 * bandlimit, two_l), -h:], tab)[..., 0]
                u = (r[0] + r[1, ::-1] if h % 2 else r[0] - r[1, ::-1]).transpose(2, 1, 0)
                blocks[two_l] = complete_level(u[:m], u[m:])[None]
        return blocks

    def inverse_values(self, grid: QuadratureGrid, blocks, bandlimit: int) -> np.ndarray:
        """(N, m) samples of the family on the grid: the adjoint of
        ``forward_blocks``, its stages transposed in reverse on the same
        planes and layout, without the quadrature weights.  Each block,
        times d, folds its rows m' < 0 onto its rows m' > 0 (``_fold_level``),
        conjugated, as the conj f columns; its table adds it into both beta
        planes, with the forward's signs; then come the conjugate gamma
        columns, the beta planes joined, and the conjugate alpha columns.
        The second alpha half repeats the integer spins and negates the
        half-integer ones.  z, then g, take one work buffer; out[p] holds
        the rest until its values land."""
        tables, stages = self._plan(grid, bandlimit)
        B, m = grid.axes["B"], blocks[0].shape[1]
        half = B // 2
        out = np.empty((2, B, B, B, m), dtype=complex)  # one alpha half per parity first
        work = np.empty(B * B * B * m, dtype=complex)  # z, then g; out[p] holds the rest
        for p, (A, C, sign) in enumerate(stages):
            H, M = len(sign), C.shape[1]
            spare = out[p].reshape(-1)
            z = _take(work, 2, M, H, 2 * m, half)  # (plane, N, r, 2m, b)
            z.fill(0)
            for two_l in range(p, len(tables), 2):
                tab = tables[two_l][:, :, None]  # (d, h, 1, b)
                d, h = tab.shape[:2]
                q = _fold_level(blocks[two_l][0])  # (f|conj f, v, h, d)
                np.conjugate(q[1], out=q[1])
                a = np.multiply(q.transpose(3, 2, 0, 1), d, order="C").reshape(d, h, 2 * m, 1)
                s, t = _parity_slice(2 * bandlimit, two_l), _take(spare, d, h, 2 * m, half)
                z[0, s, -h:] += np.multiply(a, tab, out=t)
                z[1, s, -h:] += np.multiply(a[::-1] if h % 2 else -a[::-1], tab, out=t)
            x = _take(spare, 2, B, H, 2, m, half)  # (plane, c, r, f|conj f, v, b)
            np.matmul(C.conj().transpose(0, 2, 1), z.reshape(2, M, -1), out=x.reshape(2, B, -1))
            g = _take(work, 2 * H, B * B * m)  # (f|conj f r, b c v)
            gt = g.reshape(2, H, B, B, m).transpose(3, 1, 0, 4, 2)  # (c, r, f|conj f, v, b)
            gt[..., half:] = x[0]
            np.multiply(x[1], sign[:, None, None, None], out=gt[..., half - 1::-1])
            np.conjugate(g[H:], out=g[H:])
            np.matmul(A.conj(), g, out=out[p].reshape(B, -1))
        even, odd = out
        even += odd
        odd *= -2.0
        odd += even  # even - odd, with no temporary
        return out.reshape(-1, m)

    def evaluate_values(self, points: np.ndarray, blocks, bandlimit: int) -> np.ndarray:
        """(n, m) values of the family at arbitrary points from the rows
        D = X + iY of ``_degree_blocks``: by the mirror, sum_ij conj(xi_ij) a_ij
        (a = d T) is conj(D) a + D (p - a) over the upper rows, where p adds
        the rows m' < 0 of a, folded by ``_fold_level``, to its rows m' >= 0;
        one real product [X | Y] @ [p; i(p - 2a)] per degree."""
        m = blocks[0].shape[1]
        coefs = []  # (h d re/im, re/im of m): rows interleaved like D.view(float)
        for t in blocks:  # one (1, m, d, d) block per degree
            a, folded = _fold_level(t[0] * t.shape[-1])  # (m, h, d) each
            p = a + folded
            pq = np.stack([p, 1j * (p - 2 * a)], axis=-1)  # (m, h, d, 2)
            coefs.append(pq.transpose(1, 2, 3, 0).copy().reshape(-1, m).view(float))
        out = np.zeros((len(points), m), dtype=complex)
        # chunk x sum d^2 entries bounds the rows of xi(x) one chunk holds
        chunk = max(128, 4_000_000 // sum(t.shape[-1] ** 2 for t in blocks))
        for start in range(0, len(points), chunk):
            sl = slice(start, start + chunk)
            for D, c in zip(self._degree_blocks(points[sl], 2 * bandlimit), coefs):
                out[sl] += (D.reshape(len(D), -1).view(float) @ c).view(complex)
        return out

    def _inversion_permutation(self, grid: QuadratureGrid) -> np.ndarray:
        # (alpha_a, beta_b, gamma_c)^-1 = (pi - gamma_c, beta_b, -pi - alpha_a);
        # with B even both phase coordinates land back on the uniform axis
        # (spacing 2pi/B, and pi = (B/2) grid steps).  A gamma index past the
        # half axis comes back by (a, c) -> (a + B, c - B), the same element.
        B = grid.axes["B"]
        two_b = 2 * B
        a_idx, b_idx, c_idx = np.meshgrid(
            np.arange(two_b), np.arange(B), np.arange(B), indexing="ij"
        )
        c_new = (-B // 2 - a_idx) % two_b
        a_new = (B // 2 - c_idx + B * (c_new // B)) % two_b
        return ((a_new * B + b_idx) * B + c_new % B).reshape(-1)


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------


def parse_group_spec(spec: str):
    groups = {"t1": Torus(1), "t2": Torus(2), "su2": SU2()}
    if spec not in groups:
        raise ParameterError(f"unrecognized group spec {spec!r} (expected t1, t2 or su2)")
    return groups[spec]


def enumerate_dual(group, bandlimit: int) -> list[DualIndex]:
    return group.enumerate_dual(bandlimit)


def haar_quadrature(group, bandlimit: int) -> QuadratureGrid:
    return group.haar_quadrature(bandlimit)


def weyl_summability(group, alpha: float, bandlimit: int) -> np.ndarray:
    """Partial sums S(L') = sum_{dual up to L'} d^2 (1+lambda)^(-alpha), L' = 1..L.

    For alpha = dim G the increments shrink geometrically; at alpha = dim G / 2
    they do not (the Weyl-law summability threshold).  Read off one layout.
    """
    layout = dual_layout(group, int(bandlimit))
    terms = layout.dim**2 * (1.0 + layout.casimir) ** (-alpha)
    bins = group.label_bandlimit(layout.labels)  # the first L' holding each label
    return np.cumsum(np.bincount(bins, terms, minlength=bandlimit + 1))[1:]
