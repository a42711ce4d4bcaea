"""Concrete compact groups: the torus T^d (d = 1, 2) and SU(2).

Each group provides its unitary dual with dimensions and Casimir eigenvalues,
unitary matrix coefficients, group element arithmetic in explicit coordinates
(on arrays of elements, broadcasting), a Haar quadrature exact on
band-limited integrands, and the transform on that quadrature.

The dual and xi(x) live here only.  ``dual_layout`` is the one cache of a
truncated dual, read by ``enumerate_dual`` and every coefficient family;
``irrep_matrices`` builds one whole xi (``DomainError`` off the dual), on
SU(2) from the rows m' >= 0 of one streamed Wigner level by the mirror
xi_{-m',-m} = (-1)^{m'-m} conj(xi_{m'm}).

The transform is here too, and so is the grid layout: ``forward_blocks``,
``inverse_values`` and ``evaluate_values`` (at any points).  On the torus
the first two are numpy.fft read at k mod n; on SU(2) the forward runs
``_STAGES`` per spin parity and the inverse their adjoints in reverse (the
stages' docstrings give the list), no stage holds a row m' < 0, and the
plan (``_wigner_plan``) is read-only grid data a band limit L' below the
grid's slices.  Off the grid both sum one trigonometric series (``_trig_sum``).

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

from collections import deque, namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache
import itertools
import math

import numpy as np

from ._wigner import complete_level, wigner_d_half_pi, wigner_d_matrices
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
    on SU(2)), so ``index`` finds the positions of an array of labels by
    arithmetic; it is the one lookup, and the one judge of what a label is.
    Block b holds the duals of dimension ``dims[b]`` at positions
    ``members[b]``; position i sits at ``(block[i], slot[i])``.  ``wire``
    lists the positions in the order every output format uses (by Casimir,
    then label text).  ``duals``, the ``DualIndex`` objects, is built on
    first access; ``dual_indices`` makes those of some positions alone.
    """

    def __init__(self, labels: np.ndarray, dim: np.ndarray, casimir: np.ndarray):
        self.labels, self.dim, self.casimir = labels, dim, casimir
        self._lo = np.atleast_1d(labels[0])
        self._side = np.atleast_1d(labels[-1] - labels[0] + 1)
        self._stride = np.cumprod(np.r_[1, self._side[:0:-1]])[::-1]  # row-major
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

    def _label_objects(self, positions=slice(None)) -> list:
        """The labels as ``DualIndex`` holds them: int tuples on T^d, ints on SU(2)."""
        labels = self.labels[positions].tolist()
        return list(map(tuple, labels)) if self.labels.ndim == 2 else labels

    def dual_indices(self, positions) -> tuple[DualIndex, ...]:
        """The ``DualIndex`` objects at the given positions, made for them alone."""
        pos = np.asarray(positions, dtype=int)
        return tuple(map(DualIndex, self._label_objects(pos), self.dim[pos].tolist(),
                         self.casimir[pos].tolist()))

    @cached_property
    def duals(self) -> tuple[DualIndex, ...]:
        return self.dual_indices(np.arange(len(self.dim)))

    def index(self, labels) -> np.ndarray:
        """The positions of an array of labels, -1 for anything that is not a
        label of this dual: off the box, of another arity, not of int dtype,
        and throughout a batch that numpy makes no one array of."""
        try:
            lab = np.asarray(labels)
        except ValueError:  # ragged or nested: "inhomogeneous shape"
            return np.full(len(labels), -1)
        if lab.dtype.kind != "i" or lab.shape[1:] != self.labels.shape[1:]:
            return np.full(len(lab), -1)
        off = (lab - self._lo).reshape(len(lab), -1)
        inside = ((off >= 0) & (off < self._side)).all(1)
        return np.where(inside, off @ self._stride, -1)


@lru_cache(maxsize=None, typed=True)
def dual_layout(group, bandlimit: int) -> DualLayout:
    """The layout of ``group``'s dual at ``bandlimit``, shared by every family.

    The only cache of the dual: the group builds its arrays once.  Keyed by
    type, so a float band limit never hits an int's entry: it is always refused.
    """
    if not isinstance(bandlimit, (int, np.integer)) or isinstance(bandlimit, bool):
        raise DomainError(f"band limit must be an integer, got {bandlimit!r}")
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


_TRIG_SUM_CHUNK = (1 << 19, 1024)  # per chunk in ``_trig_sum``: bytes of partial sums, points


def _trig_sum(points: np.ndarray, freqs, F: np.ndarray) -> np.ndarray:
    """(n, m) values sum_j F[j_d, :, j_1, ..., j_{d-1}] prod_a e^{i f_a[j_a] x_a} at the
    (n, d) points, f_a = freqs[a]: per chunk, one GEMM over the last axis (F's first), then
    matrix-vector products over the others.  Points are padded to whole chunks, so every
    GEMM has one shape and a point's value does not depend on the others evaluated with it."""
    chunk = max(1, min(_TRIG_SUM_CHUNK[0] // (16 * F[0].size), _TRIG_SUM_CHUNK[1]))
    padded = np.pad(points, ((0, -len(points) % chunk), (0, 0))).reshape(-1, chunk, points.shape[1])
    out = np.empty(padded.shape[:2] + F.shape[1:2], dtype=complex)
    for x, y in zip(padded, out):
        phases = [np.exp(1j * np.multiply.outer(xa, f)) for xa, f in zip(x.T, freqs)]
        acc = (phases[-1] @ F.reshape(len(F), -1)).reshape(chunk, *F.shape[1:])
        for e in phases[-2::-1]:  # one matrix-vector product per point
            acc = (acc.reshape(chunk, -1, e.shape[1]) @ e[:, :, None]).reshape(acc.shape[:-1])
        y[...] = acc
    return out.reshape(-1, F.shape[1])[:len(points)]


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
    """The SU(2) transform plan to degree 2L on a product grid, which makes
    it read-only: E[c, 2L + 2m] = e^{-i m phases_c} on the gamma axis, the
    first B = len(betas) phases (the grid's Gauss-Legendre betas, falling
    from pi to 0), and tables[2l][j, i, b] = d^l_{m_i m_j}(betas[B/2 + b])
    for i < 2l//2 + 1, a quarter of each level: the rows m' >= 0 at the
    betas below pi/2, laid out like a degree's view of z (``SU2._plan``)."""
    E = np.exp(-0.5j * np.outer(phases[:len(betas)], np.arange(-two_L, two_L + 1)))
    levels = wigner_d_matrices(two_L, betas[len(betas) // 2:])
    return {"E": E, "tables": tuple(np.ascontiguousarray(d.transpose(2, 1, 0)) for d in levels)}


_Parity = namedtuple("_Parity", "p m A C sign w degrees z")  # laid out by SU2._plan


def _alpha_stage(par, values, blocks, gz, spare, adjoint=False) -> None:
    """Stage 1, alpha, on the alpha halves [0, 2pi) and [2pi, 4pi) of the
    (N, m) ``values``, each (B, n) with columns (b, c, v).  Forward: alpha +
    2pi multiplies e^{-i m alpha} by (-1)^{2m}, so the halves fold into one
    (their sum, or their difference for half-integer spins); A takes it to
    g, the rows m' >= 0 of f and conj f (2H, n), weighted 1/(2B), and conj
    f's rows are conjugated.  Adjoint: those conjugated back, A^* g into the
    parity's half."""
    H, halves = len(par.sign), values.reshape(2, len(par.A), -1)
    g = _take(gz, 2 * H, halves.shape[2])  # (f|conj f r, b c v)
    if not adjoint:
        fold = (np.subtract if par.p else np.add)(*halves, out=_take(spare, *halves.shape[1:]))
        np.matmul(par.A.T * (1.0 / (2 * len(par.A))), fold, out=g)
    np.conjugate(g[H:], out=g[H:])
    if adjoint:
        np.matmul(par.A.conj(), g, out=halves[par.p])


def _unfold(even: np.ndarray, odd: np.ndarray) -> None:
    """The adjoint of both parities' alpha folds, in place: the parity
    halves (y0, y1) become the alpha halves (y0 + y1, y0 - y1)."""
    even += odd
    odd *= -2.0
    odd += even  # even - odd, with no temporary


def _gamma_stage(par, values, blocks, gz, spare, adjoint=False) -> None:
    """Stage 2, beta planes and gamma: g as (c, r, f|conj f, v, b); x, in
    ``spare``, its two beta planes (plane, c, r, f|conj f, v, b), the betas
    below pi/2 and, times ``sign``, their mirrors pi - beta.  Forward: the
    beta weights go on as g splits into x, and C takes each plane's gamma
    axis c to N in z, weighted 1/B: the half axis at twice the weight, as in
    the grid.  Adjoint: C^* takes z to x, which fills g."""
    B, H, half = len(par.A), len(par.sign), len(par.w)
    gt = _take(gz, 2, H, B, B, par.m).transpose(3, 1, 0, 4, 2)
    x = _take(spare, 2, B, H, 2, par.m, half)
    z = _take(gz, *par.z).reshape(2, par.z[1], -1)
    if adjoint:
        np.matmul(par.C.conj().transpose(0, 2, 1), z, out=x.reshape(2, B, -1))
        gt[..., half:] = x[0]
        np.multiply(x[1], par.sign, out=gt[..., half - 1::-1])
        return
    np.multiply(gt[..., half:], par.w, out=x[0])
    np.multiply(gt[..., half - 1::-1], par.sign * par.w, out=x[1])
    np.matmul(par.C * (1.0 / B), x.reshape(2, B, -1), out=z)


def _beta_stage(par, values, blocks, gz, spare, adjoint=False) -> None:
    """Stage 3, beta: per degree 2l, its table against its view of both
    planes.  By d_{m'm}(pi - beta) = (-1)^{l+m'} d_{m',-m}(beta), l + m'
    being (h - 1) + (L' - r) on row r, the plane at pi - beta carries
    (-1)^{L'+r} (stage 2) and the degree's (-1)^{h-1} picks add or subtract.
    Forward: by xi_{-m',-m} = (-1)^{m'-m} conj(xi_{m'm}), ``complete_level``
    fills the rows m' < 0 of F(f) from the rows m' > 0 of F(conj f) in
    ``blocks[2l]``.  Adjoint, for the inner product sum_xi d <., .>_HS: each
    block times d, its rows m' < 0 folded onto its rows m' > 0
    (``_fold_level``) and conjugated as conj f's, is added into z, zeroed
    first."""
    z, m = _take(gz, *par.z), par.m
    if adjoint:
        z.fill(0)
    for two_l, s, table in par.degrees:
        d, h, b = table.shape
        planes, mirror = z[:, s, -h:], (np.add if h % 2 else np.subtract)
        if not adjoint:
            r = np.matmul(planes, table[..., None])[..., 0]  # (plane, d, h, 2m)
            u = mirror(r[0], r[1, ::-1]).transpose(2, 1, 0)
            blocks[two_l] = complete_level(u[:m], u[m:])[None]
            continue
        q = _fold_level(blocks[two_l][0])  # (f|conj f, v, h, d)
        np.conjugate(q[1], out=q[1])
        a = np.multiply(q.transpose(3, 2, 0, 1), d, order="C").reshape(d, h, 2 * m, 1)
        t = _take(spare, d, h, 2 * m, b)
        planes[0] += np.multiply(a, table[:, :, None], out=t)
        mirror(planes[1], np.multiply(a[::-1], table[:, :, None], out=t), out=planes[1])


# One spin parity of the SU(2) transform, each stage written once with its
# adjoint, in two flat work buffers: gz holds g, then z (the adjoint: z, then
# g), spare the rest.  The forward runs the stages in order with the
# quadrature weights, the inverse their adjoints in reverse, then _unfold.
_STAGES = (_alpha_stage, _gamma_stage, _beta_stage)


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
        for arr in (nodes, weights, *axes.values(), *axes.get("tables", ())):
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
        """(n, m) values at arbitrary points: T is the trigonometric sum sum_k T_k e^{ik.x}."""
        pts, k, d = self.validate_coords(points), np.arange(-bandlimit, bandlimit + 1.0), self.d
        coef = blocks[0][:, :, 0, 0].reshape((len(k),) * d + (-1,))  # (k_1, ..., k_d, m)
        return _trig_sum(pts, (k,) * d, np.moveaxis(coef, (-2, -1), (0, 1)))

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
        return complete_level(self._phased_levels(points, int(two_l)))

    def _phased_levels(self, points: np.ndarray, two_l: int) -> np.ndarray:
        """The rows m' >= 0 of xi(x) at degree 2l, from its Wigner level on the distinct betas."""
        pts = self.validate_coords(np.atleast_2d(points))
        betas, where = np.unique(pts[:, 1], return_inverse=True)
        if len(betas) == len(pts):
            betas, where = pts[:, 1], slice(None)
        d = deque(wigner_d_matrices(two_l, betas), maxlen=1)[0]
        two_m = np.arange(two_l, -two_l - 1, -2)  # columns m = l..-l
        block = np.exp(-0.5j * np.outer(pts[:, 0], two_m[:d.shape[1]]))[:, :, None] * d[where]
        block *= np.exp(-0.5j * np.outer(pts[:, 2], two_m))[:, None, :]
        return block

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
    def _plan(grid: QuadratureGrid, bandlimit: int, m: int):
        """Per spin parity p, the ``_Parity`` of m value columns at
        ``bandlimit`` L', sliced from the grid's plan (2L+1 tables, E's
        columns 2m = -2L..2L) onto the axis 2m = -2L'+p, ..., 2L'-p: A the
        columns m' >= 0 falling, then those of -m'; C the columns as rows,
        at beta and, reversed (m -> -m), at pi - beta; sign the (-1)^{L'+r}
        of row r (m' falling) of the plane at pi - beta; w the halved weights
        of the betas below pi/2; degrees the (2l, s, table) of 2l = p, p+2,
        ..., 2L', s its rows m = l..-l on the axis (``_parity_slice``); z the
        shape (plane, N, r, 2m, b) of the beta planes after the gamma DFT, N
        on the axis, b the betas below pi/2: a degree's view z[:, s, -h:]
        is its table's."""
        E, tables, half = grid.axes["E"], grid.axes["tables"], grid.axes["B"] // 2
        two_L, cut = 2 * bandlimit, len(tables) - 1 - 2 * bandlimit
        w = grid.axes["beta_w"][half:] / 2.0  # symmetric about pi/2
        for p, H in ((0, bandlimit + 1), (1, bandlimit)):  # H rows m' >= 0
            Ep = E[:, cut + p:E.shape[1] - cut:2]
            A, C = np.hstack([Ep[:, ::-1][:, :H], Ep[:, :H]]), np.stack([Ep.T, Ep.T[::-1]])
            sign = (-1.0) ** (bandlimit + np.arange(H))[:, None, None, None]
            degrees = [(k, _parity_slice(two_L, k), tables[k]) for k in range(p, two_L + 1, 2)]
            yield _Parity(p, m, A, C, sign, w, degrees, (2, Ep.shape[1], H, 2 * m, half))

    def forward_blocks(self, grid: QuadratureGrid, values: np.ndarray, bandlimit: int) -> list:
        """One (1, m, d, d) block per degree: per spin parity (a degree 2l
        meets only the 2m of its own parity), ``_STAGES`` in order."""
        blocks = [None] * (2 * bandlimit + 1)
        spare, gz = np.empty((2, values.size // 2), dtype=complex)
        for par, stage in itertools.product(self._plan(grid, bandlimit, values.shape[1]), _STAGES):
            stage(par, values, blocks, gz, spare)
        return blocks

    def inverse_values(self, grid: QuadratureGrid, blocks, bandlimit: int) -> np.ndarray:
        """(N, m) samples on the grid: the adjoint of ``forward_blocks``, per
        parity the stages' adjoints in reverse, with the half of ``out`` that
        the alpha stage writes last as spare, then ``_unfold``."""
        m = blocks[0].shape[1]
        out = np.empty((2, grid.size * m // 2), dtype=complex)
        gz = np.empty_like(out[0])
        for par, stage in itertools.product(self._plan(grid, bandlimit, m), _STAGES[::-1]):
            stage(par, out, blocks, gz, out[par.p], adjoint=True)
        _unfold(*out)
        return out.reshape(-1, m)

    def evaluate_values(self, points: np.ndarray, blocks, bandlimit: int) -> np.ndarray:
        """(n, m) values of the family at arbitrary points, one trigonometric sum
        per spin parity (``_trig_sum``): as d^l_{m'm}(beta) = i^{m-m'} sum_k D_{km'}
        D_{km} e^{ik beta}, D = d^l(pi/2) (``wigner_d_half_pi``), e^{i(m' alpha + k beta
        + m gamma)} has the coefficient sum_l d i^{m-m'} D_{km'} D_{km} (T_l)_{m'm}."""
        pts, two_L, out = self.validate_coords(points), 2 * bandlimit, 0
        deltas, idx = wigner_d_half_pi(two_L), np.arange(two_L + 1)
        ipow = np.array([1, 1j, -1, -1j])[(idx[:, None] - idx) % 4]  # i^{b-a} at row b, column a
        for p in (0, 1):
            axis = np.arange(p - two_L, two_L + 1, 2) / 2.0  # the parity's m, rising
            F = np.zeros((len(axis), blocks[0].shape[1]) + (len(axis),) * 2, dtype=complex)
            for two_l in range(p, two_L + 1, 2):  # F[m, :, m', k]: each degree's slice, rows k >= 0
                s, D, d, h = _parity_slice(two_L, two_l), deltas[two_l].T, two_l + 1, two_l // 2 + 1
                t = (blocks[two_l][0] * (d * ipow[:d, :d])).transpose(2, 0, 1)[..., None]
                F[s, :, s, s.start:s.start - h:-1] += (D[:, None, :h] * D[:, :h])[:, None] * t
            # rows k < 0: F_{m'(-k)m} = i^{2(m-m')} F_{m'km}, as D_{-k,m} = (-1)^{l+m} D_{km}
            np.multiply(F[..., :-bandlimit - 1:-1], ipow[:len(F), None, :len(F), None] ** 2,
                        out=F[..., :bandlimit])
            out = out + _trig_sum(pts, (axis,) * 3, F)
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
