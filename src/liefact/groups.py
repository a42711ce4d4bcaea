"""Concrete compact groups: the torus T^d (d = 1, 2) and SU(2).

Each group provides its unitary dual with dimensions and Casimir eigenvalues,
unitary matrix coefficients, group element arithmetic in explicit coordinates
(on arrays of elements, broadcasting), a Haar quadrature exact on
band-limited integrands, and the transform on that quadrature.

The dual and xi(x) live here only.  ``dual_layout`` is the one cache of a
truncated dual, read by ``enumerate_dual`` and every coefficient family;
``irrep_matrices`` builds one whole xi (``DomainError`` off the dual), on
SU(2) as d^l read through Delta^l between its two phases.

The transform is here too, on grids that are product rules: the transforms
read each coordinate's points, and the nodes and weights are built when
read.  On the torus ``forward_blocks`` and ``inverse_values`` are numpy.fft
read at k mod n; on SU(2) the forward runs ``_STAGES`` per spin parity and
the inverse their adjoints in reverse (the stages' docstrings give the
list).  SU(2) reads every d^l(beta), in the transform, off the grid and in
xi(x), through the one table of levels Delta^l = d^l(pi/2)
(``wigner_d_half_pi``), so the grid's plan is the gamma phases E alone,
sliced for a band limit L' below the grid's.  Off the grid
``evaluate_values`` sums one trigonometric series (``_trig_sum``); SU(2)
takes its coefficients from the adjoint of the transform's last stage, ``_fold``.

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

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
import itertools
import math

import numpy as np

from ._wigner import wigner_d_half_pi
from .errors import DomainError, ParameterError


@dataclass(frozen=True)
class DualIndex:
    """One unitary-equivalence class: label, dimension, Casimir eigenvalue."""

    label: tuple[int, ...] | int   # k-vector (torus) or 2l (su2)
    dim: int
    casimir: float


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False  # the cached layouts and grids share it with every caller
    return arr


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
    then label text); it and ``duals``, the ``DualIndex`` objects, are built
    on first access; ``dual_indices`` makes those of some positions alone.
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
        for arr in (self.labels, self.casimir, self.dim, self.block, self.slot, *self.members):
            _read_only(arr)

    @cached_property
    def wire(self) -> np.ndarray:
        labels = np.array([str(lab) for lab in self._label_objects()])
        return _read_only(np.lexsort((labels, self.casimir)))

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


def checked_bandlimit(bandlimit) -> int:
    """``bandlimit`` as an int, if it is an integer >= 1 (numpy's too, bool
    not); ``DomainError`` otherwise.  Every entry point that takes a band
    limit checks it here."""
    if not isinstance(bandlimit, (int, np.integer)) or isinstance(bandlimit, bool):
        raise DomainError(f"band limit must be an integer, got {bandlimit!r}")
    if bandlimit < 1:
        raise DomainError("band limit must be >= 1")
    return int(bandlimit)


@lru_cache(maxsize=None, typed=True)
def dual_layout(group, bandlimit: int) -> DualLayout:
    """The layout of ``group``'s dual at ``bandlimit``, shared by every family.

    The only cache of the dual: the group builds its arrays once.  Keyed by
    type, so a float band limit never hits an int's entry: it is always refused.
    """
    return DualLayout(*group.dual_arrays(checked_bandlimit(bandlimit)))


def _take(buf: np.ndarray, *shape: int) -> np.ndarray:
    """The first entries of a flat work buffer, as an array of ``shape``."""
    return buf[:math.prod(shape)].reshape(shape)


def _i_pow(n: int) -> np.ndarray:
    """i^{m-m'} at (m', m), on an axis of n magnetic indices falling by 1: i^{i-j} at (i, j)."""
    return np.array([1, 1j, -1, -1j])[(np.arange(n)[:, None] - np.arange(n)) % 4]


# per chunk in ``_trig_sum``: at least 16 points, as many more as fill 2**19
# bytes of partial sums, at most 1024
_TRIG_SUM_CHUNK = (16, 1 << 19, 1024)


def _trig_sum(points: np.ndarray, freqs, F: np.ndarray) -> np.ndarray:
    """(n, m) values sum_j F[j_d, :, j_1, ..., j_{d-1}] prod_a e^{i f_a[j_a] x_a} at the
    (n, d) points, f_a = freqs[a]: per chunk, one GEMM over the last axis (F's first), then
    matrix-vector products over the others.  Points are padded to whole chunks, so every
    GEMM has one shape and a point's value does not depend on the others evaluated with it."""
    least, budget, most = _TRIG_SUM_CHUNK
    chunk = min(max(least, budget // (16 * F[0].size)), most)
    padded = np.pad(points, ((0, -len(points) % chunk), (0, 0))).reshape(-1, chunk, points.shape[1])
    out = np.empty(padded.shape[:2] + F.shape[1:2], dtype=complex)
    for x, y in zip(padded, out):
        phases = [np.exp(1j * np.multiply.outer(xa, f)) for xa, f in zip(x.T, freqs)]
        acc = (phases[-1] @ F.reshape(len(F), -1)).reshape(chunk, *F.shape[1:])
        for e in phases[-2::-1]:  # one matrix-vector product per point
            acc = (acc.reshape(chunk, -1, e.shape[1]) @ e[:, :, None]).reshape(acc.shape[:-1])
        y[...] = acc
    return out.reshape(-1, F.shape[1])[:len(points)]


def _alpha_stage(par, values, blocks, gz, spare, adjoint=False) -> None:
    """Stage 1, alpha, on the alpha halves [0, 2pi) and [2pi, 4pi) of the
    (N, m) ``values``, each B rows by the columns (b, c, v).  Forward: alpha
    + 2pi multiplies e^{-i m alpha} by (-1)^{2m}, so the halves fold into one
    (their sum, or their difference for half-integer spins), and E^T takes
    it to g (m', b, c, v), every m' of the parity, weighted 1/(2B).
    Adjoint: conj(E) g into the parity's half."""
    B, halves = len(par.w), values.reshape(2, len(par.w), -1)
    g = _take(gz, par.n, halves.shape[2])
    if adjoint:
        np.matmul(par.E.conj(), g, out=halves[par.p])
        return
    fold = (np.subtract if par.p else np.add)(*halves, out=_take(spare, *halves.shape[1:]))
    np.matmul(par.E.T * (1.0 / (2 * B)), fold, out=g)


def _unfold(even: np.ndarray, odd: np.ndarray) -> None:
    """The adjoint of both parities' alpha folds, in place: the parity
    halves (y0, y1) become the alpha halves (y0 + y1, y0 - y1)."""
    even += odd
    odd *= -2.0
    odd += even  # even - odd, with no temporary


def _gamma_stage(par, values, blocks, gz, spare, adjoint=False) -> None:
    """Stage 2, gamma: g (m', b, c, v) as x (b, v, m', c) in ``spare``, whose
    gamma axis E takes to the parity's m in z (b, v, m', m).  Forward: the
    beta weights w and 1/B go on as g becomes x.  Adjoint: z E^* is x, which
    fills g."""
    B, n, m = len(par.w), par.n, par.m
    g = _take(gz, n, B, B, m).transpose(1, 3, 0, 2)
    x = _take(spare, B, m, n, B)
    z = _take(gz, B * m * n, n)
    if adjoint:
        np.matmul(z, par.E.conj().T, out=x.reshape(-1, B))
        g[...] = x
        return
    np.multiply(g, (par.w / B)[:, None, None, None], out=x)
    np.matmul(x.reshape(-1, B), par.E, out=z)


def _beta_stage(par, values, blocks, gz, spare, adjoint=False) -> None:
    """Stage 3, beta, by d^l_{m'm}(beta) = sum_{k>=0} c_k Delta_{km'} Delta_{km}
    Re(i^{m-m'} e^{ik beta}), c_0 = 1 and c_k = 2 otherwise: one real GEMM
    takes z (b, v, m', m) to y (re|im, k, v, m', m) in ``spare``, T's rows
    the real and imaginary parts of c_k e^{-ik beta}, k falling.  Forward:
    y[0] Re i^{m-m'} + y[1] Im i^{m-m'} into y[0].  Adjoint: y[0] times
    Im i^{m-m'} into y[1], times Re i^{m-m'} in place, then T^T."""
    z = _take(gz, len(par.w), par.m * par.n * par.n).view(float)
    y = _take(spare, 2, len(par.k), par.m, par.n, par.n)
    yf = y.view(float).reshape(len(par.T), -1)
    if adjoint:
        np.multiply(y[0], par.ipow.imag, out=y[1])
        y[0] *= par.ipow.real
        np.matmul(par.T.T, yf, out=z)
        return
    np.matmul(par.T, z, out=yf)
    y[0] *= par.ipow.real
    y[1] *= par.ipow.imag
    y[0] += y[1]


def _fold(par, values, blocks, gz, spare, adjoint=False) -> None:
    """Stage 4, the degrees, between y[0] (k, v, m', m) in ``spare`` and
    the blocks: degree 2l meets y's last h = 2l//2 + 1 rows, k = l..0, its
    slice s of m' and of m, and D, the rows k >= 0 of Delta^l; the products
    go through a buffer in ``gz``.  Forward: blocks[2l] = sum_k D_{km'}
    D_{km} y[k, :, m', m].  Adjoint, for the inner product sum_xi d <., .>_HS:
    y, zeroed first, gathers d D_{km'} D_{km} (T_l)_{m'm}."""
    y = _take(spare, len(par.k), par.m, par.n, par.n)
    if adjoint:
        y.fill(0)
    for two_l, s, D in par.degrees:
        h, d = D.shape
        rows, prod = y[-h:, :, s, s], _take(gz, h, par.m, d, d)
        if adjoint:
            np.multiply(blocks[two_l][0], D[:, None, :, None] * d, out=prod)
            rows += np.multiply(prod, D[:, None, None, :], out=prod)
        else:
            np.multiply(rows, D[:, None, :, None], out=prod)
            blocks[two_l] = np.multiply(prod, D[:, None, None, :], out=prod).sum(0)[None]


_Parity = namedtuple("_Parity", "p m n k ipow degrees E T w")  # laid out by SU2._plan

# One spin parity of the SU(2) transform, each stage written once with its
# adjoint, in two flat work buffers: the stages alternate between them.  The
# forward runs the stages in order with the quadrature weights, the inverse
# their adjoints in reverse, then _unfold.
_STAGES = (_alpha_stage, _gamma_stage, _beta_stage, _fold)


class _Group:
    """What T^d and SU(2) share: the dual and the grids read from their one
    cache each, and one xi(x) read from ``irrep_matrices``."""

    def enumerate_dual(self, bandlimit: int) -> list[DualIndex]:
        return list(dual_layout(self, checked_bandlimit(bandlimit)).duals)

    def haar_quadrature(self, bandlimit: int) -> QuadratureGrid:
        return _haar_quadrature(self, checked_bandlimit(bandlimit))

    def identity(self) -> np.ndarray:
        return np.zeros(self.dim)

    def irrep_matrix(self, xi: DualIndex, x) -> np.ndarray:
        return self.irrep_matrices(xi, np.asarray(x, float)[None, :])[0]


@lru_cache(maxsize=None)
def _haar_quadrature(group, bandlimit: int) -> QuadratureGrid:
    """The only cache of the grids: the group builds its rule once."""
    return QuadratureGrid(group, bandlimit, *group._quadrature_rule(bandlimit))


class QuadratureGrid:
    """A product-rule Haar quadrature exact to ``bandlimit``: coordinate a has
    points ``points[a]`` and weight factors ``factors[a]``; ``nodes`` and
    ``weights``, built on first read, are their row-major products.  Products
    of two matrix coefficients within ``bandlimit`` are integrated exactly (up
    to roundoff); the weights sum to 1."""

    def __init__(self, group, bandlimit: int, points, factors, axes: dict):
        self.group, self.bandlimit, self.axes = group, int(bandlimit), axes
        self.points, self.factors = tuple(points), tuple(factors)
        self.size = math.prod(map(len, self.points))
        # haar_quadrature is lru_cached, so every caller shares these arrays
        for arr in (*self.points, *self.factors, *axes.values()):
            if isinstance(arr, np.ndarray):
                _read_only(arr)

    @cached_property
    def nodes(self) -> np.ndarray:
        mesh = np.meshgrid(*self.points, indexing="ij", copy=False)  # views, no copies
        return _read_only(np.stack(mesh, -1).reshape(self.size, -1))

    @cached_property
    def weights(self) -> np.ndarray:
        return _read_only(reduce(np.multiply.outer, self.factors).reshape(-1))

    def integrate(self, values: np.ndarray) -> np.ndarray:
        """sum_n weights[n] values[n] over the first axis of ``values``: the
        factors contracted one axis at a time on its (n_a, n_b, ..., m) view,
        so ``weights`` is not built."""
        out = values.reshape(tuple(map(len, self.factors)) + values.shape[1:])
        for factor in self.factors:
            out = np.tensordot(factor, out, axes=1)
        return out

    @cached_property
    def inversion_permutation(self) -> np.ndarray:
        """Permutation p with nodes[p[i]] = nodes[i]^-1 (exact on these grids)."""
        return _read_only(self.group._inversion_permutation(self))

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
        """(points, factors, axes): n = 2L+2 uniform points per axis, weight 1/n^d on the first."""
        n = 2 * bandlimit + 2
        factors = [np.full(n, 1.0 / n**self.d)] + [np.ones(n)] * (self.d - 1)
        return (2 * np.pi * np.arange(n) / n,) * self.d, factors, {"points_per_axis": n}

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
        # xi(x), d^l on the distinct betas between the two phases: d_{m'm} =
        # i^{m-m'} sum_k D_{km'} D_{km} e^{ik beta}, D = Delta^l, one batched product
        pts = self.validate_coords(np.atleast_2d(points))
        betas, where = np.unique(pts[:, 1], return_inverse=True)
        if len(betas) == len(pts):
            betas, where = pts[:, 1], slice(None)
        D = wigner_d_half_pi(two_l)[two_l]
        two_m = np.arange(two_l, -two_l - 1, -2)  # rows and columns m = l..-l, and k
        d = (D.T * np.exp(0.5j * np.multiply.outer(betas, two_m))[:, None, :]) @ D
        d *= _i_pow(two_l + 1)
        block = np.exp(-0.5j * np.outer(pts[:, 0], two_m))[:, :, None] * d.real[where]
        block *= np.exp(-0.5j * np.outer(pts[:, 2], two_m))[:, None, :]
        return block

    # -- quadrature and transform -------------------------------------------

    def _quadrature_rule(self, bandlimit: int):
        """(points, factors, axes) of (alpha, beta, gamma): 2B uniform alphas
        on [0, 4pi) (half-integer phases), B = 2L+2 Gauss-Legendre betas and
        the first B alphas as gammas on [0, 2pi); the weight (w/2)/(2B^2) on
        the betas, 1 on the phases; in ``axes`` the Gauss-Legendre weights w,
        B and the transform plan on them, E[c, 2L + 2m] = e^{-i m gamma_c}.

        The grid covers SU(2) once: (alpha, beta, gamma + 2pi) is the element
        (alpha - 2pi, beta, gamma), so a double-cover sum over alpha and
        gamma in [0, 4pi) of a function times xi_{m'm} is twice the sum with
        gamma in [0, 2pi) when m' - m is an integer, the only pairs a matrix
        coefficient has.
        """
        B = 2 * bandlimit + 2
        phases = 2 * np.pi * np.arange(2 * B) / B
        u, w = np.polynomial.legendre.leggauss(B)
        E = np.exp(-0.5j * np.outer(phases[:B], np.arange(-2 * bandlimit, 2 * bandlimit + 1)))
        factors = np.ones(2 * B), w / 2.0 / (2 * B * B), np.ones(B)
        return (phases, np.arccos(u), phases[:B]), factors, dict(beta_w=w, B=B, E=E)

    @staticmethod
    def _plan(bandlimit: int, m: int, grid: QuadratureGrid | None = None):
        """Per spin parity p, the ``_Parity`` of m value columns at
        ``bandlimit`` L', on the axis of n entries 2m = 2L'-p, ..., p-2L'
        (for m' and for m): k = (2L'-p)/2, ..., p/2, ipow i^{m-m'} at
        (m', m), degrees the (2l, s, D) of 2l = p, p+2, ..., 2L', s its rows
        m = l..-l on the axis and D the rows k >= 0 of Delta^l.  On a grid
        also E, the grid's plan on the axis, T the beta rows of
        ``_beta_stage`` and w the halved beta weights."""
        two_L = 2 * bandlimit
        deltas = wigner_d_half_pi(two_L)
        for p in (0, 1):
            n, k = two_L + 1 - p, np.arange(two_L - p, -1, -2) / 2.0
            ipow = _i_pow(n)
            degrees = [(two_l, slice((two_L - two_l) // 2, (two_L + two_l) // 2 + 1),
                        deltas[two_l][:two_l // 2 + 1]) for two_l in range(p, n, 2)]
            if grid is None:
                yield _Parity(p, m, n, k, ipow, degrees, None, None, None)
                continue
            E, cut = grid.axes["E"], 2 * grid.bandlimit - two_L
            t = np.exp(-1j * np.outer(k, grid.points[1]))
            t *= np.where(k > 0, 2.0, 1.0)[:, None]  # c_k
            yield _Parity(p, m, n, k, ipow, degrees,
                          np.ascontiguousarray(E[:, cut + p:E.shape[1] - cut:2][:, ::-1]),
                          np.vstack([t.real, t.imag]), grid.axes["beta_w"] / 2.0)

    def forward_blocks(self, grid: QuadratureGrid, values: np.ndarray, bandlimit: int) -> list:
        """One (1, m, d, d) block per degree: per spin parity (a degree 2l
        meets only the 2m of its own parity), ``_STAGES`` in order."""
        blocks = [None] * (2 * bandlimit + 1)
        spare, gz = np.empty((2, values.size // 2), dtype=complex)
        for par, stage in itertools.product(self._plan(bandlimit, values.shape[1], grid), _STAGES):
            stage(par, values, blocks, gz, spare)
        return blocks

    def inverse_values(self, grid: QuadratureGrid, blocks, bandlimit: int) -> np.ndarray:
        """(N, m) samples on the grid: the adjoint of ``forward_blocks``, per
        parity the stages' adjoints in reverse, with the half of ``out`` that
        the alpha stage writes last as spare, then ``_unfold``."""
        m = blocks[0].shape[1]
        out = np.empty((2, grid.size * m // 2), dtype=complex)
        gz = np.empty_like(out[0])
        for par, stage in itertools.product(self._plan(bandlimit, m, grid), _STAGES[::-1]):
            stage(par, out, blocks, gz, out[par.p], adjoint=True)
        _unfold(*out)
        return out.reshape(-1, m)

    def evaluate_values(self, points: np.ndarray, blocks, bandlimit: int) -> np.ndarray:
        """(n, m) values of the family at arbitrary points, one trigonometric sum
        per spin parity (``_trig_sum``): as d^l_{m'm}(beta) = i^{m-m'} sum_k D_{km'}
        D_{km} e^{ik beta}, D = Delta^l, e^{i(m' alpha + m gamma + k beta)} has the
        coefficient i^{m-m'} y[k, :, m', m], y the adjoint of ``_fold``; the rows
        k < 0 are (-1)^{m-m'} those of -k, as D_{-k,m} = (-1)^{l+m} D_{km}."""
        pts, out = self.validate_coords(points), 0
        for par in self._plan(bandlimit, blocks[0].shape[1]):
            n, k = par.n, par.k
            F = np.empty((n, par.m, n, n), dtype=complex)  # (k, v, m', m), the rows k >= 0 first
            _fold(par, None, blocks, np.empty(F[:len(k)].size, dtype=complex), F.reshape(-1),
                  adjoint=True)
            F[:len(k)] *= par.ipow
            np.multiply(F[:n - len(k)], par.ipow ** 2, out=F[len(k):])
            axis = k[0] - np.arange(n)  # m, falling
            out = out + _trig_sum(pts[:, [0, 2, 1]], (axis, axis, np.r_[k, -k[:n - len(k)]]), F)
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
    layout = dual_layout(group, checked_bandlimit(bandlimit))
    terms = layout.dim**2 * (1.0 + layout.casimir) ** (-alpha)
    bins = group.label_bandlimit(layout.labels)  # the first L' holding each label
    return np.cumsum(np.bincount(bins, terms, minlength=bandlimit + 1))[1:]
