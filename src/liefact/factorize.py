"""Strong factorization of functions and vectors, global and supported.

Global factorization.  Given f with coefficients T and parameters h' > h,
the multipliers

    C_xi = exp((1/h') w(sqrt(lambda_xi)))

define g through F(g)(xi) = C_xi^-1 Id and f' through F(f')(xi) = C_xi T_xi.
Then F(g * f')(xi) = C_xi^-1 C_xi T_xi = T_xi, so f = g * f' exactly on the
truncated dual, and the decay transfers with the weaker exponent:

    ||F(f')(xi)||_HS e^{(1/h - 1/h') w(sqrt(lambda))} = ||T_xi||_HS e^{(1/h) w}
                                                   <= p_hat_{w,h}(T).

One g factors a whole family at once (bounded strong factorization): the
members are stacked along value_dim and factored as one C^m-valued function.
The vector form applies this to the orbit map gamma_v(x) = pi(x) v of a
finite-dimensional representation, where evaluating f'_v at the identity
yields v_tilde with gamma_{v_tilde} = f'_v and v = Pi(g_check) v_tilde,
g_check(x) = g(x^-1).  No table of pi is built: an orbit map is one inverse
transform and Pi(chi) v one forward transform of chi.

Supported factorization (torus(1), non-quasianalytic weights).  The inverse
transform Phi of (e^{-w(sqrt(lambda))/(2h')} Id) is split by a bump partition
of unity into k pieces psi_j, each supported in a translate of W = (-d/2, d/2)
with W + W inside V = (-d, d).  Then

    g = sum_j psi_j^* * psi_j          (supported in V),
    S_xi = F(g)(xi) = sum_j F(psi_j)(xi)^dagger F(psi_j)(xi),

is Hermitian positive definite with smallest eigenvalue

    mu_xi >= e^{-(1/h') w(sqrt(lambda_xi))} / k

by Cauchy-Schwarz, because the pieces sum back to Phi.  The bound holds for
the quadrature coefficients verbatim (the pieces sum to Phi exactly on the
grid), so it is checkable to roundoff even though the pieces themselves are
not band-limited.  The pieces are one function with value_dim = k, so one
transform gives all F(psi_j).  Dividing, f' = F^-1(S_xi^-1 F(f)(xi)) gives
f = g * f' with g supported in V.  Per-xi results are arrays aligned with
``layout.duals``, except the xi-keyed ``mu`` and ``mu_bounds``.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
import operator

import numpy as np

from .classify import decay_seminorm
from .errors import (
    BandlimitMismatchError,
    ConditioningError,
    CoverageError,
    DomainError,
    ParameterError,
    QuasianalyticError,
)
from .fourier import (
    FourierCoefficients,
    GridFunction,
    compose,
    forward,
    inverse,
)
from .groups import DualIndex, QuadratureGrid, Torus, dual_layout
from .weights import WeightFunction, eval_weight


# ---------------------------------------------------------------------------
# finite-dimensional representations and orbit maps
# ---------------------------------------------------------------------------


class FiniteRep:
    """A finite-dimensional unitary representation: block-diagonal irreps in a
    fixed unitary basis (identity by default).  It holds no table of pi."""

    def __init__(self, group, blocks, basis: np.ndarray | None = None):
        self.group = group
        self.blocks = list(blocks)
        ends = np.cumsum([0] + [xi.dim for xi in self.blocks]).tolist()
        self.total_dim = ends[-1]
        self._rows = [slice(a, b) for a, b in zip(ends, ends[1:])]  # block j's rows
        basis = np.asarray(np.eye(self.total_dim) if basis is None else basis, dtype=complex)
        if basis.shape != (self.total_dim, self.total_dim):
            raise ParameterError("basis must be m x m with m the total block dimension")
        if not np.abs(basis.conj().T @ basis - np.eye(self.total_dim)).max(initial=0) <= 1e-10:
            raise ParameterError("basis must be unitary: |basis^dagger basis - Id| > 1e-10")
        self.basis = basis

    @classmethod
    def from_labels(cls, group, labels, basis=None) -> "FiniteRep":
        """The rep with one block per dual label, looked up in the dual at the
        labels' own band limit (``group.label_bandlimit``).  ParameterError
        names the first label that band limit cannot read or the dual lacks."""
        needs = [1]
        for lab in labels:  # a label whose band limit reads as no integer adds none
            with suppress(TypeError, ValueError, OverflowError):
                needs.append(operator.index(group.label_bandlimit(lab)))
        layout = dual_layout(group, max(needs))
        pos = [layout.index([lab])[0] for lab in labels]
        for lab, i in zip(labels, pos):
            if i < 0:
                raise ParameterError(f"unknown dual label {lab!r}")
        return cls(group, layout.dual_indices(pos), basis=basis)

    @property
    def bandlimit(self) -> int:
        """Smallest L whose dual contains every block."""
        return max([1] + [self.group.label_bandlimit(xi.label) for xi in self.blocks])

    def coordinates(self, v) -> np.ndarray:
        """u = basis^dagger v, the block coordinates of a vector of length m."""
        v = np.asarray(v, dtype=complex)
        if v.shape != (self.total_dim,):
            raise ParameterError(f"vector must have length {self.total_dim}")
        return self.basis.conj().T @ v

    def block_slots(self, T: FourierCoefficients):
        """(T's (m, d, d) slot at xi_j, the rows of block j) for each block j."""
        if T.group != self.group:
            raise ParameterError(f"a family on {T.group} cannot act on a rep of {self.group}")
        pos = T.layout.index([xi.label for xi in self.blocks])
        if np.any(pos < 0):
            raise BandlimitMismatchError(f"a family at L = {T.bandlimit} misses a block of the rep")
        for i, rows in zip(pos.tolist(), self._rows):
            yield T.blocks[T.layout.block[i]][T.layout.slot[i]], rows

    def evaluate(self, x) -> np.ndarray:
        """pi(x) as an m x m unitary matrix."""
        pi = np.zeros((self.total_dim, self.total_dim), dtype=complex)
        for xi, rows in zip(self.blocks, self._rows):
            pi[rows, rows] = self.group.irrep_matrix(xi, x)
        return self.basis @ pi @ self.basis.conj().T


def orbit_map(rep: FiniteRep, v, grid: QuadratureGrid | None = None) -> GridFunction:
    """The orbit gamma_v(x) = pi(x) v on a grid exact to ``rep.bandlimit``: one inverse
    of the family with slot a = e_a conj(u_j)^T / d_j at xi_j, conjugated (u = basis^dagger v)."""
    u = rep.coordinates(v)
    grid = rep.group.haar_quadrature(rep.bandlimit) if grid is None else grid
    T = FourierCoefficients.zeros(grid.group, rep.bandlimit, rep.total_dim)
    for slot, rows in rep.block_slots(T):
        d = slot.shape[-1]
        slot[rows] = np.eye(d)[:, :, None] * u[rows].conj() / d
    values = inverse(T, grid).values
    values = np.conjugate(values, out=values) @ rep.basis.T
    return GridFunction(rep.group, grid, values)


def induced_action(rep: FiniteRep, chi: GridFunction, v) -> np.ndarray:
    """Pi(chi) v = sum_nodes weight chi(x) pi(x) v = basis (+)_j F(chi)(xi_j) u_j:
    one forward on chi's grid, exact to ``rep.bandlimit`` (u = basis^dagger v)."""
    u = rep.coordinates(v)
    if chi.value_dim != 1:
        raise ParameterError("the acting function must be scalar-valued")
    out = np.empty(rep.total_dim, dtype=complex)
    for slot, rows in rep.block_slots(forward(chi, rep.bandlimit)):
        out[rows] = slot[0] @ u[rows]
    return rep.basis @ out


# ---------------------------------------------------------------------------
# global strong factorization
# ---------------------------------------------------------------------------


def _resolve_h_prime(h: float, h_prime: float | None) -> float:
    """h' for the exponent h: h > 0, h' defaults to 2h and must exceed h."""
    if not 0 < h < np.inf:
        raise ParameterError("h must be positive and finite")
    h_prime = 2.0 * h if h_prime is None else h_prime
    if not h < h_prime < np.inf:
        raise ParameterError("h' must exceed h and be finite")
    return h_prime


@dataclass
class FactorizationResult:
    g: FourierCoefficients                    # scalar; F(g)(xi) = C_xi^-1 Id
    f_prime: FourierCoefficients              # F(f')(xi) = C_xi F(f)(xi)
    multipliers: np.ndarray                   # C_xi, aligned with layout.duals
    weight: WeightFunction
    h: float
    h_prime: float
    slot_residuals: np.ndarray                # sup |f - g * f'| per value slot
    transfer_margins: np.ndarray              # p_hat_{w,h}(f) - per-xi transferred norm
    source_seminorm: float                    # p_hat_{w,h}(F f)
    h_effective: float                        # 1 / (1/h - 1/h')

    @property
    def residual(self) -> float:
        """sup |f - g * f'| over every value slot."""
        return float(np.max(self.slot_residuals))

    @property
    def min_transfer_margin(self) -> float:
        return float(np.min(self.transfer_margins))

    @property
    def min_transfer_margin_relative(self) -> float:
        """Worst margin relative to the source seminorm (roundoff-scaled)."""
        return self.min_transfer_margin / max(self.source_seminorm, 1e-300)


def strong_factorize(f: GridFunction, w: WeightFunction, h: float,
                     h_prime: float | None = None) -> FactorizationResult:
    """Factor f = g * f' with multipliers C_xi = e^{w(sqrt(lambda))/h'}.

    Exact on the truncated dual; the decay of f' is certified at the weaker
    exponent 1/h - 1/h' via the per-xi transfer margins.
    """
    h_prime = _resolve_h_prime(h, h_prime)
    T = forward(f)
    w_sqrt_lam = eval_weight(w, np.sqrt(T.layout.casimir))
    mult = np.exp(w_sqrt_lam / h_prime)
    g_hat = FourierCoefficients.diagonal(f.group, T.bandlimit, 1.0 / mult)
    fprime_hat = T.scaled(mult)
    residual = inverse(compose(g_hat, fprime_hat), f.grid).values
    residual -= f.values  # in place: at SU(2) L=64 each is 70 MB
    h_eff = 1.0 / (1.0 / h - 1.0 / h_prime)
    source = decay_seminorm(T, w, h)
    return FactorizationResult(
        g=g_hat, f_prime=fprime_hat, multipliers=mult, weight=w, h=h, h_prime=h_prime,
        slot_residuals=np.max(np.abs(residual), axis=0),
        transfer_margins=source - fprime_hat.hs_norms() * np.exp(w_sqrt_lam / h_eff),
        source_seminorm=source, h_effective=h_eff,
    )


@dataclass
class BoundedFactorizationResult:
    g: FourierCoefficients
    f_primes: list[FourierCoefficients]
    multipliers: np.ndarray  # C_xi, aligned with layout.duals
    residuals: np.ndarray    # sup |f_i - g * f'_i| per member
    family_seminorm: float   # sup_i p_hat_{w, h_eff}(f'_i): the image family is bounded
    h_effective: float


def bounded_factorize_set(fs, w: WeightFunction, h: float,
                          h_prime: float | None = None) -> BoundedFactorizationResult:
    """One g factors every member of the family: f_i = g * f'_i.

    The members share one grid, so they share its band limit; they are
    factored stacked along value_dim and f' is split back by each member's
    width.
    """
    fs = list(fs)
    if not fs:
        raise ParameterError("the family must be non-empty")
    grid = fs[0].grid
    if any(f.grid is not grid for f in fs):
        raise ParameterError("family members must share one grid")
    stacked = np.concatenate([f.values for f in fs], axis=1)
    res = strong_factorize(GridFunction(fs[0].group, grid, stacked), w, h, h_prime)
    fp, cuts = res.f_prime, np.cumsum([f.value_dim for f in fs])[:-1]
    f_primes = [FourierCoefficients(fp.group, fp.bandlimit, blocks)
                for blocks in zip(*(np.split(b, cuts, axis=1) for b in fp.blocks))]
    # hs_norms maximizes over slices, so the stacked seminorm is the max over members
    return BoundedFactorizationResult(
        g=res.g, f_primes=f_primes, multipliers=res.multipliers,
        residuals=np.maximum.reduceat(res.slot_residuals, np.r_[0, cuts]),
        family_seminorm=decay_seminorm(fp, w, res.h_effective),
        h_effective=res.h_effective,
    )


@dataclass
class VectorFactorizationResult:
    g_check: GridFunction          # x |-> g(x^-1)
    v_tilde: np.ndarray            # f'_v(e) = sum_xi d_xi C_xi Tr[F gamma_v(xi)]
    action_residual: float         # max |v - Pi(g_check) v_tilde|
    orbit_residual: float          # sup |gamma_{v_tilde} - f'_v|
    factorization: FactorizationResult


def factorize_vector(rep: FiniteRep, v, w: WeightFunction, h: float,
                     h_prime: float | None = None) -> VectorFactorizationResult:
    """Factor v = Pi(g_check) v_tilde through the orbit map of a finite rep."""
    gamma = orbit_map(rep, v)  # checks the length of v
    res, grid = strong_factorize(gamma, w, h, h_prime), gamma.grid
    del gamma  # the orbit is (N, m); only its grid is read below
    fp = res.f_prime  # xi(e) = Id, so f'_v(e) is a sum of traces
    v_tilde = sum(d * np.trace(b, axis1=2, axis2=3).sum(axis=0)
                  for d, b in zip(fp.layout.dims, fp.blocks))
    g_grid = inverse(res.g, grid)
    g_check = GridFunction(rep.group, grid, g_grid.values[grid.inversion_permutation])
    recovered = induced_action(rep, g_check, v_tilde)
    action_residual = float(np.max(np.abs(recovered - v)))
    diff = orbit_map(rep, v_tilde, grid).values
    diff -= inverse(fp, grid).values  # in place: the orbits are (N, m)
    orbit_residual = float(np.max(np.abs(diff)))
    return VectorFactorizationResult(
        g_check=g_check, v_tilde=v_tilde, action_residual=action_residual,
        orbit_residual=orbit_residual, factorization=res,
    )


# ---------------------------------------------------------------------------
# compactly supported factorization on the circle
# ---------------------------------------------------------------------------


def _circle_distance(x, center: float) -> np.ndarray:
    return np.abs(np.mod(np.asarray(x, float) - center + np.pi, 2 * np.pi) - np.pi)


def gevrey_bump(s: float, center: float, halfwidth: float,
                grid: QuadratureGrid) -> GridFunction:
    """Compactly supported Gevrey-order-s bump on the circle:

        x |-> exp(-(1 - ((x-center)/halfwidth)^2)^(-1/(s-1)))  inside,  0 outside.
    """
    if not 1.0 < s < np.inf:
        raise QuasianalyticError(
            "bump order s must be finite and exceed 1 (quasianalytic classes "
            "have no compactly supported members)"
        )
    if not isinstance(grid.group, Torus) or grid.group.d != 1:
        raise DomainError("bumps are implemented on torus(1)")
    if not 0.0 < halfwidth < np.pi:
        raise DomainError("halfwidth must lie in (0, pi)")
    r = _circle_distance(grid.nodes[:, 0], center) / halfwidth
    vals = np.zeros(grid.size)
    inside = r < 1.0
    with np.errstate(over="ignore", divide="ignore"):
        vals[inside] = np.exp(-((1.0 - r[inside] ** 2) ** (-1.0 / (s - 1.0))))
    return GridFunction(grid.group, grid, vals)


def default_piece_count(delta: float) -> int:
    """Pieces used when k is unspecified: spacing delta/2 plus one for overlap."""
    return int(np.ceil(2 * np.pi / (delta / 2.0))) + 1


def bump_partition_of_unity(delta: float, k_pieces: int | None, bump_order: float,
                            grid: QuadratureGrid) -> GridFunction:
    """k bumps chi_j with sum_j chi_j = 1, as one function with value_dim = k,
    each supported in a translate of W = (-delta/2, delta/2); raises when k
    translates cannot cover the circle.  k = None takes default_piece_count."""
    if not 0 < delta < np.pi:
        raise DomainError("the support parameter delta must lie in (0, pi)")
    if k_pieces is None:
        k_pieces = default_piece_count(delta)
    if k_pieces < 1:
        raise ParameterError(f"the piece count k must be at least 1, got {k_pieces}")
    spacing = 2 * np.pi / k_pieces
    if spacing >= delta:
        raise CoverageError(
            f"{k_pieces} pieces of width delta = {delta:g} cannot cover the "
            f"circle; need k > 2*pi/delta = {2 * np.pi / delta:.2f}"
        )
    halfwidth = delta / 2.0
    centers = spacing * np.arange(k_pieces)
    bumps = np.array([gevrey_bump(bump_order, c, halfwidth, grid).values[:, 0] for c in centers])
    total = np.sum(bumps.real, axis=0)
    if np.min(total) <= 0:
        raise CoverageError("bump pieces leave part of the circle uncovered")
    return GridFunction(grid.group, grid, (bumps / total).T)


def build_partition(delta: float, k_pieces: int | None, bump_order: float,
                    w: WeightFunction, h_prime: float,
                    grid: QuadratureGrid) -> GridFunction:
    """Pieces psi_j = chi_j * Phi with Phi = F^-1(e^{-w(sqrt(lambda))/(2h')} Id),
    as one function with value_dim = k.

    The pieces sum back to Phi exactly on the grid and each vanishes outside
    its translate of W.
    """
    if not 0 < h_prime < np.inf:
        raise ParameterError("h' must be positive and finite")
    chis = bump_partition_of_unity(delta, k_pieces, bump_order, grid)
    lam = dual_layout(grid.group, grid.bandlimit).casimir
    half_decay = FourierCoefficients.diagonal(
        grid.group, grid.bandlimit, np.exp(-eval_weight(w, np.sqrt(lam)) / (2 * h_prime)))
    phi = inverse(half_decay, grid)
    return GridFunction(grid.group, grid, chis.values * phi.values)


_MU_FLOOR = 1e-13  # an S block whose smallest eigenvalue is below this is singular


@dataclass
class SupportedFactorizationResult:
    g: GridFunction
    support_delta: float
    S: np.ndarray                     # Hermitian PSD blocks F(g)(xi), aligned with layout.duals
    mu: dict[DualIndex, float]        # smallest eigenvalues
    mu_bounds: dict[DualIndex, float] # e^{-w(sqrt(lambda))/h'}/k
    f_prime: FourierCoefficients
    k: int
    residual: float
    outside_support_mass: float       # sup |g| outside V
    weight: WeightFunction
    h: float
    h_prime: float

    @property
    def min_mu_margin(self) -> float:
        """Smallest mu_xi - e^{-w(sqrt(lambda))/h'}/k; negative breaks the bound."""
        return min(self.mu[xi] - self.mu_bounds[xi] for xi in self.mu)


def supported_factorize(f: GridFunction, delta: float, w: WeightFunction,
                        h: float, h_prime: float | None = None,
                        k: int | None = None,
                        bump_order: float = 2.0) -> SupportedFactorizationResult:
    """Factor f = g * f' with g supported in V = (-delta, delta) on torus(1)."""
    if not isinstance(f.group, Torus) or f.group.d != 1:
        raise DomainError("supported factorization is implemented on torus(1)")
    if not w.satisfies_beta0:
        raise QuasianalyticError(
            "supported factorization needs a non-quasianalytic weight "
            "(satisfies_beta0)"
        )
    if not w.satisfies_gamma:
        raise DomainError(f"supported factorization needs log t = o(w(t)) (satisfies_gamma); "
                          f"{w.spec_string()} fails it")
    h_prime = _resolve_h_prime(h, h_prime)
    grid = f.grid
    pieces = forward(build_partition(delta, k, bump_order, w, h_prime, grid))
    k = pieces.value_dim
    layout, P = pieces.layout, pieces.blocks[0]  # the circle: (n_dual, k, 1, 1)
    S = np.einsum("njba,njbc->nac", P.conj(), P)  # sum over the pieces j
    mu = np.min(np.linalg.eigvalsh(S), axis=1)
    bounds = np.exp(-eval_weight(w, np.sqrt(layout.casimir)) / h_prime) / k
    singular = np.flatnonzero(mu < _MU_FLOOR)
    if singular.size:
        xi = layout.duals[singular[0]]
        raise ConditioningError(
            f"S block at xi = {xi.label} is numerically singular "
            f"(mu = {mu[singular[0]]:.3e})", xi=xi,
        )
    T = forward(f)
    fprime_hat = FourierCoefficients(
        f.group, grid.bandlimit, [np.einsum("nab,nvbc->nvac", np.linalg.inv(S), T.blocks[0])])
    S_hat = FourierCoefficients(f.group, grid.bandlimit, [S[:, None]])
    g_grid = inverse(S_hat, grid)
    recombined = inverse(compose(S_hat, fprime_hat), grid)
    residual = float(np.max(np.abs(recombined.values - f.values)))
    outside = _circle_distance(grid.nodes[:, 0], 0.0) >= delta
    g_abs = np.abs(g_grid.values[:, 0])
    outside_mass = float(np.max(g_abs[outside])) if outside.any() else 0.0
    return SupportedFactorizationResult(
        g=g_grid, support_delta=delta, S=S,
        mu=dict(zip(layout.duals, mu.tolist())),
        mu_bounds=dict(zip(layout.duals, bounds.tolist())),
        f_prime=fprime_hat, k=k, residual=residual,
        outside_support_mass=outside_mass, weight=w, h=h, h_prime=h_prime,
    )
