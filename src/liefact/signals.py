"""Built-in test signals with closed-form coefficient laws.

The Poisson family e^{-t sqrt(lambda)} and heat family e^{-t lambda} make CLI
demos and classification tests self-verifying; the coefficients are
synthesized so the reported Hilbert-Schmidt norms follow the law exactly.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .fourier import FourierCoefficients, GridFunction, inverse
from .groups import QuadratureGrid, dual_layout


def synth_coefficients(group, bandlimit: int, hs_norm_fn) -> FourierCoefficients:
    """Scalar coefficients Id * hs_norm_fn(lambda)/sqrt(d), so that
    ||T_xi||_HS = hs_norm_fn(lambda_xi) exactly.  The law is called once on
    all eigenvalues, or per eigenvalue if it only accepts scalars."""
    layout = dual_layout(group, bandlimit)
    lam = layout.casimir
    try:
        norms = np.broadcast_to(np.asarray(hs_norm_fn(lam), dtype=float), lam.shape)
    except ValueError:
        norms = np.vectorize(hs_norm_fn, otypes=[float])(lam)
    return FourierCoefficients.diagonal(group, bandlimit, norms / np.sqrt(layout.dim))


def poisson_coefficients(group, bandlimit: int, t: float) -> FourierCoefficients:
    """||T_xi||_HS = exp(-t sqrt(lambda_xi)); on T^1 this is exp(-t |k|)."""
    if not 0 < t < np.inf:
        raise ParameterError("poisson parameter t must be positive and finite")
    return synth_coefficients(group, bandlimit, lambda lam: np.exp(-t * np.sqrt(lam)))


def heat_coefficients(group, bandlimit: int, t: float) -> FourierCoefficients:
    """||T_xi||_HS = exp(-t lambda_xi)."""
    if not 0 < t < np.inf:
        raise ParameterError("heat parameter t must be positive and finite")
    return synth_coefficients(group, bandlimit, lambda lam: np.exp(-t * lam))


def reproducing_kernel(group, bandlimit: int) -> FourierCoefficients:
    """T_xi = Id for every xi within the band limit (truncated delta)."""
    return FourierCoefficients.diagonal(group, bandlimit,
                                        np.ones(len(dual_layout(group, bandlimit).labels)))


def poisson_function(group, grid: QuadratureGrid, t: float) -> GridFunction:
    return inverse(poisson_coefficients(group, grid.bandlimit, t), grid)


def heat_function(group, grid: QuadratureGrid, t: float) -> GridFunction:
    return inverse(heat_coefficients(group, grid.bandlimit, t), grid)


def random_bandlimited(group, grid: QuadratureGrid, rng, value_dim: int = 1,
                       decay: float = 0.3) -> GridFunction:
    """Random band-limited function with mildly decaying random coefficients;
    the blocks draw their members in dual order, as one draw per xi would."""
    layout = dual_layout(group, grid.bandlimit)
    damp = np.exp(-decay * np.sqrt(layout.casimir))
    blocks = []
    for d, idx in zip(layout.dims, layout.members):
        z = rng.standard_normal((len(idx), 2, value_dim, d, d))
        blocks.append((z[:, 0] + 1j * z[:, 1]) * damp[idx, None, None, None] / d)
    return inverse(FourierCoefficients(group, grid.bandlimit, blocks), grid)


def parse_builtin_spec(spec: str):
    """Parse "poisson:t", "heat:t" or "bump:s:halfwidth" into (name, params)."""
    parts = spec.split(":")
    name = parts[0]
    if name == "poisson" and len(parts) == 2:
        return ("poisson", (float(parts[1]),))
    if name == "heat" and len(parts) == 2:
        return ("heat", (float(parts[1]),))
    if name == "bump" and len(parts) == 3:
        return ("bump", (float(parts[1]), float(parts[2])))
    raise ParameterError(f"unrecognized builtin spec {spec!r}")
