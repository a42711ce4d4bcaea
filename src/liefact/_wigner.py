"""Wigner small-d matrices by a level-wise three-term recursion in l.

Conventions: d^l_{m'm}(beta) = <l m'| exp(-i beta J_y) |l m>, rows and columns
ordered by decreasing magnetic index m = l, l-1, ..., -l, so that the 2l = 1
matrix is

    [[ cos(b/2), -sin(b/2)],
     [ sin(b/2),  cos(b/2)]]

and D^l(alpha, beta, gamma) = diag(e^{-i m' alpha}) d^l(beta) diag(e^{-i m gamma})
restricts at 2l = 1 to the defining SU(2) matrix.

Only the upper rows m' >= 0 (the first 2l//2 + 1) of each level are
computed.  The rest follow from the mirror identity

    d^l_{-m',-m}(beta) = (-1)^{m'-m} d^l_{m'm}(beta),

which with the ZYZ phases reads D^l_{-m',-m}(x) = (-1)^{m'-m} conj(D^l_{m'm}(x));
``complete_level`` applies it to either.

The tables are filled one degree at a time.  The borders of level 2l in the
upper rows (m' = l, or |m| = l) are the closed forms

    d^l_{l,m}   = (-1)^{l-m} sqrt(C(2l, l+m)) cos(b/2)^{l+m} sin(b/2)^{l-m},
    d^l_{m',l}  = (-1)^{l-m'} d^l_{l,m'},
    d^l_{m',-l} = (-1)^{l+m'} sqrt(C(2l, l+m')) cos(b/2)^{l-m'} sin(b/2)^{l+m'},

evaluated for all m at once from one table of powers of cos(b/2) and
sin(b/2) and binomial square roots taken in log space (no overflow up to
l ~ 500).  The interior rows 0 <= m' < l, columns |m| < l come from levels
2l-2 and 2l-4 by the recurrence in l, written for the step l -> l+1,

    l sqrt(((l+1)^2-m'^2)((l+1)^2-m^2)) d^{l+1}
        = (2l+1) (l(l+1) u - m' m) d^l
          - (l+1) sqrt((l^2-m'^2)(l^2-m^2)) d^{l-1},        u = cos(beta),

as one array expression over all angles and all (m', m).  The recurrence is
local in (m', m), so it reads only the upper rows of the two levels below:
the interior is the upper rows of level 2l-2, and level 2l-4's upper rows
sit inside it (the d^{l-1} coefficient vanishes on the ring |m'| = l or
|m| = l).  Level 2 is the degenerate first step d^1_00 = u.  Each interior
is written in place into its slice of the output, so a level allocates one
temporary, the product with d^{l-1}.  The recursion is stable upward in l
well past l = 128.

Each level is stored (h, d, angle), and the power tables (exponent, angle):
the angle axis, the long one, is innermost, so every border, product,
subtraction and division runs along it as numpy's inner loop.  Each entry
is computed per angle with the same operations in the same order whatever
the layout and the batch, so a level is bit for bit the same on any batch
of its angles.  A level is yielded as the read-only transposed view
(angle, h, d) of its storage, not a copy.  The levels are streamed, as in
SOFT (Kostelec & Rockmore, FFTs on the Rotation Group, 2008), which also
uses the mirror: each level is yielded when done, and only the four below
it are kept.

The recursion runs for ``wigner_d_half_pi`` and for ``irrep_matrices``
alone.  ``wigner_d_half_pi`` keeps the full levels at the one angle pi/2,
cached and read-only: through them every d^l(beta) is a Fourier series in
beta, which is how the SU(2) transform and ``SU2.evaluate_values`` read
d^l(beta), on the grid and off it.  No other table of levels is stored.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache

import numpy as np

def _fill_borders(mat: np.ndarray, two_l: int, pow_c: np.ndarray, pow_s: np.ndarray,
                  lf: np.ndarray) -> None:
    """Row m' = l and columns |m| = l of the (h, d, angle) upper rows of level
    two_l, by the closed forms; pow_c/pow_s are (exponent, angle) and
    lf[n] = log(n!)."""
    k = np.arange(two_l + 1)  # row or column index: m = l - k
    binom = np.exp(0.5 * (lf[two_l] - lf[two_l - k] - lf[k]))
    alt = np.where(k % 2 == 0, 1.0, -1.0) * binom  # (-1)^k sqrt(C(2l, k))
    np.multiply(alt[:, None], pow_c[two_l - k], out=mat[0])
    mat[0] *= pow_s[k]
    i = k[1:mat.shape[0]]
    np.multiply(binom[i, None], pow_c[two_l - i], out=mat[1:, 0])
    mat[1:, 0] *= pow_s[i]
    # column m = -l carries (-1)^(2l - i) sqrt(C(2l, i))
    np.multiply(((-1.0) ** two_l * alt[i])[:, None], pow_c[i], out=mat[1:, two_l])
    mat[1:, two_l] *= pow_s[two_l - i]


def wigner_d_matrices(two_l_max: int, beta):
    """The upper rows of the small-d matrices of 2l = 0..two_l_max on a batch
    of angles, in order.

    Yields level two_l, read-only, of shape (len(beta), two_l//2 + 1, 2l+1)
    with axes ordered (angle, row m' = l..m' >= 0, column m = l..-l): a
    transposed view of (h, d, angle) storage, so not C-contiguous.  Only
    levels 2l-1..2l-4, which the recursion still needs, are kept alive.
    ``complete_level`` adds the rows m' < 0.
    """
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    n, u = len(beta), np.cos(beta)
    ch = np.cos(beta / 2.0)
    sh = np.sin(beta / 2.0)
    # (exponent, angle); scalar exponents keep numpy's exact x**2 path
    pow_c = np.stack([np.power(ch, p) for p in range(two_l_max + 1)])
    pow_s = np.stack([np.power(sh, p) for p in range(two_l_max + 1)])
    del beta, ch, sh
    lf = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, two_l_max + 2, dtype=float)))])
    below = deque(maxlen=4)  # levels two_l-4 .. two_l-1, stored (h, d, angle)
    for two_l in range(two_l_max + 1):
        h = two_l // 2 + 1
        mat = np.empty((h, two_l + 1, n))  # borders and interior cover it
        _fill_borders(mat, two_l, pow_c, pow_s, lf)
        if two_l == 2:
            mat[1, 1] = u  # d^1_00 = u d^0_00
        elif two_l > 2:
            # step l -> l+1 from the two previous levels, l = (two_l - 2) / 2;
            # rows 1..h-1 here are the h-1 upper rows of level two_l-2
            l = (two_l - 2) / 2.0
            ms = l - np.arange(two_l - 1)  # m = l..-l
            interior = mat[1:, 1:-1]
            np.subtract(l * (l + 1) * u, np.multiply.outer(ms[:h - 1], ms)[..., None],
                        out=interior)
            interior *= 2 * l + 1
            interior *= below[-2]
            if two_l > 3:
                drop = l * l - ms ** 2
                b = (l + 1) * np.sqrt(np.multiply.outer(drop[1:h - 1], drop[1:-1]))
                interior[1:, 1:-1] -= b[..., None] * below[-4]
            lift = (l + 1) ** 2 - ms ** 2
            interior /= (l * np.sqrt(np.multiply.outer(lift[:h - 1], lift)))[..., None]
        mat.flags.writeable = False
        below.append(mat)
        yield mat.transpose(2, 0, 1)


def complete_level(upper: np.ndarray) -> np.ndarray:
    """The full (..., 2l+1, 2l+1) level from its upper rows m' >= 0.

    The rows m' < 0 are the mirror X_{-m',-m} = (-1)^{m'-m} conj(X_{m'm}), which
    holds for d^l(beta) (real) and for D^l(x) with the ZYZ phases alike.
    """
    h, d = upper.shape[-2:]
    k = np.arange(d)
    out = np.empty(upper.shape[:-2] + (d, d), dtype=upper.dtype)
    out[..., :h, :] = upper
    lower = out[..., h:, :]
    # (-1)^{m'-m} = (-1)^{i+j} on indices
    np.multiply(upper[..., d - h - 1::-1, ::-1], 1 - 2 * ((k[h:, None] + k) % 2), out=lower)
    np.conjugate(lower, out=lower)
    return out


@lru_cache(maxsize=None)
def wigner_d_half_pi(two_l_max: int) -> tuple[np.ndarray, ...]:
    """Delta^l = d^l(pi/2), each full (2l+1, 2l+1) level for 2l = 0..two_l_max.

    They factor every d^l(beta) into a Fourier series in beta (Risbo 1996),

        d^l_{m'm}(beta) = i^{m-m'} sum_k Delta^l_{km'} Delta^l_{km} e^{ik beta},

    k = l..-l.  Built once per two_l_max and read-only, since every caller
    shares them: 100 KB at two_l_max = 32, 5.8 MB at 128.
    """
    out = tuple(complete_level(level[0]) for level in wigner_d_matrices(two_l_max, np.pi / 2))
    for level in out:
        level.flags.writeable = False
    return out
