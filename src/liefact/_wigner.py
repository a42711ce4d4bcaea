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
(angles, h, d) temporary, the product with d^{l-1}.  The recursion is stable
upward in l well past l = 128.  The levels are streamed, as in SOFT (Kostelec
& Rockmore, FFTs on the Rotation Group, 2008), which also uses the mirror:
each level is yielded when done, and only the four below it are kept.
"""

from __future__ import annotations

from collections import deque

import numpy as np

def _fill_borders(mat: np.ndarray, two_l: int, pow_c: np.ndarray, pow_s: np.ndarray,
                  lf: np.ndarray) -> None:
    """Row m' = l and columns |m| = l of the upper rows of level two_l, by the
    closed forms; lf[n] = log(n!)."""
    k = np.arange(two_l + 1)  # row or column index: m = l - k
    binom = np.exp(0.5 * (lf[two_l] - lf[two_l - k] - lf[k]))
    alt = np.where(k % 2 == 0, 1.0, -1.0) * binom  # (-1)^k sqrt(C(2l, k))
    np.multiply(alt, pow_c[:, two_l - k], out=mat[:, 0, :])
    mat[:, 0, :] *= pow_s[:, k]
    i = k[1:mat.shape[1]]
    np.multiply(binom[i], pow_c[:, two_l - i], out=mat[:, 1:, 0])
    mat[:, 1:, 0] *= pow_s[:, i]
    # column m = -l carries (-1)^(2l - i) sqrt(C(2l, i))
    np.multiply((-1.0) ** two_l * alt[i], pow_c[:, i], out=mat[:, 1:, two_l])
    mat[:, 1:, two_l] *= pow_s[:, two_l - i]


def wigner_d_matrices(two_l_max: int, beta):
    """The upper rows of the small-d matrices of 2l = 0..two_l_max on a batch
    of angles, in order.

    Yields level two_l, read-only, of shape (len(beta), two_l//2 + 1, 2l+1)
    with axes ordered (angle, row m' = l..m' >= 0, column m = l..-l); only
    levels 2l-1..2l-4, which the recursion still needs, are kept alive.
    ``complete_level`` adds the rows m' < 0.
    """
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    n, u = len(beta), np.cos(beta)
    ch = np.cos(beta / 2.0)
    sh = np.sin(beta / 2.0)
    # (angle, exponent); scalar exponents keep numpy's exact x**2 path
    pow_c = np.stack([np.power(ch, p) for p in range(two_l_max + 1)], axis=1)
    pow_s = np.stack([np.power(sh, p) for p in range(two_l_max + 1)], axis=1)
    del beta, ch, sh
    lf = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, two_l_max + 2, dtype=float)))])
    below = deque(maxlen=4)  # levels two_l-4 .. two_l-1
    for two_l in range(two_l_max + 1):
        h = two_l // 2 + 1
        mat = np.zeros((n, h, two_l + 1))
        _fill_borders(mat, two_l, pow_c, pow_s, lf)
        if two_l == 2:
            mat[:, 1, 1] = u  # d^1_00 = u d^0_00
        elif two_l > 2:
            # step l -> l+1 from the two previous levels, l = (two_l - 2) / 2;
            # rows 1..h-1 here are the h-1 upper rows of level two_l-2
            l = (two_l - 2) / 2.0
            ms = l - np.arange(two_l - 1)  # m = l..-l
            interior = mat[:, 1:, 1:-1]
            np.subtract((l * (l + 1) * u)[:, None, None], np.multiply.outer(ms[:h - 1], ms),
                        out=interior)
            interior *= 2 * l + 1
            interior *= below[-2]
            if two_l > 3:
                drop = l * l - ms ** 2
                b = (l + 1) * np.sqrt(np.multiply.outer(drop[1:h - 1], drop[1:-1]))
                interior[:, 1:, 1:-1] -= b * below[-4]
            lift = (l + 1) ** 2 - ms ** 2
            interior /= l * np.sqrt(np.multiply.outer(lift[:h - 1], lift))
        mat.flags.writeable = False
        below.append(mat)
        yield mat


def complete_level(upper: np.ndarray, mirror: np.ndarray | None = None) -> np.ndarray:
    """The full (..., 2l+1, 2l+1) level from its upper rows m' >= 0.

    The rows m' < 0 are the mirror X_{-m',-m} = (-1)^{m'-m} conj(X_{m'm}), which
    holds for d^l(beta) (real) and for D^l(x) with the ZYZ phases alike.  They
    are taken from the upper rows of ``mirror`` when given: the SU(2) forward
    transform mirrors those of conj f.
    """
    h, d = upper.shape[-2:]
    k = np.arange(d)
    out = np.empty(upper.shape[:-2] + (d, d), dtype=upper.dtype)
    out[..., :h, :] = upper
    lower = out[..., h:, :]
    mirror = upper if mirror is None else mirror
    # (-1)^{m'-m} = (-1)^{i+j} on indices
    np.multiply(mirror[..., d - h - 1::-1, ::-1], 1 - 2 * ((k[h:, None] + k) % 2), out=lower)
    np.conjugate(lower, out=lower)
    return out
