"""Wigner small-d matrices by a level-wise three-term recursion in l.

Conventions: d^l_{m'm}(beta) = <l m'| exp(-i beta J_y) |l m>, rows and columns
ordered by decreasing magnetic index m = l, l-1, ..., -l, so that the 2l = 1
matrix is

    [[ cos(b/2), -sin(b/2)],
     [ sin(b/2),  cos(b/2)]]

and D^l(alpha, beta, gamma) = diag(e^{-i m' alpha}) d^l(beta) diag(e^{-i m gamma})
restricts at 2l = 1 to the defining SU(2) matrix.

The tables are filled one degree at a time.  The four borders of level 2l
(|m'| = l or |m| = l) are the closed forms

    d^l_{l,m}  = (-1)^{l-m} sqrt(C(2l, l+m)) cos(b/2)^{l+m} sin(b/2)^{l-m},
    d^l_{-l,m} =            sqrt(C(2l, l+m)) cos(b/2)^{l-m} sin(b/2)^{l+m},

and their transposes d^l_{m',l} = (-1)^{l-m'} d^l_{l,m'}, d^l_{m',-l} =
(-1)^{l+m'} d^l_{-l,m'}, evaluated for all m at once from one table of powers
of cos(b/2) and sin(b/2) and binomial square roots taken in log space (no
overflow up to l ~ 500).  The (2l-1) x (2l-1) interior |m'|, |m| < l comes
from levels 2l-2 and 2l-4 by the recurrence in l, written for the step
l -> l+1,

    l sqrt(((l+1)^2-m'^2)((l+1)^2-m^2)) d^{l+1}
        = (2l+1) (l(l+1) u - m' m) d^l
          - (l+1) sqrt((l^2-m'^2)(l^2-m^2)) d^{l-1},        u = cos(beta),

as one array expression over all angles and all (m', m): the interior is
level 2l-2 itself, and level 2l-4 is its own interior (the d^{l-1}
coefficient vanishes on the ring |m'| = l or |m| = l).  Level 2 is the
degenerate first step d^1_00 = u.  Each interior is written in place into its
slice of the output, so a level allocates one (angles, d, d) temporary, the
product with d^{l-1}.  The recursion is stable upward in l well past l = 128.
The levels are streamed, as in SOFT (Kostelec & Rockmore, FFTs on the
Rotation Group, 2008): each is yielded when done, and only the four below it
are kept.
"""

from __future__ import annotations

from collections import deque

import numpy as np

def _fill_borders(mat: np.ndarray, two_l: int, pow_c: np.ndarray, pow_s: np.ndarray,
                  lf: np.ndarray) -> None:
    """Rows and columns |m'| = l or |m| = l of level two_l, by the closed forms;
    lf[n] = log(n!)."""
    k = np.arange(two_l + 1)  # row or column index: m = l - k
    binom = np.exp(0.5 * (lf[two_l] - lf[two_l - k] - lf[k]))
    alt = np.where(k % 2 == 0, 1.0, -1.0) * binom  # (-1)^k sqrt(C(2l, k))
    np.multiply(alt, pow_c[:, two_l - k], out=mat[:, 0, :])
    mat[:, 0, :] *= pow_s[:, k]
    np.multiply(binom, pow_c[:, k], out=mat[:, two_l, :])
    mat[:, two_l, :] *= pow_s[:, two_l - k]
    if two_l < 2:
        return
    i = k[1:-1]
    np.multiply(binom[1:-1], pow_c[:, two_l - i], out=mat[:, 1:-1, 0])
    mat[:, 1:-1, 0] *= pow_s[:, i]
    # column m = -l carries (-1)^(2l - i) sqrt(C(2l, i))
    np.multiply((-1.0) ** two_l * alt[1:-1], pow_c[:, i], out=mat[:, 1:-1, two_l])
    mat[:, 1:-1, two_l] *= pow_s[:, two_l - i]


def wigner_d_matrices(two_l_max: int, beta):
    """The small-d matrices of 2l = 0..two_l_max on a batch of angles, in order.

    Yields level two_l, read-only, of shape (len(beta), 2l+1, 2l+1) with axes
    ordered (angle, row m' = l..-l, column m = l..-l); only levels 2l-1..2l-4,
    which the recursion still needs, are kept alive.
    """
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    u = np.cos(beta)
    ch = np.cos(beta / 2.0)
    sh = np.sin(beta / 2.0)
    # (angle, exponent); scalar exponents keep numpy's exact x**2 path
    pow_c = np.stack([np.power(ch, p) for p in range(two_l_max + 1)], axis=1)
    pow_s = np.stack([np.power(sh, p) for p in range(two_l_max + 1)], axis=1)
    lf = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, two_l_max + 2, dtype=float)))])
    below = deque(maxlen=4)  # levels two_l-4 .. two_l-1
    for two_l in range(two_l_max + 1):
        mat = np.zeros((len(beta), two_l + 1, two_l + 1))
        _fill_borders(mat, two_l, pow_c, pow_s, lf)
        if two_l == 2:
            mat[:, 1, 1] = u  # d^1_00 = u d^0_00
        elif two_l > 2:
            # step l -> l+1 from the two previous levels, l = (two_l - 2) / 2
            l = (two_l - 2) / 2.0
            ms = l - np.arange(two_l - 1)  # m = l..-l
            interior = mat[:, 1:-1, 1:-1]
            np.subtract((l * (l + 1) * u)[:, None, None], np.multiply.outer(ms, ms),
                        out=interior)
            interior *= 2 * l + 1
            interior *= below[-2]
            if two_l > 3:
                drop = l * l - ms[1:-1] ** 2
                b = (l + 1) * np.sqrt(np.multiply.outer(drop, drop))
                interior[:, 1:-1, 1:-1] -= b * below[-4]
            lift = (l + 1) ** 2 - ms ** 2
            interior /= l * np.sqrt(np.multiply.outer(lift, lift))
        mat.flags.writeable = False
        below.append(mat)
        yield mat
