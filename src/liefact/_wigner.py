"""Wigner small-d matrices by Risbo's half-step recursion.

Conventions: d^l_{m'm}(beta) = <l m'| exp(-i beta J_y) |l m>, rows and columns
ordered by decreasing magnetic index m = l, l-1, ..., -l, so that the 2l = 1
matrix is

    [[ cos(b/2), -sin(b/2)],
     [ sin(b/2),  cos(b/2)]]

and D^l(alpha, beta, gamma) = diag(e^{-i m' alpha}) d^l(beta) diag(e^{-i m gamma})
restricts at 2l = 1 to the defining SU(2) matrix.

Level n = 2l is built from level n-1, half a spin below, by Risbo's
recursion (Risbo, Fourier transform summation of Legendre series and
D-functions, J. Geodesy 70, 1996; McEwen & Wiaux's SSHT builds its tables
the same way): with c = cos(beta/2), s = sin(beta/2) and indices
i, k = 0..n-1 of level n-1 (m' = (n-1)/2 - i, m = (n-1)/2 - k), each entry
d_{ik} of level n-1 adds, divided by n,

    sqrt(n-i) sqrt(n-k) c d_{ik}   to  (i,   k),
    sqrt(i+1) sqrt(n-k) s d_{ik}   to  (i+1, k),
   -sqrt(n-i) sqrt(k+1) s d_{ik}   to  (i,   k+1),
    sqrt(i+1) sqrt(k+1) c d_{ik}   to  (i+1, k+1)

of level n: four shifted, weighted copies of the level below.  One loop
makes every level whole, integer and half-integer spins alike, from
d^0 = 1.  Against the factorial sum formula in exact arithmetic, at
(c, s) = (3/5, 4/5) and (12/13, 5/13), the largest error of an entry is
5.0e-16 and 1.2e-15 at 2l = 64 (``test_wigner.py`` holds it to 2e-15), and
8.9e-16 and 1.6e-15 at 2l = 128.

Each level is stored (row, column, angle): the angle axis, the long one, is
innermost, so every product and sum of a step runs along it as numpy's
inner loop.  Every step is elementwise in the angle, with the same
operations in the same order for every angle, so a level is bit for bit the
same on any batch of its angles.  The levels are streamed: each is yielded,
read-only, when done, and only the level below is kept.

The recursion runs for ``wigner_d_half_pi`` and for ``irrep_matrices``
alone.  ``wigner_d_half_pi`` keeps the full levels at the one angle pi/2,
cached and read-only: through them every d^l(beta) is a Fourier series in
beta, which is how the SU(2) transform and ``SU2.evaluate_values`` read
d^l(beta), on the grid and off it.  No other table of levels is stored.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def wigner_d_matrices(two_l_max: int, beta):
    """The small-d matrices of 2l = 0..two_l_max on a batch of angles, in order.

    Yields level two_l, read-only, of shape (len(beta), 2l+1, 2l+1), axes
    (angle, row m' = l..-l, column m = l..-l): a transposed view of
    (row, column, angle) storage, so not C-contiguous.
    """
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    c, s = np.cos(beta / 2.0), np.sin(beta / 2.0)
    level = np.ones((1, 1, len(beta)))  # stored (i, k, angle)
    for n in range(two_l_max + 1):
        if n:
            down, up = np.sqrt(np.arange(n, 0, -1.0)), np.sqrt(np.arange(1.0, n + 1))
            below, level = level, np.zeros((n + 1, n + 1, len(beta)))
            term = c * below
            level[:-1, :-1] += (np.multiply.outer(down, down) / n)[..., None] * term
            level[1:, 1:] += (np.multiply.outer(up, up) / n)[..., None] * term
            np.multiply(s, below, out=term)
            level[1:, :-1] += (np.multiply.outer(up, down) / n)[..., None] * term
            level[:-1, 1:] -= (np.multiply.outer(down, up) / n)[..., None] * term
        level.flags.writeable = False
        yield level.transpose(2, 0, 1)


@lru_cache(maxsize=None)
def wigner_d_half_pi(two_l_max: int) -> tuple[np.ndarray, ...]:
    """Delta^l = d^l(pi/2), each full (2l+1, 2l+1) level for 2l = 0..two_l_max.

    They factor every d^l(beta) into a Fourier series in beta (Risbo 1996),

        d^l_{m'm}(beta) = i^{m-m'} sum_k Delta^l_{km'} Delta^l_{km} e^{ik beta},

    k = l..-l.  Built once per two_l_max and read-only, since every caller
    shares them: 100 KB at two_l_max = 32, 5.8 MB at 128.
    """
    return tuple(level[0] for level in wigner_d_matrices(two_l_max, np.pi / 2))
