"""The hot inner loops: Walsh-Hadamard butterfly and simplex pivot update.

Both work in place on float64 numpy arrays.
"""

from __future__ import annotations

import numpy as np

__all__ = ["fwht_inplace", "pivot_update"]


def fwht_inplace(a: np.ndarray) -> None:
    """Walsh-Hadamard transform of a length 2**n float64 vector, in place.

    Unnormalized: applying it twice multiplies the input by 2**n.
    """
    size = a.shape[0]
    h = 1
    while h < size:
        b = a.reshape(-1, 2, h)
        x = b[:, 0, :].copy()
        y = b[:, 1, :].copy()
        b[:, 0, :] = x + y
        b[:, 1, :] = x - y
        h *= 2


def pivot_update(tableau: np.ndarray, row: int, col: int) -> None:
    """One simplex pivot on a dense tableau, in place.

    Divides ``row`` by the pivot element, then eliminates ``col`` from every
    other row by a rank-1 update.
    """
    tableau[row, :] /= tableau[row, col]
    colv = tableau[:, col].copy()
    colv[row] = 0.0
    tableau[:, :] -= np.outer(colv, tableau[row, :])
