"""Tests of the Walsh-Hadamard and simplex pivot kernels."""

import numpy as np

import stabcert
from stabcert.kernels import fwht_inplace, pivot_update


def test_active_backend_is_reported():
    assert stabcert.KERNEL_BACKEND == "python"


def test_fwht_matches_hadamard_matrix():
    rng = np.random.default_rng(1)
    for n in (1, 2, 3, 4):
        h = np.array([[1.0]])
        for _ in range(n):
            h = np.block([[h, h], [h, -h]])
        x = rng.standard_normal(1 << n)
        buf = x.copy()
        fwht_inplace(buf)
        assert np.allclose(buf, h @ x, atol=1e-12)


def test_fwht_involution_up_to_scale():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(256)
    buf = x.copy()
    fwht_inplace(buf)
    fwht_inplace(buf)
    assert np.allclose(buf / 256.0, x, atol=1e-12)


def test_pivot_update_semantics():
    # After the update the pivot column must be the unit vector e_row.
    rng = np.random.default_rng(4)
    tab = rng.standard_normal((5, 8))
    tab[2, 3] = 2.0
    pivot_update(tab, 2, 3)
    want = np.zeros(5)
    want[2] = 1.0
    assert np.allclose(tab[:, 3], want, atol=1e-15)
