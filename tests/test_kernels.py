"""Backend-agnostic checks of the low-level numeric kernels.

Every kernel ships a pure-numpy reference and (when numba is importable) a
jitted twin; the tests here pin both against LAPACK or closed forms and
against each other.
"""

import numpy as np
import pytest

from gaussatlas import _kernels
from gaussatlas._kernels import (
    HAS_NUMBA,
    NUMBA_ENABLED,
    backend,
    eigmin_sym2,
    hermitian_eigmin,
    implementations,
)

ATOL_EIG = 1e-12
ATOL_CROSS = 1e-12

needs_numba = pytest.mark.skipif(not HAS_NUMBA, reason="numba not importable")


def _both(name):
    impls = implementations(name)
    assert set(impls) == {"numpy", "numba"}
    return impls


def test_backend_name_matches_flag():
    assert backend() == ("numba" if NUMBA_ENABLED else "numpy")


def test_eigmin_sym2_against_lapack():
    rng = np.random.default_rng(11)
    for _ in range(200):
        m = rng.normal(size=(2, 2))
        m = m + m.T
        lam = eigmin_sym2(m[0, 0], m[0, 1], m[1, 1])
        assert abs(lam - np.linalg.eigvalsh(m)[0]) < ATOL_EIG


def test_eigmin_sym2_batch_backends_agree():
    rng = np.random.default_rng(12)
    m11 = rng.normal(size=(40, 7))
    m12 = rng.normal(size=(40, 7))
    m22 = rng.normal(size=(40, 7))
    impls = _both("eigmin_sym2_batch")
    ref = impls["numpy"](m11, m12, m22)
    expect = 0.5 * (m11 + m22) - np.hypot(0.5 * (m11 - m22), m12)
    np.testing.assert_allclose(ref, expect, atol=ATOL_EIG)
    if impls["numba"] is not None:
        np.testing.assert_allclose(impls["numba"](m11, m12, m22), ref, atol=ATOL_CROSS)


@needs_numba
def test_jacobi_eigvals_matches_lapack():
    rng = np.random.default_rng(13)
    fn = implementations("jacobi_eigvals")["numba"]
    for n in (2, 3, 4, 6):
        for _ in range(30):
            a = rng.normal(size=(n, n))
            a = a + a.T
            got = fn(np.ascontiguousarray(a))
            ref = np.linalg.eigvalsh(a)
            scale = max(1.0, np.abs(ref).max())
            assert np.abs(got - ref).max() < ATOL_EIG * scale


@needs_numba
def test_jacobi_eigvals_zero_matrix():
    fn = implementations("jacobi_eigvals")["numba"]
    np.testing.assert_array_equal(fn(np.zeros((4, 4))), np.zeros(4))


def test_hermitian_eigvals_backends_agree():
    rng = np.random.default_rng(14)
    impls = _both("hermitian_eigvals")
    for _ in range(50):
        a = rng.normal(size=(2, 2))
        a = a + a.T
        b = rng.normal(size=(2, 2))
        b = b - b.T
        ref = np.linalg.eigvalsh(a + 1j * b)
        np.testing.assert_allclose(impls["numpy"](a, b), ref, atol=ATOL_EIG)
        if impls["numba"] is not None:
            got = impls["numba"](np.ascontiguousarray(a), np.ascontiguousarray(b))
            np.testing.assert_allclose(got, ref, atol=1e-11)


def test_hermitian_eigmin_pauli_y_block():
    # A + iB = [[0, -i], [i, 0]] has eigenvalues -1 and 1
    a = np.zeros((2, 2))
    b = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert abs(hermitian_eigmin(a, b) + 1.0) < ATOL_EIG


def _cubic(xx, yy):
    return (0.3 * xx**3 - 1.1 * xx**2 * yy + 0.7 * xx * yy**2
            - 0.2 * yy**3 + 0.5 * xx - 1.3 * yy + 0.9)


def test_interp_cubic2d_exact_on_cubics():
    # 4-point Lagrange stencils reproduce bicubic-degree polynomials exactly
    n = 16
    ii, jj = np.meshgrid(np.arange(n, dtype=float), np.arange(n, dtype=float),
                         indexing="ij")
    values = _cubic(ii, jj)
    rng = np.random.default_rng(16)
    fx = rng.uniform(1.0, n - 2.0, size=300)
    fy = rng.uniform(1.0, n - 2.0, size=300)
    impls = _both("interp_cubic2d")
    got = impls["numpy"](values, fx, fy)
    np.testing.assert_allclose(got, _cubic(fx, fy), atol=1e-10)
    if impls["numba"] is not None:
        np.testing.assert_allclose(impls["numba"](values, fx, fy), got, atol=1e-12)


def test_interp_cubic2d_edge_clamp_stays_exact():
    # fractional indices right at the lattice edge use clamped stencils
    n = 8
    ii, jj = np.meshgrid(np.arange(n, dtype=float), np.arange(n, dtype=float),
                         indexing="ij")
    values = _cubic(ii, jj)
    fx = np.array([0.0, 0.25, n - 1.25, n - 1.0])
    fy = np.array([0.0, n - 1.0, 0.5, n - 1.0])
    got = _kernels.interp_cubic2d(values, fx, fy)
    np.testing.assert_allclose(got, _cubic(fx, fy), atol=1e-10)
