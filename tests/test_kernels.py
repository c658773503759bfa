"""Checks of the low-level numeric kernels.

The eigenvalue kernels are closed forms for 2x2 problems and one LAPACK
call for a larger one; the tests here pin them against LAPACK and
against the closed forms written out.  Grid interpolation is pinned
against closed-form cubics and an unblocked longhand reference.
"""

import math

import numpy as np
import pytest

from gaussatlas import (
    Channel,
    CharGrid,
    GridSpec,
    _kernels,
    act_chargrid,
    char_fock1,
    char_gaussian,
    char_vacuum,
    convert_order,
    quasi_from_char,
    rotation,
)
from gaussatlas._kernels import (
    backend,
    eigmin_herm2,
    eigmin_sym2,
    eigmin_sym2_batch,
    hermitian_eigmin,
)

ATOL_EIG = 1e-12


def _random_hermitian(rng, n):
    a = rng.normal(size=(n, n))
    b = rng.normal(size=(n, n))
    return a + a.T, b - b.T


def test_backend_is_numpy():
    assert backend() == "numpy"


def test_eigmin_sym2_against_lapack():
    rng = np.random.default_rng(11)
    for _ in range(200):
        m = rng.normal(size=(2, 2))
        m = m + m.T
        lam = eigmin_sym2(m[0, 0], m[0, 1], m[1, 1])
        assert abs(lam - np.linalg.eigvalsh(m)[0]) < ATOL_EIG


def test_eigmin_sym2_batch_matches_closed_form():
    rng = np.random.default_rng(12)
    m11 = rng.normal(size=(40, 7))
    m12 = rng.normal(size=(40, 7))
    m22 = rng.normal(size=(40, 7))
    got = eigmin_sym2_batch(m11, m12, m22)
    expect = 0.5 * (m11 + m22) - np.hypot(0.5 * (m11 - m22), m12)
    np.testing.assert_allclose(got, expect, atol=ATOL_EIG)
    flat = [eigmin_sym2(*args) for args in zip(m11.ravel(), m12.ravel(), m22.ravel())]
    assert np.array_equal(got.ravel(), flat)


def test_hermitian_eigmin_matches_lapack():
    rng = np.random.default_rng(14)
    for n in (2, 4, 6):
        for _ in range(50):
            a, b = _random_hermitian(rng, n)
            ref = np.linalg.eigvalsh(a + 1j * b)[0]
            got = hermitian_eigmin(a, b)
            assert isinstance(got, float)
            assert abs(got - ref) < ATOL_EIG * max(1.0, np.abs(ref))


def test_hermitian_eigmin_2x2_is_the_closed_form():
    rng = np.random.default_rng(15)
    for _ in range(100):
        a, b = _random_hermitian(rng, 2)
        assert hermitian_eigmin(a, b) == eigmin_herm2(a[0, 0], a[1, 0], a[1, 1], b[0, 1])


def test_hermitian_eigmin_pauli_y_block():
    # A + iB = [[0, -i], [i, 0]] has eigenvalues -1 and 1
    a = np.zeros((2, 2))
    b = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert abs(hermitian_eigmin(a, b) + 1.0) < ATOL_EIG


def test_eigmin_herm2_huge_entries_stay_finite():
    # hypot keeps the closed form finite where squaring an entry overflows
    assert math.isclose(eigmin_herm2(1e200, 1e200, 1e200, 1e200),
                        (1.0 - math.sqrt(2.0)) * 1e200, rel_tol=1e-15)
    assert eigmin_herm2(1e200, 0.0, 1e200, 1e200) == 0.0


def _cubic(xx, yy):
    return (0.3 * xx**3 - 1.1 * xx**2 * yy + 0.7 * xx * yy**2
            - 0.2 * yy**3 + 0.5 * xx - 1.3 * yy + 0.9)


def _cubic_b(xx, yy):
    return (-0.4 * xx**3 + 0.2 * xx**2 * yy + 0.6 * yy**3 - 0.8 * xx * yy
            + 1.7 * xx - 0.1)


def _interp_longhand(values, fx, fy):
    """Unblocked real-valued reference: the same weights and summation order
    as the kernel, with 2-D fancy indexing over every point at once."""
    n1, n2 = values.shape
    bx = np.clip(np.floor(fx).astype(np.int64) - 1, 0, n1 - 4)
    by = np.clip(np.floor(fy).astype(np.int64) - 1, 0, n2 - 4)
    tx = fx - (bx + 1)
    ty = fy - (by + 1)
    wx = (-tx * (tx - 1.0) * (tx - 2.0) / 6.0, (tx * tx - 1.0) * (tx - 2.0) / 2.0,
          -tx * (tx + 1.0) * (tx - 2.0) / 2.0, tx * (tx * tx - 1.0) / 6.0)
    wy = (-ty * (ty - 1.0) * (ty - 2.0) / 6.0, (ty * ty - 1.0) * (ty - 2.0) / 2.0,
          -ty * (ty + 1.0) * (ty - 2.0) / 2.0, ty * (ty * ty - 1.0) / 6.0)
    out = np.zeros(fx.shape)
    for i in range(4):
        acc = wy[0] * values[bx + i, by]
        for j in range(1, 4):
            acc = acc + wy[j] * values[bx + i, by + j]
        out += wx[i] * acc
    return out


def _lattice(n):
    return np.meshgrid(np.arange(n, dtype=float), np.arange(n, dtype=float),
                       indexing="ij")


def test_interp_cubic2d_exact_on_cubics():
    # 4-point Lagrange stencils reproduce bicubic-degree polynomials exactly
    n = 16
    ii, jj = _lattice(n)
    rng = np.random.default_rng(16)
    fx = rng.uniform(1.0, n - 2.0, size=300)
    fy = rng.uniform(1.0, n - 2.0, size=300)
    got = _kernels.interp_cubic2d(_cubic(ii, jj), fx, fy)
    np.testing.assert_allclose(got, _cubic(fx, fy), atol=1e-10)


def test_interp_cubic2d_complex_parts_exact_on_different_cubics():
    n = 16
    ii, jj = _lattice(n)
    rng = np.random.default_rng(17)
    fx = rng.uniform(0.0, n - 1.0, size=300)
    fy = rng.uniform(0.0, n - 1.0, size=300)
    got = _kernels.interp_cubic2d(_cubic(ii, jj) + 1j * _cubic_b(ii, jj), fx, fy)
    assert got.dtype == complex
    np.testing.assert_allclose(got.real, _cubic(fx, fy), atol=1e-10)
    np.testing.assert_allclose(got.imag, _cubic_b(fx, fy), atol=1e-10)


def test_interp_cubic2d_partial_last_block_matches_pointwise():
    # a point count that is not a multiple of the block size leaves a short
    # last block; every point must still equal the unblocked formula
    n = 23
    rng = np.random.default_rng(18)
    values = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = 2 * _kernels.INTERP_BLOCK + 37
    fx = rng.uniform(0.0, n - 1.0, size=m)
    fy = rng.uniform(0.0, n - 1.0, size=m)
    got = _kernels.interp_cubic2d(values, fx, fy)
    assert np.array_equal(got.real, _interp_longhand(values.real, fx, fy))
    assert np.array_equal(got.imag, _interp_longhand(values.imag, fx, fy))


def _act_chargrid_two_pass(ch, grid):
    """act_chargrid written out longhand, interpolating .real and .imag apart."""
    X, Y = ch.X, ch.Y
    ax, L = grid.axis, grid.extent
    x1, x2 = np.meshgrid(ax, ax, indexing="ij")
    m1 = X[0, 0] * x1 + X[0, 1] * x2
    m2 = X[1, 0] * x1 + X[1, 1] * x2
    env = np.exp(-0.5 * (Y[0, 0] * x1 * x1 + 2.0 * Y[0, 1] * x1 * x2
                         + Y[1, 1] * x2 * x2))
    inside = (np.abs(m1) <= L) & (np.abs(m2) <= L)
    fx = (m1[inside] - ax[0]) / grid.spacing
    fy = (m2[inside] - ax[0]) / grid.spacing
    re = _interp_longhand(np.ascontiguousarray(grid.values.real), fx, fy)
    im = _interp_longhand(np.ascontiguousarray(grid.values.imag), fx, fy)
    mapped = np.zeros(grid.values.shape, dtype=complex)
    mapped[inside] = re + 1j * im
    return mapped * env


@pytest.mark.parametrize("side", [65, 257])
def test_act_chargrid_matches_two_pass_reference(side):
    spec = GridSpec(side=side, extent=8.0)
    # a rotating contraction, so mapped points fall between nodes and some
    # leave the support where the envelope has decayed
    X = 0.9 * rotation(0.4) @ np.diag([1.0, 0.6])
    Y = np.array([[2.5, 0.3], [0.3, 1.8]])
    ch = Channel(X=X, Y=Y)
    # a displaced single photon, so the grid has a sizeable imaginary part
    grid = char_fock1(0.0, spec)
    x1, x2 = np.meshgrid(grid.axis, grid.axis, indexing="ij")
    grid = CharGrid(s=0.0, extent=spec.extent, axis=grid.axis,
                    values=grid.values * np.exp(1j * (0.7 * x1 - 0.4 * x2)))
    assert np.abs(grid.values.imag).max() > 0.1
    got = act_chargrid(ch, grid)
    assert np.array_equal(got.values, _act_chargrid_two_pass(ch, grid))


_REAL_MAKERS = {
    "vacuum": char_vacuum,
    "fock1": char_fock1,
    "gaussian": lambda s, spec: char_gaussian([[1.8, 0.4], [0.4, 0.9]], s, spec),
}


@pytest.mark.parametrize("maker", sorted(_REAL_MAKERS))
def test_real_pipeline_matches_complex_reference(maker):
    # the library's grids are real; the same pipeline on their complex copy
    # is the reference, and the real path must reproduce it bit for bit
    spec = GridSpec(side=129, extent=8.0)
    grid = _REAL_MAKERS[maker](0.0, spec)
    assert grid.values.dtype == np.float64
    X = 0.9 * rotation(0.4) @ np.diag([1.0, 0.6])
    ch = Channel(X=X, Y=np.array([[2.5, 0.3], [0.3, 1.8]]))
    as_complex = CharGrid(s=grid.s, extent=grid.extent, axis=grid.axis,
                          values=grid.values.astype(complex))
    acted = act_chargrid(ch, grid)
    acted_ref = act_chargrid(ch, as_complex)
    assert acted.values.dtype == np.float64
    assert acted_ref.values.dtype == complex
    assert np.array_equal(acted_ref.values.imag, np.zeros(acted.values.shape))
    assert np.array_equal(acted.values, acted_ref.values.real)
    lifted = convert_order(acted, 1.0 - 1e-3)
    lifted_ref = convert_order(acted_ref, 1.0 - 1e-3)
    assert lifted.values.dtype == np.float64
    assert np.array_equal(lifted.values, lifted_ref.values.real)
    assert np.array_equal(lifted_ref.values.imag, np.zeros(lifted.values.shape))
    q = quasi_from_char(lifted)
    q_ref = quasi_from_char(lifted_ref)
    assert np.array_equal(q.values, q_ref.values)
    assert np.array_equal(q.axis, q_ref.axis)


def test_interp_cubic2d_promotes_integer_grid_to_float():
    values = np.arange(64).reshape(8, 8)
    fx = np.array([1.5, 3.25])
    fy = np.array([2.5, 4.0])
    got = _kernels.interp_cubic2d(values, fx, fy)
    assert got.dtype == np.float64
    assert np.array_equal(got, _kernels.interp_cubic2d(values.astype(float), fx, fy))


def test_act_chargrid_refuses_escape_confined_to_edge_rows():
    # a noiseless shear m1 = x1 + 0.01 x2 pushes half of the first and the
    # last row past the support at full envelope weight, and nothing else
    spec = GridSpec(side=65, extent=6.0)
    grid = char_vacuum(0.0, spec)
    X = np.array([[1.0, 0.01], [0.0, 1.0]])
    x1, x2 = np.meshgrid(grid.axis, grid.axis, indexing="ij")
    escaped = np.abs(X[0, 0] * x1 + X[0, 1] * x2) > spec.extent
    rows = np.flatnonzero(escaped.any(axis=1))
    assert rows.tolist() == [0, spec.side - 1]
    with pytest.raises(ValueError, match="grid extent"):
        act_chargrid(Channel(X=X, Y=np.zeros((2, 2))), grid)


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
