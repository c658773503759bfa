"""Checks of the low-level numeric kernels.

One closed form, eig2, gives both eigenvalues of every 2x2 Hermitian
problem; the tests here pin it against LAPACK, on lopsided diagonals and
on huge entries.  Grid interpolation is pinned against closed-form
cubics and an unblocked longhand reference, and its separable path, on
a grid of (row, column) pairs, against the pointwise one bit for bit.
The float text kernel, text12, is checked value by value against
Python's own ``"%.12g" % v`` and ``repr(float("%.12g" % v))``.
"""

import math
import warnings

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
from gaussatlas._kernels import backend, eig2, herm2_psd, text12

EPS = np.finfo(float).eps


def test_backend_is_numpy():
    assert backend() == "numpy"


def test_eig2_against_lapack():
    rng = np.random.default_rng(14)
    for scale in (1e-6, 1.0, 1e6):
        for _ in range(200):
            m11, m12, m22, beta = (scale * rng.normal(size=4)).tolist()
            ref = np.linalg.eigvalsh(np.array([[m11, m12 + 1j * beta], [m12 - 1j * beta, m22]]))
            got = eig2(m11, m12, m22, beta)
            assert all(isinstance(v, float) for v in got)
            tol = 1e-14 * max(abs(m11), abs(m12), abs(m22), abs(beta))
            assert abs(got[0] - ref[1]) <= tol and abs(got[1] - ref[0]) <= tol


@pytest.mark.parametrize("ratio_exp", [8, 17, 50, 150, 300])
def test_eig2_lam_min_keeps_its_digits_on_lopsided_diagonals(ratio_exp):
    # mean - spread would cancel to 0 once the ratio passes 1/eps;
    # det / lam_max keeps lam_min to a rounding or two
    for big, small in ((10.0 ** ratio_exp, 1.0), (1.0, 10.0 ** -ratio_exp),
                       (10.0 ** (ratio_exp / 2), -(10.0 ** (-ratio_exp / 2))),
                       (10.0 ** ratio_exp, -0.5)):
        for m11, m22 in ((big, small), (small, big)):
            lam_max, lam_min = eig2(m11, 0.0, m22, 0.0)
            assert lam_max == big
            assert abs(lam_min - small) <= 4.0 * EPS * abs(small)


@pytest.mark.parametrize("small, big", [(1e-160, 1e160), (1e-300, 1e301), (3e-200, 7e150)])
def test_eig2_lam_min_survives_a_subnormal_ratio(small, big):
    # small / big is subnormal (or 0), so det / lam_max divides lam_max into big instead
    for m11, m22 in ((small, big), (big, small)):
        lam_max, lam_min = eig2(m11, 0.0, m22, 0.0)
        assert lam_max == big
        assert abs(lam_min - small) <= 4.0 * EPS * small


def test_eig2_negative_trace_keeps_its_digits():
    # a nearly singular matrix of negative trace: lam_max is a tiny
    # remainder of cancellation, so det / lam_max would be off by up to
    # the matrix's own size; lam_min is mean - spread, which cancels nothing
    assert eig2(-1.0, 0.0, -1e300, 0.0)[1] == -1e300
    for m11, m22 in ((-0.75, -1.5), (-1.5, -0.6), (-1.0, -1.0)):
        for k in (1, 3, 20):
            m12 = math.sqrt(m11 * m22) * (1.0 + k * EPS)
            lam_min = eig2(m11, m12, m22, 0.0)[1]
            assert abs(lam_min - (0.5 * (m11 + m22) - math.hypot(0.5 * (m11 - m22), m12))) \
                <= 4.0 * EPS


def test_eig2_pauli_y_block():
    # [[0, -i], [i, 0]] has eigenvalues 1 and -1
    assert eig2(0.0, 0.0, 0.0, -1.0) == (1.0, -1.0)


def test_eig2_huge_entries_stay_finite():
    # hypot and dividing lam_max into each product keep the closed form
    # finite where squaring an entry overflows
    lam_max, lam_min = eig2(1e200, 1e200, 1e200, 1e200)
    assert math.isclose(lam_max, (1.0 + math.sqrt(2.0)) * 1e200, rel_tol=1e-15)
    assert math.isclose(lam_min, (1.0 - math.sqrt(2.0)) * 1e200, rel_tol=1e-15)
    assert eig2(1e200, 0.0, 1e200, 1e200) == (2e200, 0.0)


def test_eig2_least_subnormal_trace():
    # both halves of diag(t, 0) round to 0, so lam_max does too; the
    # diagonal is returned exactly rather than divided by that 0
    t = 5e-324
    assert eig2(t, 0.0, 0.0, 0.0) == (t, 0.0)
    assert eig2(0.0, 0.0, t, 0.0) == (t, 0.0)
    assert herm2_psd(t, 0.0, 0.0, 0.0) and herm2_psd(0.0, 0.0, t, 0.0)


def test_herm2_psd_slack_is_a_few_roundings_of_the_largest_entry():
    # the matrix [[y, h + i beta], [h - i beta, y]] has lam_min y - hypot(h, beta)
    for scale in (1.0, 1e3, 1e12):
        assert herm2_psd(scale, 0.0, scale, scale * (1.0 + 8.0 * EPS))
        assert not herm2_psd(scale, 0.0, scale, scale * (1.0 + 32.0 * EPS))
        assert not herm2_psd(scale, 0.0, scale, scale * (1.0 + 1e-9))
    assert herm2_psd(0.0, 0.0, 0.0, 0.0)
    assert not herm2_psd(1.0, 0.0, 1.0, math.inf)


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
    """act_chargrid written out longhand over meshgrid pairs, interpolating
    .real and .imag apart; a real grid gives a real result."""
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
    inner = _interp_longhand(np.ascontiguousarray(grid.values.real), fx, fy)
    if np.iscomplexobj(grid.values):
        inner = inner + 1j * _interp_longhand(np.ascontiguousarray(grid.values.imag), fx, fy)
    mapped = np.zeros(grid.values.shape, dtype=inner.dtype)
    mapped[inside] = inner
    return mapped * env


def _same_bits(got, ref):
    return got.dtype == ref.dtype and got.shape == ref.shape and got.tobytes() == ref.tobytes()


_ACTIONS = {
    # a rotating contraction, so mapped points fall between nodes and some
    # leave the support where the envelope has decayed
    "rotating-65": (65, 8.0, 0.9 * rotation(0.4) @ np.diag([1.0, 0.6]),
                    [[2.5, 0.3], [0.3, 1.8]]),
    "rotating-257": (257, 8.0, 0.9 * rotation(0.4) @ np.diag([1.0, 0.6]),
                     [[2.5, 0.3], [0.3, 1.8]]),
    # diagonal X: the separable path.  pfunc's unit gain on its grids first
    "unit-129": (129, 10.0, np.eye(2), np.diag([2.3, 3.1])),
    "unit-257": (257, 10.0, np.eye(2), np.diag([1.6, 3.7])),
    "diag(0.9,-0.6)": (65, 8.0, np.diag([0.9, -0.6]), [[2.5, 0.3], [0.3, 1.8]]),
    "diag(1,0)": (65, 8.0, np.diag([1.0, 0.0]), np.diag([1.5, 1.0])),
    "zero": (65, 8.0, np.zeros((2, 2)), [[1.2, -0.2], [-0.2, 1.1]]),
    # rows and columns leave the support, all where the envelope has decayed
    "diag-escaping": (65, 8.0, np.diag([1.3, -1.2]), np.diag([3.0, 2.5])),
}


@pytest.mark.parametrize("complex_grid", [False, True])
@pytest.mark.parametrize("action", sorted(_ACTIONS))
def test_act_chargrid_matches_two_pass_reference(action, complex_grid):
    side, extent, X, Y = _ACTIONS[action]
    spec = GridSpec(side=side, extent=extent)
    ch = Channel(X=X, Y=Y)
    grid = char_fock1(0.0, spec)
    if complex_grid:  # a displaced single photon, so the grid has a sizeable imaginary part
        x1, x2 = np.meshgrid(grid.axis, grid.axis, indexing="ij")
        grid = CharGrid(s=0.0, axis=grid.axis,
                        values=grid.values * np.exp(1j * (0.7 * x1 - 0.4 * x2)))
        assert np.abs(grid.values.imag).max() > 0.1
    if action == "diag-escaping":
        escaped = np.abs(np.diag(X)[:, None] * grid.axis) > extent
        assert escaped[0].sum() > 2 and escaped[1].sum() > 2
    got = act_chargrid(ch, grid)
    assert _same_bits(got.values, _act_chargrid_two_pass(ch, grid))


@pytest.mark.parametrize("complex_grid", [False, True])
def test_interp_cubic2d_separable_matches_pointwise(complex_grid):
    # an (m, 1) column against a (k,) row is the grid of their pairs, with the
    # bits of the pointwise call on the broadcast indices; the indices include
    # both lattice edges, where the clamped stencils sit at t = -1 and t = 2
    n1, n2 = 23, 17
    rng = np.random.default_rng(19)
    values = rng.normal(size=(n1, n2))
    if complex_grid:
        values = values + 1j * rng.normal(size=(n1, n2))
    fx = np.concatenate([[0.0, n1 - 1.0, 1.0, 0.5], rng.uniform(0.0, n1 - 1.0, 400)])
    fy = np.concatenate([[n2 - 1.0, 0.0, n2 - 1.5], rng.uniform(0.0, n2 - 1.0, 201)])
    for f, n in ((fx, n1), (fy, n2)):
        base, _ = _kernels._stencil(f[:2], n)
        assert (f[:2] - (base + 1)).tolist() in ([-1.0, 2.0], [2.0, -1.0])
    got = _kernels.interp_cubic2d(values, fx[:, None], fy)
    px, py = (np.ascontiguousarray(a).ravel() for a in np.broadcast_arrays(fx[:, None], fy))
    assert px.size > _kernels.INTERP_BLOCK  # several blocks of output rows
    ref = _kernels.interp_cubic2d(values, px, py)
    assert _same_bits(got, ref.reshape(fx.size, fy.size))
    assert np.array_equal(got.real, _interp_longhand(values.real, px, py).reshape(got.shape))
    assert _kernels.interp_cubic2d(values, fx[:0, None], fy).shape == (0, fy.size)


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
    as_complex = CharGrid(s=grid.s, axis=grid.axis, values=grid.values.astype(complex))
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


@pytest.mark.parametrize("gains, noise, edges_only", [
    # only the first and last row (column) leave the support, at nearly full
    # envelope weight under little noise (the channel stays CP)
    ((1.01, 1.0), 0.02, True),
    ((1.0, 1.01), 0.02, True),
    # an expansion under the least CP noise, refused where the envelope is
    # still about exp(-2.5)
    ((1.2, 1.0), 0.2, False),
])
def test_act_chargrid_refuses_diagonal_escape(gains, noise, edges_only):
    spec = GridSpec(side=65, extent=6.0)
    grid = char_vacuum(0.0, spec)
    escaped = np.abs(max(gains) * grid.axis) > spec.extent
    assert (np.flatnonzero(escaped).tolist() == [0, spec.side - 1]) == edges_only
    with pytest.raises(ValueError, match="grid extent"):
        act_chargrid(Channel(X=np.diag(gains), Y=noise * np.eye(2)), grid)


@pytest.mark.parametrize("X", [np.diag([1e18, 0.0]), np.array([[1e18, 1e18], [0.0, 0.0]])],
                         ids=["diagonal", "general"])
def test_act_chargrid_zeroes_far_escaped_nodes_without_warning(X):
    # every node but those with x1 = 0 maps ~1e19 grid steps off the support, past
    # the int64 range of the stencil index, where the noise envelope is exactly 0
    grid = char_vacuum(0.0, GridSpec(side=65, extent=8.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = act_chargrid(Channel(X=X, Y=1e6 * np.eye(2)), grid).values
    expected = np.zeros((65, 65))
    expected[32, 32] = 1.0
    assert np.array_equal(got, expected)


def test_hand_built_grid_reads_its_extent_off_its_axis():
    # a grid carries no extent of its own to contradict its axis: a stored
    # 4.0 beside a +-8 axis once refused this contraction, whose images all
    # lie inside +-7.2
    g = char_vacuum(0.0, GridSpec(side=65, extent=8.0))
    grid = CharGrid(s=0.0, axis=g.axis, values=g.values)
    assert grid.extent == 8.0
    ch = Channel(X=0.9 * np.eye(2), Y=np.eye(2))
    assert _same_bits(act_chargrid(ch, grid).values, act_chargrid(ch, g).values)


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


def _python_text(v, json):
    if json:
        return repr(float("%.12g" % v)) if math.isfinite(v) else "null"
    return "%.12g" % v


def _text_mismatches(values, json):
    """(value, kernel text, Python's text) wherever text12 differs from Python."""
    rows = text12(values, json)
    lines = np.concatenate([rows, np.full((len(rows), 1), ord("\n"), np.uint8)], axis=1)
    got = lines.tobytes().translate(None, b"\0").decode().split("\n")[:-1]
    assert len(got) == len(values)
    return [(v, g, _python_text(v, json)) for v, g in zip(values.tolist(), got)
            if g != _python_text(v, json)]


def _text_samples():
    rng = np.random.default_rng(20130621)
    n = 45000
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    near = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    special = [9.999999999995, 999999999999.5, 1e-5, 1e12, 1e16, 0.0, -0.0, np.inf, -np.inf,
               np.nan, 5e-324, np.finfo(float).max, 1e11, 99999999999.95, 1e15, 123456789012.0]
    return np.concatenate([
        rng.uniform(-10.0, 10.0, n),
        rng.choice([-1.0, 1.0], n) * np.exp(rng.uniform(-700.0, 700.0, n)),
        rng.integers(-10 ** 14, 10 ** 14, n).astype(float),
        rng.integers(-10 ** 16, 10 ** 16, n // 4).astype(float),
        rng.integers(-10 ** 6, 10 ** 6, n // 4) + 0.5,
        np.array([float("%.12g" % v) for v in rng.uniform(-1e4, 1e4, n).tolist()]),
        near, -near, special])


@pytest.mark.parametrize("json", [False, True])
def test_text12_is_pythons_text(json):
    values = _text_samples()
    assert values.size > 200000
    assert _text_mismatches(values, json) == []


@pytest.mark.parametrize("json", [False, True])
def test_text12_exact_ties_go_to_python(json, monkeypatch):
    # d.ddddddddddd5 exactly: rint of an m two roundings off could go either
    # way, so the guard hands the value to Python, which rounds half to even
    seen = []
    real = _kernels._python_text
    monkeypatch.setattr(_kernels, "_python_text",
                        lambda vals, js: seen.extend(vals) or real(vals, js))
    ties = np.array([999999999999.5, 100000000000.5, -123456789012.5, 12345678901.25,
                     1234567890125.0])
    assert _text_mismatches(ties, json) == []
    assert seen == ties.tolist()


def test_text12_layouts():
    values = np.array([0.5, 100.0, -2.5e-05, 1e12, 123456789012345.0, 1e16, -0.0, np.nan, np.inf])
    csv = ["0.5", "100", "-2.5e-05", "1e+12", "1.23456789012e+14", "1e+16", "-0", "nan", "inf"]
    js = ["0.5", "100.0", "-2.5e-05", "1000000000000.0", "123456789012000.0", "1e+16", "-0.0",
          "null", "null"]
    for json, want in ((False, csv), (True, js)):
        rows = text12(values, json)
        assert rows.shape == (len(values), _kernels.TEXT_WIDTH)
        assert [r.tobytes().replace(b"\0", b"").decode() for r in rows] == want
