"""Characteristic grids, order conversion, and the Fourier transform path.

The convention anchor is an independent truncated-Fock-space oracle: the
displacement operator is exponentiated with scipy and traced against number
states, and the package formulas must reproduce those values at the sampled
nodes.  A handful of oracle outputs are additionally frozen as literals so a
convention regression cannot hide behind a matching implementation change.
"""

import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from gaussatlas.channels import Channel, act_chargrid, rotation
from gaussatlas.phase_space import (
    TOL_FFT,
    CharGrid,
    GridSpec,
    char_fock1,
    char_gaussian,
    char_vacuum,
    convert_order,
    fock1_output_p,
    quasi_from_char,
)

ATOL_ORACLE = 1e-11
ATOL_GRID = 1e-8

# axis with spacing 0.1 so the oracle points below are exact grid nodes
SPEC_NODES = GridSpec(side=33, extent=1.6)


def _node(x):
    idx = round((x + SPEC_NODES.extent) / 0.1)
    assert abs(SPEC_NODES.extent * (2 * idx / (SPEC_NODES.side - 1) - 1) - x) < 1e-12
    return idx


def _char_fock_oracle(n_photon, xi1, xi2, s, dim=60):
    """chi_s of the number state |n> from the truncated displacement operator."""
    beta = xi1 + 1j * xi2
    a = np.diag(np.sqrt(np.arange(1, dim)), k=1)
    D = expm(beta * a.conj().T - np.conj(beta) * a)
    r2 = xi1 * xi1 + xi2 * xi2
    return np.exp(0.5 * s * r2) * D[n_photon, n_photon]


def _thermal_char_oracle(nbar, xi1, xi2, s, dim=80):
    beta = xi1 + 1j * xi2
    a = np.diag(np.sqrt(np.arange(1, dim)), k=1)
    D = expm(beta * a.conj().T - np.conj(beta) * a)
    q = nbar / (1.0 + nbar)
    probs = (1.0 - q) * q ** np.arange(dim)
    r2 = xi1 * xi1 + xi2 * xi2
    return np.exp(0.5 * s * r2) * np.sum(probs * np.diag(D))


class TestGridSpec:
    def test_rejects_even_or_tiny_side(self):
        with pytest.raises(ValueError):
            GridSpec(side=256)
        with pytest.raises(ValueError):
            GridSpec(side=7)
        with pytest.raises(ValueError):
            GridSpec(extent=0.0)

    @pytest.mark.parametrize("extent", [float("nan"), float("inf"), -1.0, 1e300, 1e155])
    def test_rejects_nonfinite_or_overflowing_extent(self, extent):
        # 1e155 is finite, but the corner's squared radius 2 * 1e310 is not
        with pytest.raises(ValueError, match="extent"):
            GridSpec(side=9, extent=extent)

    def test_axis_has_zero_node(self):
        g = char_vacuum(0.0, GridSpec(side=65, extent=4.0))
        assert g.axis[(g.side - 1) // 2] == 0.0
        assert abs(g.spacing - 8.0 / 64.0) < 1e-15


class TestCharFunctions:
    def test_frozen_oracle_literals(self):
        # values computed once from the truncated-Fock displacement oracle
        vac = char_vacuum(0.0, SPEC_NODES).values
        f1 = char_fock1(0.0, SPEC_NODES).values
        assert abs(vac[_node(0.3), _node(-0.7)] - 0.748263567579) < 1e-10
        assert abs(f1[_node(0.3), _node(-0.7)] - 0.314270698383) < 1e-10
        vac_a = char_vacuum(-1.0, SPEC_NODES).values
        f1_a = char_fock1(-1.0, SPEC_NODES).values
        assert abs(vac_a[_node(1.1), _node(0.4)] - 0.254106959553) < 1e-10
        assert abs(f1_a[_node(1.1), _node(0.4)] - (-0.094019575035)) < 1e-10
        f1_p = char_fock1(1.0, SPEC_NODES).values
        assert abs(f1_p[_node(0.0), _node(1.5)] - (-1.25)) < 1e-12

    @pytest.mark.parametrize("s", [1.0, 0.0, -1.0])
    def test_vacuum_and_fock1_match_displacement_oracle(self, s):
        vac = char_vacuum(s, SPEC_NODES).values
        f1 = char_fock1(s, SPEC_NODES).values
        for x1, x2 in [(0.3, -0.7), (1.1, 0.4), (0.0, 1.5), (-0.5, -0.5)]:
            i, j = _node(x1), _node(x2)
            assert abs(vac[i, j] - _char_fock_oracle(0, x1, x2, s)) < ATOL_ORACLE
            assert abs(f1[i, j] - _char_fock_oracle(1, x1, x2, s)) < ATOL_ORACLE

    def test_gaussian_matches_thermal_oracle(self):
        # thermal state with mean photon number nbar has variance (2 nbar + 1) 1
        nbar = 0.8
        V = (2.0 * nbar + 1.0) * np.eye(2)
        for s in (0.0, -1.0):
            g = char_gaussian(V, s, SPEC_NODES).values
            for x1, x2 in [(0.3, -0.7), (1.1, 0.4)]:
                ref = _thermal_char_oracle(nbar, x1, x2, s)
                assert abs(g[_node(x1), _node(x2)] - ref) < ATOL_ORACLE

    def test_gaussian_vacuum_reduces_to_vacuum(self):
        g = char_gaussian(np.eye(2), 0.0, SPEC_NODES)
        v = char_vacuum(0.0, SPEC_NODES)
        np.testing.assert_allclose(g.values, v.values, atol=1e-14)

    def test_gaussian_cross_term(self):
        V = np.array([[2.0, 0.3], [0.3, 1.5]])
        g = char_gaussian(V, 0.0, SPEC_NODES)
        x1, x2 = 0.4, -0.6
        q = V[0, 0] * x1 * x1 + 2.0 * V[0, 1] * x1 * x2 + V[1, 1] * x2 * x2
        assert abs(g.values[_node(x1), _node(x2)] - np.exp(-0.5 * q)) < 1e-14

    def test_gaussian_reads_the_symmetric_part_of_an_asymmetric_covariance(self):
        # xi^T V xi sees only (V + V^T) / 2, so both off-diagonal entries count
        V = np.array([[2.0, 0.6], [0.2, 1.5]])
        spec = GridSpec(side=33, extent=4.0)
        g = char_gaussian(V, 0.0, spec)
        sym = char_gaussian(0.5 * (V + V.T), 0.0, spec)
        x1, x2 = np.meshgrid(g.axis, g.axis, indexing="ij")
        q = V[0, 0] * x1 * x1 + (V[0, 1] + V[1, 0]) * x1 * x2 + V[1, 1] * x2 * x2
        assert np.abs(g.values - sym.values).max() <= 1e-15
        assert np.abs(g.values - np.exp(-0.5 * q)).max() <= 1e-15


class TestConvertOrder:
    def test_round_trip(self):
        g = char_fock1(0.0, GridSpec(side=65, extent=6.0))
        back = convert_order(convert_order(g, -1.0), 0.0)
        np.testing.assert_allclose(back.values, g.values, atol=1e-12)
        assert back.s == 0.0

    def test_no_op_returns_same_grid(self):
        g = char_vacuum(0.0)
        assert convert_order(g, 0.0) is g

    def test_matches_direct_construction(self):
        spec = GridSpec(side=65, extent=3.0)
        got = convert_order(char_vacuum(0.0, spec), -1.0)
        np.testing.assert_allclose(got.values, char_vacuum(-1.0, spec).values,
                                   atol=1e-14)

    def test_upward_conversion_warns_when_boundary_blows_up(self):
        g = char_vacuum(0.0, GridSpec(side=65, extent=8.0))
        with pytest.warns(RuntimeWarning):
            convert_order(g, 1.0)

    def test_upward_conversion_silent_when_decay_survives(self):
        # V = 3*1 keeps exp(-(3-s) r2 / 2) tiny at the boundary even at s = 1
        g = char_gaussian(3.0 * np.eye(2), 0.0, GridSpec(side=65, extent=8.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = convert_order(g, 1.0)
        assert out.s == 1.0


class TestTransform:
    def test_vacuum_wigner_peak_and_norm(self):
        q = quasi_from_char(char_vacuum(0.0))
        c = (q.side - 1) // 2
        assert abs(q.values[c, c] - 1.0 / np.pi) < ATOL_GRID
        assert abs(q.values.sum() * q.cell - 1.0) < ATOL_GRID
        assert q.values.min() > -1e-12

    def test_vacuum_husimi_peak(self):
        q = quasi_from_char(char_vacuum(-1.0))
        c = (q.side - 1) // 2
        assert abs(q.values[c, c] - 1.0 / (2.0 * np.pi)) < ATOL_GRID

    def test_fock1_wigner_negative_at_origin(self):
        q = quasi_from_char(char_fock1(0.0))
        c = (q.side - 1) // 2
        assert abs(q.values[c, c] - (-1.0 / np.pi)) < ATOL_GRID
        assert abs(q.values.sum() * q.cell - 1.0) < ATOL_GRID

    def test_fock1_husimi_zero_at_origin(self):
        q = quasi_from_char(char_fock1(-1.0))
        c = (q.side - 1) // 2
        assert abs(q.values[c, c]) < 1e-9
        assert q.values.min() > -1e-9

    @pytest.mark.parametrize("s", [0.0, -1.0])
    def test_gaussian_transform_is_gaussian_density(self, s):
        # chi_s of variance V transforms to a normal density with
        # covariance (V - s*1)/2 on the alpha grid
        V = np.array([[2.0, 0.3], [0.3, 1.5]])
        q = quasi_from_char(char_gaussian(V, s))
        cov = (V - s * np.eye(2)) / 2.0
        prec = np.linalg.inv(cov)
        a1, a2 = np.meshgrid(q.axis, q.axis, indexing="ij")
        quad = prec[0, 0] * a1 ** 2 + 2 * prec[0, 1] * a1 * a2 + prec[1, 1] * a2 ** 2
        ref = np.exp(-0.5 * quad) / (2.0 * np.pi * np.sqrt(np.linalg.det(cov)))
        assert np.abs(q.values - ref).max() < ATOL_GRID

    def test_regularized_p_of_thermal_state(self):
        q = quasi_from_char(char_gaussian(3.0 * np.eye(2), 1.0))
        c = (q.side - 1) // 2
        assert abs(q.values[c, c] - 1.0 / (2.0 * np.pi)) < ATOL_GRID
        assert q.values.min() >= -1e-6

    def test_refuses_undecayed_boundary(self):
        with pytest.raises(ValueError, match="boundary"):
            quasi_from_char(char_fock1(1.0, GridSpec(side=65, extent=2.0)))

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_refuses_non_finite_boundary_with_smaller_extent(self, value):
        g = char_vacuum(0.0)
        values = g.values.copy()
        values[0, 0] = value
        grid = CharGrid(s=0.0, axis=g.axis, values=values)
        with pytest.raises(ValueError, match="not finite") as exc:
            quasi_from_char(grid)
        assert "reduce the grid extent" in str(exc.value)
        assert "enlarge" not in str(exc.value)

    def test_refuses_non_hermitian_input(self):
        g = char_vacuum(0.0)
        x1, x2 = np.meshgrid(g.axis, g.axis, indexing="ij")
        bad = g.values + 0.05j * np.exp(-(x1 ** 2 + x2 ** 2))
        grid = CharGrid(s=0.0, axis=g.axis, values=bad)
        with pytest.raises(ValueError, match="residue"):
            quasi_from_char(grid)


def _same_bits(got, ref):
    return got.dtype == ref.dtype and got.shape == ref.shape and got.tobytes() == ref.tobytes()


def _meshgrid_longhand(axis):
    return np.meshgrid(axis, axis, indexing="ij")


def _act_chargrid_longhand(ch, grid):
    """act_chargrid over meshgrid pairs, for a grid whose mapped points all stay inside."""
    X, Y, ax, n = ch.X, ch.Y, grid.axis, grid.side
    x1, x2 = _meshgrid_longhand(ax)
    m1 = X[0, 0] * x1 + X[0, 1] * x2
    m2 = X[1, 0] * x1 + X[1, 1] * x2
    env = np.exp(-0.5 * (Y[0, 0] * x1 * x1 + 2.0 * Y[0, 1] * x1 * x2
                         + Y[1, 1] * x2 * x2))
    assert np.abs(m1).max() <= grid.extent and np.abs(m2).max() <= grid.extent
    fx = (m1 - ax[0]) / grid.spacing
    fy = (m2 - ax[0]) / grid.spacing
    bx = np.clip(np.floor(fx).astype(np.int64) - 1, 0, n - 4)
    by = np.clip(np.floor(fy).astype(np.int64) - 1, 0, n - 4)
    tx = fx - (bx + 1)
    ty = fy - (by + 1)
    wx = (-tx * (tx - 1.0) * (tx - 2.0) / 6.0, (tx * tx - 1.0) * (tx - 2.0) / 2.0,
          -tx * (tx + 1.0) * (tx - 2.0) / 2.0, tx * (tx * tx - 1.0) / 6.0)
    wy = (-ty * (ty - 1.0) * (ty - 2.0) / 6.0, (ty * ty - 1.0) * (ty - 2.0) / 2.0,
          -ty * (ty + 1.0) * (ty - 2.0) / 2.0, ty * (ty * ty - 1.0) / 6.0)
    mapped = np.zeros(fx.shape)
    for i in range(4):
        acc = wy[0] * grid.values[bx + i, by]
        for j in range(1, 4):
            acc = acc + wy[j] * grid.values[bx + i, by + j]
        mapped += wx[i] * acc
    return mapped * env


class TestBitsAgainstMeshgridLonghand:
    """Grids are built from per-axis vectors; every sample keeps the bits of
    the full-grid expression written over meshgrid pairs."""

    SPEC = GridSpec(side=129, extent=7.0)

    @pytest.mark.parametrize("s", [0.0, -0.6, 1.0 - 1e-3])
    def test_char_vacuum_and_fock1(self, s):
        x1, x2 = _meshgrid_longhand(np.linspace(-7.0, 7.0, 129))
        r2 = x1 * x1 + x2 * x2
        assert _same_bits(char_vacuum(s, self.SPEC).values, np.exp(0.5 * (s - 1.0) * r2))
        assert _same_bits(char_fock1(s, self.SPEC).values,
                          (1.0 - r2) * np.exp(0.5 * (s - 1.0) * r2))

    @pytest.mark.parametrize("s", [0.0, -0.6])
    def test_char_gaussian_with_off_diagonal_covariance(self, s):
        V = np.array([[1.7, -0.45], [-0.45, 0.9]])
        x1, x2 = _meshgrid_longhand(np.linspace(-7.0, 7.0, 129))
        q = (V[0, 0] - s) * x1 * x1 + 2.0 * V[0, 1] * x1 * x2 + (V[1, 1] - s) * x2 * x2
        assert _same_bits(char_gaussian(V, s, self.SPEC).values, np.exp(-0.5 * q))

    @pytest.mark.parametrize("s_target", [-0.8, 0.5])
    @pytest.mark.parametrize("complex_grid", [False, True])
    def test_convert_order_up_and_down(self, s_target, complex_grid):
        g = char_gaussian([[2.2, 0.3], [0.3, 1.6]], 0.0, self.SPEC)
        x1, x2 = _meshgrid_longhand(g.axis)
        values = g.values * np.exp(1j * (0.7 * x1 - 0.4 * x2)) if complex_grid else g.values
        grid = CharGrid(s=0.0, axis=g.axis, values=values)
        ref = values * np.exp(0.5 * s_target * (x1 * x1 + x2 * x2))
        assert _same_bits(convert_order(grid, s_target).values, ref)

    @pytest.mark.parametrize("X, Y", [
        (np.eye(2), np.diag([3.0, 1.5])),
        # a rotating contraction: mapped points fall between nodes, all inside
        (0.6 * rotation(0.4) @ np.diag([1.0, 0.7]), np.array([[2.5, 0.3], [0.3, 1.8]])),
    ])
    def test_act_chargrid_on_an_all_inside_real_grid(self, X, Y):
        ch = Channel(X=X, Y=Y)
        grid = char_fock1(0.0, self.SPEC)
        assert _same_bits(act_chargrid(ch, grid).values, _act_chargrid_longhand(ch, grid))

    def test_every_grid_keeps_its_geometry(self):
        # a characteristic grid keeps the spec's extent (or its input's) and the
        # spacing of its axis; the transform's reciprocal axis ends at alpha[-1]
        xi = np.linspace(-7.0, 7.0, 129)
        ch = Channel(X=0.6 * rotation(0.4), Y=np.diag([3.0, 1.5]))
        chars = [char_vacuum(0.0, self.SPEC), char_fock1(0.0, self.SPEC),
                 char_gaussian([[2.2, 0.3], [0.3, 1.6]], 0.0, self.SPEC)]
        chars += [convert_order(chars[2], -0.8), act_chargrid(ch, chars[1])]
        for g in chars:
            assert (g.extent, g.side, g.spacing) == (7.0, 129, xi[1] - xi[0])
            assert g.extent == g.axis[-1]
        d = xi[1] - xi[0]
        alpha = 2.0 * np.pi * (np.arange(129) - 64) / (np.sqrt(2.0) * 129 * d)
        q = quasi_from_char(chars[0])
        assert _same_bits(q.axis, alpha) and q.extent == q.axis[-1] == float(alpha[-1])
        d = alpha[1] - alpha[0]
        assert (q.side, q.cell) == (129, d * d)


class TestFock1OutputP:
    def test_origin_value_and_sign_boundary(self):
        for a, b in [(2.0, 3.0), (1.5, 1.5), (4.0, 1.2)]:
            got = fock1_output_p(a, b, 0.0, 0.0)
            ref = (2.0 / np.sqrt(a * b)) * (1.0 - 1.0 / a - 1.0 / b)
            assert abs(got - ref) < 1e-14
        # 1/a + 1/b = 1 puts the origin exactly at zero
        assert abs(fock1_output_p(2.0, 2.0, 0.0, 0.0)) < 1e-15
        assert fock1_output_p(3.0, 3.0, 0.0, 0.0) > 0.0
        assert fock1_output_p(1.5, 2.0, 0.0, 0.0) < 0.0

    def test_positive_far_from_origin(self):
        al = np.linspace(-4.0, 4.0, 41)
        a1, a2 = np.meshgrid(al, al, indexing="ij")
        vals = fock1_output_p(1.5, 2.0, a1, a2)
        assert vals.shape == (41, 41)
        assert vals[0, 0] >= 0.0
        # polynomial factor dominates once 4 a1^2/a^2 + 4 a2^2/b^2 > 1/a + 1/b
        assert fock1_output_p(1.5, 2.0, 3.0, 0.0) > 0.0

    def test_variants_agree_at_origin_only(self):
        a, b = 3.0, 1.5
        assert abs(fock1_output_p(a, b, 0.0, 0.0, variant="printed")
                   - fock1_output_p(a, b, 0.0, 0.0)) < 1e-14
        d = abs(fock1_output_p(a, b, 0.7, -0.4, variant="printed")
                - fock1_output_p(a, b, 0.7, -0.4))
        assert d > 1e-3

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            fock1_output_p(0.0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            fock1_output_p(2.0, -1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            fock1_output_p(2.0, 2.0, 0.0, 0.0, variant="other")
