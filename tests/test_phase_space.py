"""Characteristic grids, order conversion, and the Fourier transform path.

The convention anchor is an independent truncated-Fock-space oracle: the
displacement operator is exponentiated with scipy and traced against number
states, and the package formulas must reproduce those values at the sampled
nodes.  A handful of oracle outputs are additionally frozen as literals so a
convention regression cannot hide behind a matching implementation change.
"""

import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from gaussatlas._kernels import INTERP_BLOCK
from gaussatlas.channels import Channel, act_chargrid, act_variance, rotation
from gaussatlas.phase_space import (
    P_EPS,
    TOL_FFT,
    CharGrid,
    GridSpec,
    QuasiGrid,
    char_fock1,
    char_gaussian,
    char_vacuum,
    convert_order,
    fock1_output_p,
    fock1_output_p_fft,
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

    @pytest.mark.parametrize("side", [9.0, 257.0, 9.5, "9", None])
    def test_rejects_a_side_that_is_not_an_integer(self, side):
        # a float side used to pass the check and fail later in np.linspace
        with pytest.raises(ValueError, match="odd integer"):
            GridSpec(side=side)

    @pytest.mark.parametrize("side", [np.int64(9), np.int32(33), np.uint16(65)])
    def test_accepts_numpy_integer_sides(self, side):
        g = char_vacuum(0.0, GridSpec(side=side, extent=4.0))
        assert g.side == side and g.values.shape == (side, side)

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
        # an asymmetry within Channel's tolerance for Y is read at its midpoint, as
        # xi^T V xi reads (V + V^T) / 2, so both off-diagonal entries count
        V = np.array([[2.0, 0.6 + 1e-12], [0.6 - 1e-12, 1.5]])
        spec = GridSpec(side=33, extent=4.0)
        g = char_gaussian(V, 0.0, spec)
        sym = char_gaussian(0.5 * (V + V.T), 0.0, spec)
        x1, x2 = np.meshgrid(g.axis, g.axis, indexing="ij")
        q = V[0, 0] * x1 * x1 + (V[0, 1] + V[1, 0]) * x1 * x2 + V[1, 1] * x2 * x2
        assert np.abs(g.values - sym.values).max() <= 1e-15
        assert np.abs(g.values - np.exp(-0.5 * q)).max() <= 1e-15

    @pytest.mark.parametrize("V, message", [
        (np.eye(3), "a 2x2 real matrix"),  # was read by its top-left block
        ([[1.0, 0.5], [0.5]], "a 2x2 real matrix"),
        ([[np.nan, 0.0], [0.0, 1.0]], "finite"),  # was an all-NaN grid
        ([[1.0, 0.0], [0.0, np.inf]], "finite"),
        # no state: read as 0.75 1 through Channel(0.5 1, 1), and a grid up to 6.2e27
        (-np.eye(2), "positive semidefinite"),
        ([[1.0, 0.0], [0.0, -1e-8]], "positive semidefinite"),
        ([[1.0, 5.0], [-5.0, 1.0]], "symmetric"),  # was read as the identity
        ([[1.0, 0.5], [0.5 + 3e-12, 1.0]], "symmetric"),
    ])
    def test_gaussian_refuses_the_covariances_act_variance_refuses(self, V, message):
        with pytest.raises(ValueError, match=f"^V must be {message}$"):
            act_variance(Channel(X=np.eye(2), Y=np.eye(2)), V)
        with pytest.raises(ValueError, match=f"^V must be {message}$"):
            char_gaussian(V, 0.0, SPEC_NODES)


class TestGridShape:
    @pytest.mark.parametrize("cls", [CharGrid, QuasiGrid])
    def test_values_off_the_axis_are_refused(self, cls):
        # a 65-node axis under 33x33 vacuum values was acted on and transformed
        # as if the values spanned the whole axis
        values = char_vacuum(0.0, GridSpec(side=33, extent=8.0)).values
        with pytest.raises(ValueError, match=r"axis \(65,\) and values \(33, 33\)"):
            cls(s=0.0, axis=np.linspace(-8.0, 8.0, 65), values=values)

    @pytest.mark.parametrize("side", [64, 2])
    def test_even_node_axis_is_refused(self, side):
        # it has no node at 0; a 64-node grid was refused only at the transform,
        # as "not Hermitian"
        with pytest.raises(ValueError, match="with n odd"):
            CharGrid(s=0.0, axis=np.linspace(-8.0, 8.0, side), values=np.ones((side, side)))

    @pytest.mark.parametrize("axis, values", [
        (np.ones((9, 1)), np.ones((9, 9))),
        (np.float64(0.0), np.ones((1, 1))),
        (np.linspace(-1.0, 1.0, 9), np.ones(81)),
        (np.linspace(-1.0, 1.0, 9), np.ones((9, 9, 1))),
    ])
    def test_other_shapes_are_refused(self, axis, values):
        with pytest.raises(ValueError, match="are not"):
            QuasiGrid(s=1.0, axis=axis, values=values)

    def test_every_library_grid_passes(self):
        spec = GridSpec(side=33, extent=8.0)
        g = char_vacuum(0.0, spec)
        for grid in (g, char_fock1(0.0, spec), char_gaussian(np.eye(2), 0.0, spec),
                     convert_order(g, 0.5), quasi_from_char(g),
                     act_chargrid(Channel(X=0.9 * np.eye(2), Y=np.eye(2)), g)):
            assert grid.values.shape == (len(grid.axis),) * 2 and len(grid.axis) % 2 == 1


ORDER_BUILDERS = {
    "vacuum": lambda s: char_vacuum(s, GridSpec(side=9)),
    "fock1": lambda s: char_fock1(s, GridSpec(side=9)),
    "gaussian": lambda s: char_gaussian(np.eye(2), s, GridSpec(side=9)),
    "convert_order": lambda s: convert_order(char_vacuum(0.0, GridSpec(side=9)), s),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("s", [float("nan"), float("inf"), float("-inf")],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("build", ORDER_BUILDERS.values(), ids=ORDER_BUILDERS.keys())
def test_non_finite_order_is_refused_naming_it(build, s):
    # NaN used to give an all-NaN grid, and +-inf numpy's invalid-value warning
    with pytest.raises(ValueError, match=f"order s = {s} is not finite"):
        build(s)


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

    def test_upward_conversion_is_silent_and_the_transform_refuses(self):
        # the boundary grows past TOL_FFT: quasi_from_char alone judges it
        g = char_vacuum(0.0, GridSpec(side=65, extent=8.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = convert_order(g, 1.0)
            with pytest.raises(ValueError, match="enlarge the grid extent"):
                quasi_from_char(out)

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    @pytest.mark.parametrize("where", [(0, 0), (0, 4), (-1, 4), (4, 0), (4, -1)],
                             ids=["corner", "top", "bottom", "left", "right"])
    def test_refuses_non_finite_boundary_with_smaller_extent(self, where, value):
        # a NaN after a finite edge once slipped past the edges' maximum to an all-NaN grid
        g = char_vacuum(0.0, GridSpec(side=9, extent=8.0))
        values = g.values.copy()
        values[where] = value
        grid = CharGrid(s=0.0, axis=g.axis, values=values)
        with pytest.raises(ValueError, match="boundary magnitude .* is not finite") as exc:
            quasi_from_char(grid)
        assert "reduce the grid extent" in str(exc.value)
        assert "enlarge" not in str(exc.value)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [np.inf, np.nan, complex(0.0, np.nan)])
    def test_refuses_non_finite_interior_without_advice_on_extent(self, value):
        g = char_vacuum(0.0, GridSpec(side=9, extent=8.0))
        values = g.values.astype(type(value))  # a real grid, or a complex one
        values[4, 4] = value
        grid = CharGrid(s=0.0, axis=g.axis, values=values)
        with pytest.raises(ValueError, match="not finite inside the grid boundary") as exc:
            quasi_from_char(grid)
        assert "extent" not in str(exc.value)

    @pytest.mark.filterwarnings("error")
    def test_refuses_a_finite_grid_whose_transform_overflows(self):
        # once an ifft overflow warning, or with warnings ignored an all-NaN grid
        g = char_vacuum(0.0, GridSpec(side=9, extent=8.0))
        values = g.values.copy()
        values[2:7, 2:7] = 1.7e308
        grid = CharGrid(s=0.0, axis=g.axis, values=values)
        with pytest.raises(ValueError, match="^the transform of the characteristic function "
                                             "overflows$"):
            quasi_from_char(grid)

    @pytest.mark.filterwarnings("error")
    def test_refuses_a_quasiprobability_wider_than_its_window(self):
        # W of covariance 100 1 on the alpha window +-17.6: the mass beyond the window
        # wraps in, and the edge is 0.4 of the peak
        g = char_gaussian(200.0 * np.eye(2), 0.0, GridSpec(side=129, extent=8.0))
        with pytest.raises(ValueError, match=r"^quasiprobability boundary magnitude 6\.\d+e-04 "
                                             r"exceeds 1e-06 of its peak 1\.\d+e-03") as exc:
            quasi_from_char(g)
        assert str(exc.value).endswith("shrink the grid spacing (raise --grid or lower --extent)")

    @pytest.mark.filterwarnings("error")
    def test_refuses_interpolation_error_spread_over_the_window(self):
        # a narrow P, but the cubic interpolation error of the action, amplified by the
        # lift to order 1 - 1e-3, lies evenly over the window where the density is < 1e-100
        g = char_fock1(0.0, GridSpec(side=129, extent=8.0))
        ch = Channel(X=0.9 * rotation(0.4) @ np.diag([1.0, 0.6]), Y=[[2.5, 0.3], [0.3, 1.8]])
        lifted = convert_order(act_chargrid(ch, g), 1.0 - 1e-3)
        with pytest.raises(ValueError, match=r"^quasiprobability boundary magnitude 1\.409e-06 "
                                             r"exceeds 1e-06 of its peak 9\.274e-02") as exc:
            quasi_from_char(lifted)
        assert "interpolation error amplified by an order conversion" in str(exc.value)
        assert str(exc.value).endswith("shrink the grid spacing (raise --grid or lower --extent)")

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
    """act_chargrid over meshgrid pairs: every node's image clipped to one node past the
    edge and interpolated, a complex grid's parts apart; escaped nodes zeroed, then the
    envelope applied."""
    X, Y, ax, n, L = ch.X, ch.Y, grid.axis, grid.side, grid.extent
    x1, x2 = _meshgrid_longhand(ax)
    m1 = X[0, 0] * x1 + X[0, 1] * x2
    m2 = X[1, 0] * x1 + X[1, 1] * x2
    env = np.exp(-0.5 * (Y[0, 0] * x1 * x1 + 2.0 * Y[0, 1] * x1 * x2
                         + Y[1, 1] * x2 * x2))
    escaped = ~((np.abs(m1) <= L) & (np.abs(m2) <= L))
    fx = np.clip((m1 - ax[0]) / grid.spacing, -1.0, n)
    fy = np.clip((m2 - ax[0]) / grid.spacing, -1.0, n)
    bx = np.clip(np.floor(fx).astype(np.int64) - 1, 0, n - 4)
    by = np.clip(np.floor(fy).astype(np.int64) - 1, 0, n - 4)
    tx = fx - (bx + 1)
    ty = fy - (by + 1)
    wx = (-tx * (tx - 1.0) * (tx - 2.0) / 6.0, (tx * tx - 1.0) * (tx - 2.0) / 2.0,
          -tx * (tx + 1.0) * (tx - 2.0) / 2.0, tx * (tx * tx - 1.0) / 6.0)
    wy = (-ty * (ty - 1.0) * (ty - 2.0) / 6.0, (ty * ty - 1.0) * (ty - 2.0) / 2.0,
          -ty * (ty + 1.0) * (ty - 2.0) / 2.0, ty * (ty * ty - 1.0) / 6.0)

    def interp(values):
        out = np.zeros(fx.shape)
        for i in range(4):
            acc = wy[0] * values[bx + i, by]
            for j in range(1, 4):
                acc = acc + wy[j] * values[bx + i, by + j]
            out += wx[i] * acc
        return out

    mapped = np.zeros(grid.values.shape, np.result_type(grid.values, float))
    mapped.real = interp(grid.values.real)
    if np.iscomplexobj(mapped):
        mapped.imag = interp(grid.values.imag)
    mapped[escaped] = 0.0
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

    @pytest.mark.parametrize("side, X, Y, complex_grid, escapes", [
        # images escape past every edge, all where the envelope has decayed
        (129, 1.5 * rotation(0.3), np.diag([4.0, 3.0]), False, True),
        (129, 0.6 * rotation(0.4) @ np.diag([1.0, 0.7]), np.array([[2.5, 0.3], [0.3, 1.8]]),
         True, False),
        # 257 rows: the last block of rows, and of points, is partial
        (257, 1.5 * rotation(0.3), np.diag([4.0, 3.0]), True, True),
    ], ids=["escaping", "complex", "partial-last-block"])
    def test_act_chargrid_on_the_general_path(self, side, X, Y, complex_grid, escapes):
        ch = Channel(X=X, Y=Y)
        grid = char_fock1(0.0, GridSpec(side=side, extent=7.0))
        x1, x2 = _meshgrid_longhand(grid.axis)
        if complex_grid:  # a displaced photon: a sizeable imaginary part
            grid = CharGrid(s=0.0, axis=grid.axis,
                            values=grid.values * np.exp(1j * (0.7 * x1 - 0.4 * x2)))
        images = np.abs(X[0, 0] * x1 + X[0, 1] * x2), np.abs(X[1, 0] * x1 + X[1, 1] * x2)
        assert (max(m.max() for m in images) > 7.0) == escapes
        assert (side * side) % INTERP_BLOCK and side % (INTERP_BLOCK // side)
        got = act_chargrid(ch, grid).values
        assert got.dtype == (complex if complex_grid else float)
        assert _same_bits(got, _act_chargrid_longhand(ch, grid))

    def test_act_chargrid_refuses_an_undecayed_escape(self):
        # a rotated shear under little noise: corners leave the support at weight 0.6
        X = rotation(0.3) @ np.array([[1.0, 0.05], [0.0, 1.0]])
        with pytest.raises(ValueError, match="^mapped points leave the grid where the noise "
                                             "envelope has not decayed; enlarge the grid "
                                             "extent$"):
            act_chargrid(Channel(X=X, Y=0.01 * np.eye(2)), char_fock1(0.0, self.SPEC))

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


def test_pipeline_builds_no_full_grid_temporary():
    # tracemalloc sees numpy's buffers.  act_chargrid holds its output and a few blocks of
    # rows; quasi_from_char one complex buffer and its real result
    spec = GridSpec(side=1025, extent=8.0)
    grid = char_gaussian([[1.3, 0.2], [0.2, 0.9]], 0.0, spec)
    ch = Channel(X=0.6 * rotation(0.4) @ np.diag([1.0, 0.7]), Y=[[2.5, 0.3], [0.3, 2.4]])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        acted = act_chargrid(ch, grid)
        act_peak = tracemalloc.get_traced_memory()[1] - base
        lifted = convert_order(acted, 1.0 - P_EPS)
        del acted
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        quasi_from_char(lifted)
        quasi_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert lifted.values.dtype == float
    assert act_peak <= 1.5 * lifted.values.nbytes
    assert quasi_peak <= 3.5 * lifted.values.nbytes


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

    def test_fft_route_is_the_photon_pipeline(self):
        # the steps spelled out: unit gain, noise diag(a, b), order 1, alpha = axis / sqrt2
        spec = GridSpec(side=129, extent=10.0)
        axis, p = fock1_output_p_fft(3.0, 1.5, spec)
        ch = Channel(X=np.eye(2), Y=np.diag([3.0, 1.5]))
        q = quasi_from_char(convert_order(act_chargrid(ch, char_fock1(0.0, spec)), 1.0))
        assert _same_bits(axis, q.axis / np.sqrt(2.0))
        assert _same_bits(p, 2.0 * np.pi * q.values)
        assert np.abs(p - fock1_output_p(3.0, 1.5, axis[:, None], axis)).max() < 1e-6
        with warnings.catch_warnings(), pytest.raises(ValueError, match="enlarge"):
            warnings.simplefilter("error")
            fock1_output_p_fft(2.0, 2.0, GridSpec(side=65, extent=3.0))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            fock1_output_p(0.0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            fock1_output_p(2.0, -1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            fock1_output_p(2.0, 2.0, 0.0, 0.0, variant="other")
