"""Ordered characteristic functions and quasiprobability grids.

Conventions (pinned by round-trip tests):

* Grids sample the real plane (xi1, xi2) with |xi|^2 = xi1^2 + xi2^2.
  The s-ordered characteristic function of the vacuum is
  exp(((s - 1)/2) |xi|^2); a Gaussian state with variance V has
  chi_s(xi) = exp(-xi^T (V - s*1) xi / 2), so the vacuum at s = 0 is
  exp(-|xi|^2 / 2) with V = 1.
* Quasiprobabilities live on (alpha1, alpha2) = (q, p)/sqrt(2) and are
  computed as W_s(alpha) = (1/2 pi^2) Int exp(i sqrt2 alpha.xi) chi_s(xi) dxi,
  normalized so the grid integral of W is 1.  A Gaussian state maps to a
  normal density with covariance (V - s*1)/2; s = 1 is the P function,
  s = 0 the Wigner function, s = -1 the Q function.

P-function grids are evaluated at the regularized order s = 1 - P_EPS;
the exact s = 1 limit of a classical state is a proper density but need
not decay on any finite grid.

The states built here are parity-even, so their grids are real (float64)
and stay real up to the transform; complex grids are accepted too.  Grids
are outer sums and products of per-axis vectors, rounded as over meshgrids.
A grid is (s, axis, values), its extent its axis's last node; ``quasi_from_char``
refuses a non-finite value, an undecayed boundary, an overflowing transform or
one too coarse for its window, and nothing here warns.
``fock1_output_p_fft`` is the one Fourier route to a single photon's output P:
``pfunc --variant fft`` prints it, and criterion 4 checks it against the closed form.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .channels import _psd2, act_chargrid, canonical_channel

TOL_FFT = 1e-6  # transform accuracy floor; boundary-decay refusal threshold
P_EPS = 1e-3  # P-function regularization, evaluate at s = 1 - P_EPS


@dataclass(frozen=True, eq=False)
class GridSpec:
    """Sampling request: odd integer side length and half-width of the square domain."""

    side: int = 257
    extent: float = 8.0

    def __post_init__(self):
        if not isinstance(self.side, numbers.Integral) or self.side < 8 or self.side % 2 == 0:
            raise ValueError("grid side must be an odd integer >= 9")
        if not (self.extent > 0 and math.isfinite(2.0 * self.extent * self.extent)):
            raise ValueError("grid extent must be positive, with a finite squared radius")


@dataclass(frozen=True, eq=False)
class _Grid:
    """Samples at order s on the square grid of an axis.

    values[i, j] is taken at (axis[i], axis[j]); the axis has an odd number of
    points, so 0 is a node, and spans [-extent, extent], extent its last node.
    Any other shape of axis or values is refused with ValueError.
    """

    s: float
    axis: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        shape = np.shape(self.axis)
        if len(shape) != 1 or shape[0] % 2 == 0 or np.shape(self.values) != shape * 2:
            raise ValueError(f"grid axis {shape} and values {np.shape(self.values)} "
                             "are not (n,) and (n, n) with n odd")

    @property
    def side(self):
        return self.values.shape[0]

    @property
    def spacing(self):
        return self.axis[1] - self.axis[0]

    @property
    def extent(self):
        return float(self.axis[-1])


class CharGrid(_Grid):
    """Samples of an s-ordered characteristic function, real or complex."""


class QuasiGrid(_Grid):
    """Samples of a real s-ordered quasiprobability on its reciprocal grid."""

    @property
    def cell(self):
        return self.spacing * self.spacing


def _axis(spec):
    return np.linspace(-spec.extent, spec.extent, spec.side)


def _radius2(xi):
    """xi1^2 + xi2^2 on the grid of axis xi."""
    sq = xi * xi
    return sq[:, None] + sq


def exp_quadratic(m11, m12, m22, xi1, xi2):
    """exp(-(m11 xi1 xi1 + 2 m12 xi1 xi2 + m22 xi2 xi2) / 2), xi1 down the rows, xi2 across."""
    q = (2.0 * m12 * xi1)[:, None] * xi2
    q += (m11 * xi1 * xi1)[:, None]
    q += m22 * xi2 * xi2
    q *= -0.5
    return np.exp(q, out=q)


def _check_order(s):
    """Refuse a NaN or infinite order s before it reaches any arithmetic."""
    if not math.isfinite(s):
        raise ValueError(f"order s = {s} is not finite")


def char_vacuum(s, spec=GridSpec()):
    """Vacuum characteristic function at order s: exp(((s - 1)/2) |xi|^2)."""
    _check_order(s)
    xi = _axis(spec)
    values = _radius2(xi)
    values *= 0.5 * (s - 1.0)
    return CharGrid(s=float(s), axis=xi, values=np.exp(values, out=values))


def char_fock1(s, spec=GridSpec()):
    """Single-photon characteristic function, (1 - |xi|^2) times the vacuum one."""
    _check_order(s)
    xi = _axis(spec)
    r2 = _radius2(xi)
    env = 0.5 * (s - 1.0) * r2
    values = np.subtract(1.0, r2, out=r2)
    values *= np.exp(env, out=env)
    return CharGrid(s=float(s), axis=xi, values=values)


def char_gaussian(V, s, spec=GridSpec()):
    """Characteristic function of a Gaussian state, exp(-xi^T (V - s*1) xi / 2);
    V is checked and read as act_variance checks and reads it."""
    _check_order(s)
    (v11, v12, _, v22), _ = _psd2(V, "V")
    xi = _axis(spec)
    return CharGrid(s=float(s), axis=xi, values=exp_quadratic(v11 - s, v12, v22 - s, xi, xi))


def convert_order(grid, s_target):
    """Reorder a characteristic function: multiply by exp(((s_target - s)/2) |xi|^2).

    The factor follows from the definition chi_s = exp(s |xi|^2 / 2) Tr(rho D(xi)).
    Raising the order amplifies the grid boundary, up to overflow; the conversion
    is silent, and quasi_from_char refuses a result it cannot transform.
    """
    _check_order(s_target)
    ds = float(s_target) - grid.s
    if ds == 0.0:
        return grid
    factor = _radius2(grid.axis)
    factor *= 0.5 * ds
    # overflow leaves inf or nan on the boundary, which quasi_from_char refuses
    with np.errstate(over="ignore", invalid="ignore"):
        values = grid.values * np.exp(factor, out=factor)
    return CharGrid(s=float(s_target), axis=grid.axis, values=values)


def quasi_from_char(grid):
    """Fourier-transform a characteristic grid to its quasiprobability.

    The one judge of a transformable grid: it refuses a grid with a value
    that is not finite, on the boundary (an order conversion overflowed:
    the extent must shrink) or inside it, a boundary above TOL_FFT (the
    transform would alias: the extent must grow), a transform that overflows,
    a result with an imaginary residue above TOL_FFT (non-Hermitian input),
    and one above TOL_FFT times its peak on the alpha window's boundary (W outgrows
    the window and wraps round, or a channel action's interpolation error, amplified
    by an order conversion, spreads over it: the spacing must shrink).  The
    transform is ifft2's in one complex buffer, its two passes in place, and
    only the real part is shifted back.
    """
    v = grid.values
    bmax = float(np.max([np.abs(edge).max() for edge in (v[0], v[-1], v[:, 0], v[:, -1])]))
    if not math.isfinite(bmax):
        raise ValueError(
            f"characteristic function boundary magnitude {bmax:.3e} is not finite, as "
            f"where an order conversion overflowed; reduce the grid extent")
    if bmax > TOL_FFT:
        raise ValueError(
            f"characteristic function boundary magnitude {bmax:.3e} exceeds "
            f"{TOL_FFT:.0e}; enlarge the grid extent before transforming")
    if not np.isfinite(v).all():
        raise ValueError("characteristic function is not finite inside the grid boundary")
    n = grid.side
    d = grid.spacing
    W = np.fft.ifftshift(v).astype(complex, copy=False)
    # in place, rows then columns, as ifft2 passes them; then scaled as ifft2's result was
    with np.errstate(over="ignore", invalid="ignore"):
        for axis in (1, 0):
            np.fft.ifft(W, axis=axis, out=W)
        W *= n * n
        W *= d * d / (2.0 * np.pi ** 2)
    # each extreme is NaN or infinite if any value is
    (top, bottom), (i_top, i_bottom) = ((float(p.max()), float(p.min())) for p in (W.real, W.imag))
    if not all(map(math.isfinite, (top, bottom, i_top, i_bottom))):
        raise ValueError("the transform of the characteristic function overflows")
    residue, peak = max(i_top, -i_bottom), max(top, -bottom)
    if residue > TOL_FFT:
        raise ValueError(f"imaginary residue {residue:.3e} exceeds {TOL_FFT:.0e}; "
                         "input grid is not Hermitian")
    P = np.fft.fftshift(W.real)
    edge = max(float(np.abs(e).max()) for e in (P[0], P[-1], P[:, 0], P[:, -1]))
    if edge > TOL_FFT * peak:
        raise ValueError(
            f"quasiprobability boundary magnitude {edge:.3e} exceeds {TOL_FFT:.0e} of its "
            f"peak {peak:.3e}: the quasiprobability is wider than its window and aliases, "
            "or interpolation error amplified by an order conversion spreads over it; "
            "shrink the grid spacing (raise --grid or lower --extent)")
    m = np.arange(n) - (n - 1) // 2
    alpha = 2.0 * np.pi * m / (np.sqrt(2.0) * n * d)
    return QuasiGrid(s=grid.s, axis=alpha, values=P)


def fock1_output_p(a, b, alpha1, alpha2, variant="rederived"):
    """Closed-form P function of a single photon after the unit-gain channel
    with diagonal added noise diag(a, b), requiring a, b > 1 to exist.

    Normalization follows the coherent-state resolution with measure
    d^2 alpha / pi, so the value at the origin is (2/sqrt(ab)) (1 - 1/a - 1/b);
    the sign at the origin flips exactly at 1/a + 1/b = 1.

    variant selects the polynomial factor: "rederived" (default) is
    1 + 4 alpha1^2/a^2 + 4 alpha2^2/b^2 - 1/a - 1/b, which matches the
    independent Fourier pipeline to machine precision; "printed" is the
    alternative 1 + 4 (alpha1 + alpha2)^2/a^2 - 1/a - 1/b, kept for
    comparison (it disagrees with the pipeline away from the origin).
    """
    a = float(a)
    b = float(b)
    if a <= 0 or b <= 0:
        raise ValueError("noise parameters must be positive")
    alpha1 = np.asarray(alpha1, dtype=float)
    alpha2 = np.asarray(alpha2, dtype=float)
    env = (2.0 / np.sqrt(a * b)) * np.exp(-2.0 * alpha1 ** 2 / a - 2.0 * alpha2 ** 2 / b)
    if variant == "rederived":
        poly = 1.0 + 4.0 * alpha1 ** 2 / a ** 2 + 4.0 * alpha2 ** 2 / b ** 2 - 1.0 / a - 1.0 / b
    elif variant == "printed":
        poly = 1.0 + 4.0 * (alpha1 + alpha2) ** 2 / a ** 2 - 1.0 / a - 1.0 / b
    else:
        raise ValueError("variant must be 'rederived' or 'printed'")
    out = env * poly
    return out if out.ndim else float(out)


def fock1_output_p_fft(a, b, spec):
    """(alpha axis, P) of fock1_output_p on spec: the photon's grid through the unit-gain
    channel with noise diag(a, b), to order 1 and transformed, refusing as those steps do;
    alpha = axis / sqrt2 and P = 2 pi W give fock1_output_p's d^2 alpha / pi convention."""
    out = act_chargrid(canonical_channel("I", a, b, 1.0), char_fock1(0.0, spec))
    q = quasi_from_char(convert_order(out, 1.0))
    return q.axis / np.sqrt(2.0), 2.0 * np.pi * q.values
