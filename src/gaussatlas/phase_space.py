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
A grid is (s, axis, values); its extent is its axis's last node.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

TOL_FFT = 1e-6  # transform accuracy floor; boundary-decay refusal threshold
P_EPS = 1e-3  # P-function regularization, evaluate at s = 1 - P_EPS


@dataclass(frozen=True, eq=False)
class GridSpec:
    """Sampling request: odd side length and half-width of the square domain."""

    side: int = 257
    extent: float = 8.0

    def __post_init__(self):
        if self.side < 8 or self.side % 2 == 0:
            raise ValueError("grid side must be an odd integer >= 9")
        if not (self.extent > 0 and math.isfinite(2.0 * self.extent * self.extent)):
            raise ValueError("grid extent must be positive, with a finite squared radius")


@dataclass(frozen=True, eq=False)
class _Grid:
    """Samples at order s on the square grid of an axis.

    values[i, j] is taken at (axis[i], axis[j]); the axis has an odd number of
    points, so 0 is a node, and spans [-extent, extent], extent its last node.
    """

    s: float
    axis: np.ndarray
    values: np.ndarray

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


def exp_quadratic(m11, m12, m22, xi):
    """exp(-(m11 xi1 xi1 + 2 m12 xi1 xi2 + m22 xi2 xi2) / 2) on the grid of axis xi."""
    q = (2.0 * m12 * xi)[:, None] * xi
    q += (m11 * xi * xi)[:, None]
    q += m22 * xi * xi
    q *= -0.5
    return np.exp(q, out=q)


def char_vacuum(s, spec=GridSpec()):
    """Vacuum characteristic function at order s: exp(((s - 1)/2) |xi|^2)."""
    xi = _axis(spec)
    values = _radius2(xi)
    values *= 0.5 * (s - 1.0)
    return CharGrid(s=float(s), axis=xi, values=np.exp(values, out=values))


def char_fock1(s, spec=GridSpec()):
    """Single-photon characteristic function, (1 - |xi|^2) times the vacuum one."""
    xi = _axis(spec)
    r2 = _radius2(xi)
    env = 0.5 * (s - 1.0) * r2
    values = np.subtract(1.0, r2, out=r2)
    values *= np.exp(env, out=env)
    return CharGrid(s=float(s), axis=xi, values=values)


def char_gaussian(V, s, spec=GridSpec()):
    """Characteristic function of a Gaussian state, exp(-xi^T (V - s*1) xi / 2)."""
    V = np.asarray(V, dtype=float)
    xi = _axis(spec)
    v12 = V[0, 1] + 0.5 * (V[1, 0] - V[0, 1])  # the midpoint, as Channel's; V[0, 1] if symmetric
    return CharGrid(s=float(s), axis=xi, values=exp_quadratic(V[0, 0] - s, v12, V[1, 1] - s, xi))


def _boundary_max(values):
    edge = max(np.abs(values[0, :]).max(), np.abs(values[-1, :]).max(),
               np.abs(values[:, 0]).max(), np.abs(values[:, -1]).max())
    return float(edge)


def convert_order(grid, s_target):
    """Reorder a characteristic function: multiply by exp(((s_target - s)/2) |xi|^2).

    The factor follows from the definition chi_s = exp(s |xi|^2 / 2) Tr(rho D(xi)).
    Raising the order amplifies the grid boundary; conversions whose corner
    amplification exceeds 1/TOL_FFT are flagged as ill-conditioned.
    """
    ds = float(s_target) - grid.s
    if ds == 0.0:
        return grid
    factor = _radius2(grid.axis)
    factor *= 0.5 * ds
    # overflow leaves inf or nan on the boundary, which quasi_from_char refuses
    with np.errstate(over="ignore", invalid="ignore"):
        values = grid.values * np.exp(factor, out=factor)
    if ds > 0 and not _boundary_max(values) <= TOL_FFT:
        warnings.warn("upward order conversion amplified the grid boundary above "
                      "TOL_FFT; downstream transforms will be ill-conditioned",
                      RuntimeWarning, stacklevel=2)
    return CharGrid(s=float(s_target), axis=grid.axis, values=values)


def quasi_from_char(grid):
    """Fourier-transform a characteristic grid to its quasiprobability.

    Refuses when the characteristic function on the grid boundary is not
    finite (an order conversion overflowed: the extent must shrink) or
    above TOL_FFT (the transform would alias: the extent must grow), and
    when the result carries an imaginary residue above TOL_FFT
    (non-Hermitian input).
    """
    bmax = _boundary_max(grid.values)
    if not math.isfinite(bmax):
        raise ValueError(
            f"characteristic function boundary magnitude {bmax:.3e} is not finite, as "
            f"where an order conversion overflowed; reduce the grid extent")
    if bmax > TOL_FFT:
        raise ValueError(
            f"characteristic function boundary magnitude {bmax:.3e} exceeds "
            f"{TOL_FFT:.0e}; enlarge the grid extent before transforming")
    n = grid.side
    d = grid.spacing
    # ifft2 of a real grid matches its complex copy bit for bit; scale in place
    W = np.fft.fftshift(np.fft.ifft2(np.fft.ifftshift(grid.values)))
    W *= n * n
    W *= d * d / (2.0 * np.pi ** 2)
    residue = float(np.abs(W.imag).max())
    if residue > TOL_FFT:
        raise ValueError(f"imaginary residue {residue:.3e} exceeds {TOL_FFT:.0e}; "
                         "input grid is not Hermitian")
    m = np.arange(n) - (n - 1) // 2
    alpha = 2.0 * np.pi * m / (np.sqrt(2.0) * n * d)
    return QuasiGrid(s=grid.s, axis=alpha, values=W.real)


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
