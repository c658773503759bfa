"""Gaussian state primitives in the real (q, p) phase-space representation.

Variance matrices are real symmetric with the vacuum normalized to the
identity; a matrix V describes a physical state iff V + i*Sigma >= 0,
where Sigma is the direct sum of per-mode blocks [[0, 1], [-1, 0]].
A single-mode Gaussian state is classical (its P function is a proper
probability density) iff V >= 1.

All functions are pure; matrices are plain numpy arrays, single mode
(2x2) or two modes (4x4) with quadrature ordering (q1, p1, q2, p2).
The two-mode entanglement path (tmsv_variance, apply_channel_one_side,
ppt_defect, is_ppt_separable) also takes stacks of shape (..., 4, 4),
or an array of squeezes, and returns one result per matrix; a single
matrix goes through the same code.
"""

import numpy as np

from . import _kernels

TOL_PSD = 1e-9  # positive-semidefinite slack, relative to max(1, matrix norm)
TOL_ALG = 1e-12  # exact-algebra slack (witness identities, symplectic checks)
TOL_CLASS = 1e-6  # classicality margin slack

SIGMA1 = np.array([[0.0, 1.0], [-1.0, 0.0]])  # single-mode symplectic form


def symplectic_form(n_modes):
    """Symplectic form for n modes, block-diagonal [[0, 1], [-1, 0]] per mode."""
    out = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        out[2 * k, 2 * k + 1] = 1.0
        out[2 * k + 1, 2 * k] = -1.0
    return out


SIGMA2 = symplectic_form(2)
_PARTIAL_T = np.diag([1.0, 1.0, 1.0, -1.0])  # transposition of mode 2: p2 -> -p2


def rotation(theta):
    """Phase-space rotation by theta, an element of SO(2) < Sp(2, R)."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def squeeze(r):
    """Squeeze symplectic diag(e^-r, e^r); scales q down and p up for r > 0."""
    return np.diag([np.exp(-r), np.exp(r)])


def _psd_scale(M):
    """max(1, max|M_ij|) per matrix of a stack (..., n, n)."""
    return np.maximum(1.0, np.abs(M).max(axis=(-2, -1)))


def state_defect(V):
    """Smallest eigenvalue of V + i*Sigma; nonnegative iff V is a valid state."""
    V = np.asarray(V, dtype=float)
    n = V.shape[0] // 2
    return _kernels.hermitian_eigmin(V, symplectic_form(n))


def is_valid_state(V):
    """Whether V satisfies the uncertainty relation V + i*Sigma >= 0.

    The slack is TOL_PSD * max(1, max|V_ij|) so verdicts stay meaningful for
    large-norm matrices where absolute eigenvalue accuracy degrades.
    """
    return bool(state_defect(V) >= -TOL_PSD * _psd_scale(V))


def tmsv_variance(r):
    """Two-mode squeezed vacuum variance, cosh(2r) on the diagonal and
    sinh(2r) * diag(1, -1) correlations between the modes.

    An array of squeezes gives a stack of shape r.shape + (4, 4).
    """
    r = np.asarray(r, dtype=float)
    c, s = np.cosh(2.0 * r), np.sinh(2.0 * r)
    V = c[..., None, None] * np.eye(4)
    V[..., 0, 2] = V[..., 2, 0] = s
    V[..., 1, 3] = V[..., 3, 1] = -s
    return V


def apply_channel_one_side(X, Y, V):
    """Act with the Gaussian channel (X, Y) on mode 1 of a two-mode variance V.

    The embedded maps are X + identity and Y + zeros on the second mode, so
    the output is (X (+) 1)^T V (X (+) 1) + (Y (+) 0).  V may be a stack
    (..., 4, 4); every matrix goes through the same channel.
    """
    Xt = np.eye(4)
    Xt[:2, :2] = X
    out = Xt.T @ np.asarray(V, dtype=float) @ Xt
    out[..., :2, :2] += Y
    return out


def ppt_defect(V):
    """Smallest eigenvalue of Lambda V Lambda + i*Sigma, Lambda = diag(1, 1, 1, -1).

    Nonnegative iff the partial transpose on mode 2 is a valid state, which
    for 1+1 modes is equivalent to separability of the Gaussian state.
    A stack (..., 4, 4) gives an array of shape (...), from one LAPACK call.
    """
    V = np.asarray(V, dtype=float)
    return _kernels.hermitian_eigmin(_PARTIAL_T @ V @ _PARTIAL_T, SIGMA2)


def is_ppt_separable(V, tol=TOL_PSD):
    """Whether the two-mode Gaussian state with variance V is separable.

    Uses the partial-transpose test on mode 2, necessary and sufficient
    for 1+1 modes.  Slack is relative as in is_valid_state, per matrix:
    a stack (..., 4, 4) gives a bool array of shape (...).
    """
    ok = ppt_defect(V) >= -tol * _psd_scale(V)
    return ok if ok.ndim else bool(ok)


def symplectic_check(S):
    """Whether S preserves the symplectic form, max|S^T Sigma S - Sigma| <= TOL_ALG."""
    S = np.asarray(S, dtype=float)
    n = S.shape[0] // 2
    sig = symplectic_form(n)
    return float(np.abs(S.T @ sig @ S - sig).max()) <= TOL_ALG
