"""Gaussian state primitives in the real (q, p) phase-space representation.

Variance matrices are real symmetric with the vacuum normalized to the
identity; a matrix V describes a physical state iff V + i*Sigma >= 0,
where Sigma is the direct sum of per-mode blocks [[0, 1], [-1, 0]].
A single-mode Gaussian state is classical (its P function is a proper
probability density) iff V >= 1.

All functions are pure; matrices are plain numpy arrays, with
quadrature ordering (q1, p1, q2, p2, ...) for more than one mode.
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


def rotation(theta):
    """Phase-space rotation by theta, an element of SO(2) < Sp(2, R)."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def squeeze(r):
    """Squeeze symplectic diag(e^-r, e^r); scales q down and p up for r > 0."""
    return np.diag([np.exp(-r), np.exp(r)])


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
    return bool(state_defect(V) >= -TOL_PSD * max(1.0, float(np.abs(V).max())))


def symplectic_check(S):
    """Whether S preserves the symplectic form, max|S^T Sigma S - Sigma| <= TOL_ALG."""
    S = np.asarray(S, dtype=float)
    n = S.shape[0] // 2
    sig = symplectic_form(n)
    return float(np.abs(S.T @ sig @ S - sig).max()) <= TOL_ALG
