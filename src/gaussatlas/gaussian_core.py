"""Single-mode Gaussian state primitives in the real (q, p) phase space.

Variance matrices are real symmetric 2x2 with the vacuum normalized to
the identity; V describes a physical state iff V + i*Sigma >= 0, with
Sigma = [[0, 1], [-1, 0]].  That is a 2x2 Hermitian test, decided by
the smaller eigenvalue of ``_kernels.eig2`` (det / lam_max, no LAPACK).
A Gaussian state is classical (its P function is a proper probability
density) iff V >= 1.

All functions are pure; matrices are plain numpy arrays.
"""

import numpy as np

from . import _kernels

TOL_PSD = 1e-9  # positive-semidefinite slack, relative to max(1, matrix norm)
TOL_ALG = 1e-12  # exact-algebra slack (witness identities, symplectic checks)
TOL_CLASS = 1e-6  # classicality margin slack

SIGMA1 = np.array([[0.0, 1.0], [-1.0, 0.0]])  # single-mode symplectic form


def rotation(theta):
    """Phase-space rotation by theta, an element of SO(2) < Sp(2, R)."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def squeeze(r):
    """Squeeze symplectic diag(e^-r, e^r); scales q down and p up for r > 0."""
    return np.diag([np.exp(-r), np.exp(r)])


def state_defect(V):
    """Smallest eigenvalue of V + i*Sigma; nonnegative iff V is a valid state.

    V is a single-mode 2x2 variance matrix, read by its lower triangle;
    any other shape raises ValueError.
    """
    V = np.asarray(V, dtype=float)
    if V.shape != (2, 2):
        raise ValueError("V must be a single-mode 2x2 variance matrix")
    (v11, _), (v21, v22) = V.tolist()
    return _kernels.eig2(v11, v21, v22, 1.0)[1]


def is_valid_state(V):
    """Whether V satisfies the uncertainty relation V + i*Sigma >= 0.

    The slack is TOL_PSD * max(1, max|V_ij|) so verdicts stay meaningful for
    large-norm matrices where absolute eigenvalue accuracy degrades.
    """
    return bool(state_defect(V) >= -TOL_PSD * max(1.0, float(np.abs(V).max())))


def symplectic_check(S):
    """Whether the 2x2 S preserves the symplectic form, max|S^T Sigma S - Sigma| <= TOL_ALG."""
    S = np.asarray(S, dtype=float)
    return float(np.abs(S.T @ SIGMA1 @ S - SIGMA1).max()) <= TOL_ALG
