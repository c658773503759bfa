"""Single-mode Gaussian state primitives in the real (q, p) phase space.

Variance matrices are real symmetric 2x2 with the vacuum normalized to
the identity; V describes a physical state iff V + i*Sigma >= 0, with
Sigma = [[0, 1], [-1, 0]] the single-mode symplectic form.  A Gaussian
state is classical (its P function is a proper probability density)
iff V >= 1.  This module holds the shared tolerances and the symplectic
primitives (rotations, squeezes and the symplectic check).

All functions are pure; matrices are plain numpy arrays.
"""

import numpy as np

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


def symplectic_check(S):
    """Whether the 2x2 S preserves the symplectic form, max|S^T Sigma S - Sigma| <= TOL_ALG."""
    S = np.asarray(S, dtype=float)
    return float(np.abs(S.T @ SIGMA1 @ S - SIGMA1).max()) <= TOL_ALG
