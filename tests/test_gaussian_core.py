"""Single-mode state primitives: symplectic check, validity, classicality."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussatlas.gaussian_core import (
    is_valid_state,
    rotation,
    squeeze,
    state_defect,
    symplectic_check,
)

ATOL = 1e-12


def _squeezed_vacuum(r, theta=0.0):
    """Variance of the pure squeezed vacuum, R_theta diag(e^2r, e^-2r) R_theta^T."""
    R = rotation(theta)
    return R @ np.diag([np.exp(2.0 * r), np.exp(-2.0 * r)]) @ R.T


def test_rotation_and_squeeze_are_symplectic():
    for theta in (0.0, 0.3, -1.2, np.pi):
        assert symplectic_check(rotation(theta))
    for r in (-1.5, 0.0, 0.7):
        assert symplectic_check(squeeze(r))
    assert not symplectic_check(np.diag([2.0, 2.0]))


def test_vacuum_state_defect_is_zero():
    # vacuum saturates the uncertainty relation: lam_min(1 + i Sigma) = 0
    assert abs(state_defect(np.eye(2))) < ATOL
    assert is_valid_state(np.eye(2))
    assert not is_valid_state(0.99 * np.eye(2))


def test_squeezed_vacuum_valid_but_nonclassical():
    V = _squeezed_vacuum(0.8, theta=0.4)
    assert is_valid_state(V)
    assert abs(state_defect(V)) < 1e-10  # pure states stay on the boundary
    # nonclassical: the smaller eigenvalue e^{-2r} lies below the vacuum's 1
    assert abs(np.linalg.eigvalsh(V)[0] - np.exp(-1.6)) < ATOL


@settings(deadline=None, max_examples=40)
@given(r=st.floats(-2.0, 2.0), theta=st.floats(0.0, np.pi))
def test_symplectic_conjugation_preserves_validity(r, theta):
    S = rotation(theta) @ squeeze(r)
    assert symplectic_check(S)
    V = S.T @ np.eye(2) @ S
    assert is_valid_state(V)
    assert abs(state_defect(V)) < 1e-8 * max(1.0, np.abs(V).max())


def test_relative_tolerance_on_large_matrices():
    # 1e6-norm valid state must not be rejected for absolute eigen noise
    V = 1e6 * np.eye(2)
    assert is_valid_state(V)
    assert is_valid_state(_squeezed_vacuum(8.0, theta=0.3))


def test_state_defect_antisymmetric_part_only():
    # adding i*Sigma twice shifts the defect by exactly +/-1 bands
    assert abs(state_defect(np.eye(2))) < ATOL
    assert abs(state_defect(2.0 * np.eye(2)) - 1.0) < ATOL


@pytest.mark.parametrize("V", [np.eye(4), np.ones(2), np.ones((2, 3))])
def test_states_are_single_mode(V):
    for check in (state_defect, is_valid_state):
        with pytest.raises(ValueError, match="single-mode"):
            check(V)
