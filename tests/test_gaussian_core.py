"""State-level primitives: symplectic forms, validity, classicality."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussatlas.gaussian_core import (
    SIGMA1,
    is_valid_state,
    rotation,
    squeeze,
    state_defect,
    symplectic_check,
    symplectic_form,
)

ATOL = 1e-12


def _squeezed_vacuum(r, theta=0.0):
    """Variance of the pure squeezed vacuum, R_theta diag(e^2r, e^-2r) R_theta^T."""
    R = rotation(theta)
    return R @ np.diag([np.exp(2.0 * r), np.exp(-2.0 * r)]) @ R.T


def _two_mode_squeezed_vacuum(r):
    """cosh(2r) on the diagonal, sinh(2r) diag(1, -1) between the modes."""
    c, s = np.cosh(2.0 * r), np.sinh(2.0 * r)
    Z = np.diag([1.0, -1.0])
    return np.block([[c * np.eye(2), s * Z], [s * Z, c * np.eye(2)]])


def test_symplectic_form_blocks():
    np.testing.assert_array_equal(symplectic_form(1), SIGMA1)
    np.testing.assert_array_equal(symplectic_form(2), np.kron(np.eye(2), SIGMA1))
    sig3 = symplectic_form(3)
    assert sig3.shape == (6, 6)
    np.testing.assert_array_equal(sig3[2:4, 2:4], SIGMA1)
    np.testing.assert_array_equal(sig3, -sig3.T)


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


def test_two_mode_squeezed_vacuum_is_pure():
    V = _two_mode_squeezed_vacuum(0.6)
    assert is_valid_state(V)
    assert abs(state_defect(V)) < 1e-9
    assert not is_valid_state(_two_mode_squeezed_vacuum(0.0) - 1e-3 * np.eye(4))


@settings(deadline=None, max_examples=40)
@given(r=st.floats(-2.0, 2.0), theta=st.floats(0.0, np.pi))
def test_symplectic_conjugation_preserves_validity(r, theta):
    S = rotation(theta) @ squeeze(r)
    assert symplectic_check(S)
    V = S.T @ np.eye(2) @ S
    assert is_valid_state(V)
    assert abs(state_defect(V)) < 1e-8 * max(1.0, np.abs(V).max())


@settings(deadline=None, max_examples=40)
@given(r=st.floats(0.01, 3.0))
def test_two_mode_squeezed_vacuum_is_valid(r):
    assert is_valid_state(_two_mode_squeezed_vacuum(r))


def test_relative_tolerance_on_large_matrices():
    # 1e6-norm valid state must not be rejected for absolute eigen noise
    V = 1e6 * np.eye(2)
    assert is_valid_state(V)
    assert is_valid_state(_two_mode_squeezed_vacuum(8.0))


@pytest.mark.parametrize("n", [1, 2])
def test_state_defect_antisymmetric_part_only(n):
    # adding i*Sigma twice shifts the defect by exactly +/-1 bands
    V = np.eye(2 * n)
    assert abs(state_defect(V)) < ATOL
    assert abs(state_defect(2.0 * V) - 1.0) < ATOL
