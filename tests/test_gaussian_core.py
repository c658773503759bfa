"""State-level primitives: validity, classicality, PPT separability."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussatlas.gaussian_core import (
    SIGMA1,
    SIGMA2,
    apply_channel_one_side,
    classicality_defect,
    gaussian_is_classical,
    is_ppt_separable,
    is_valid_state,
    ppt_defect,
    rotation,
    squeeze,
    squeezed_vacuum,
    state_defect,
    symplectic_check,
    symplectic_form,
    tmsv_variance,
)

ATOL = 1e-12


def test_symplectic_form_blocks():
    np.testing.assert_array_equal(symplectic_form(1), SIGMA1)
    np.testing.assert_array_equal(symplectic_form(2), SIGMA2)
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
    V = squeezed_vacuum(0.8, theta=0.4)
    assert is_valid_state(V)
    assert abs(state_defect(V)) < 1e-10  # pure states stay on the boundary
    assert not gaussian_is_classical(V)
    # defect equals e^{-2r} - 1 regardless of angle
    assert abs(classicality_defect(V) - (np.exp(-1.6) - 1.0)) < ATOL


def test_thermal_state_classical():
    assert gaussian_is_classical(3.0 * np.eye(2))
    assert abs(classicality_defect(3.0 * np.eye(2)) - 2.0) < ATOL
    assert gaussian_is_classical(np.eye(2))  # boundary counts as classical


def test_tmsv_variance_structure():
    V = tmsv_variance(0.6)
    assert V.shape == (4, 4)
    np.testing.assert_allclose(np.diag(V), np.cosh(1.2) * np.ones(4), atol=ATOL)
    assert abs(V[0, 2] - np.sinh(1.2)) < ATOL
    assert abs(V[1, 3] + np.sinh(1.2)) < ATOL
    assert is_valid_state(V)
    assert abs(state_defect(V)) < 1e-9  # pure


def test_tmsv_entangled_iff_squeezed():
    assert is_ppt_separable(tmsv_variance(0.0))
    assert not is_ppt_separable(tmsv_variance(0.5))
    assert not is_ppt_separable(tmsv_variance(-0.5))


def test_ppt_defect_tmsv_closed_form():
    # partial transpose of the TMSV has symplectic eigenvalue e^{-2r}
    for r in (0.3, 1.0, 2.0):
        V = tmsv_variance(r)
        assert abs(ppt_defect(V) - (np.exp(-2.0 * r) - 1.0)) < 1e-9


def test_apply_channel_one_side_identity():
    V = tmsv_variance(0.7)
    out = apply_channel_one_side(np.eye(2), np.zeros((2, 2)), V)
    np.testing.assert_allclose(out, V, atol=ATOL)


def test_apply_channel_one_side_known_output():
    # pure loss with transmissivity t on mode 1 keeps the state valid
    t = 0.36
    X = np.sqrt(t) * np.eye(2)
    Y = (1.0 - t) * np.eye(2)
    out = apply_channel_one_side(X, Y, tmsv_variance(1.0))
    assert is_valid_state(out)
    assert abs(out[0, 0] - (t * np.cosh(2.0) + 1.0 - t)) < ATOL
    assert abs(out[0, 2] - np.sqrt(t) * np.sinh(2.0)) < ATOL
    assert abs(out[2, 2] - np.cosh(2.0)) < ATOL


def test_complete_noise_breaks_tmsv_entanglement():
    # measure-and-prepare level of added noise restores separability
    out = apply_channel_one_side(np.eye(2), 2.0 * np.eye(2), tmsv_variance(2.0))
    assert is_ppt_separable(out)


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
def test_tmsv_defect_scaling(r):
    assert ppt_defect(tmsv_variance(r)) < 0.0
    assert is_valid_state(tmsv_variance(r))


def test_relative_tolerance_on_large_matrices():
    # 1e6-norm valid state must not be rejected for absolute eigen noise
    V = 1e6 * np.eye(2)
    assert is_valid_state(V)
    big = tmsv_variance(8.0)
    assert is_valid_state(big)
    assert not is_ppt_separable(big)


@pytest.mark.parametrize("n", [1, 2])
def test_state_defect_antisymmetric_part_only(n):
    # adding i*Sigma twice shifts the defect by exactly +/-1 bands
    V = np.eye(2 * n)
    assert abs(state_defect(V)) < ATOL
    assert abs(state_defect(2.0 * V) - 1.0) < ATOL


def _probe_outputs(rng, k):
    X = rng.normal(size=(2, 2))
    A = rng.normal(size=(2, 2))
    r = rng.uniform(0.0, 8.0, size=k)
    return X, A @ A.T, r


def test_stacked_entanglement_path_equals_per_matrix_calls():
    rng = np.random.default_rng(31)
    for _ in range(50):
        X, Y, r = _probe_outputs(rng, 5)
        V = tmsv_variance(r)
        assert V.shape == (5, 4, 4)
        assert np.array_equal(V, [tmsv_variance(float(x)) for x in r])
        out = apply_channel_one_side(X, Y, V)
        single = [apply_channel_one_side(X, Y, v) for v in V]
        assert np.array_equal(out, single)
        assert np.array_equal(ppt_defect(out), [ppt_defect(v) for v in single])
        sep = is_ppt_separable(out)
        assert sep.dtype == bool
        assert np.array_equal(sep, [is_ppt_separable(v) for v in single])


def test_stacked_ppt_slack_is_per_matrix():
    # diag(x, x, y, y) has PPT defect x - 1 for y >= 1 and slack tol max(1, y):
    # a norm-1 and a norm-1e6 state, each just inside its own slack
    outs = np.stack([np.diag([1.0 - 0.5e-9, 1.0 - 0.5e-9, 1.0, 1.0]),
                     np.diag([1.0 - 0.5e-3, 1.0 - 0.5e-3, 1e6, 1e6])])
    for tol, expect in ((1e-9, [True, True]), (1e-10, [False, False])):
        assert [is_ppt_separable(v, tol=tol) for v in outs] == expect
        assert is_ppt_separable(outs, tol=tol).tolist() == expect


def test_stacks_keep_leading_axes():
    r = np.linspace(0.0, 2.0, 6).reshape(2, 3)
    V = tmsv_variance(r)
    assert V.shape == (2, 3, 4, 4)
    assert ppt_defect(V).shape == (2, 3)
    assert is_ppt_separable(V).tolist() == [[True, False, False], [False, False, False]]
    assert isinstance(is_ppt_separable(V[0, 0]), bool)
    assert isinstance(ppt_defect(V[0, 0]), float)
