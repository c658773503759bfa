"""Single-mode symplectic primitives: rotations, squeezes and the symplectic check."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussatlas.gaussian_core import SIGMA1, rotation, squeeze, symplectic_check


def test_rotation_and_squeeze_are_symplectic():
    for theta in (0.0, 0.3, -1.2, np.pi):
        assert symplectic_check(rotation(theta))
    for r in (-1.5, 0.0, 0.7):
        assert symplectic_check(squeeze(r))
    assert not symplectic_check(np.diag([2.0, 2.0]))


@settings(deadline=None, max_examples=40)
@given(r=st.floats(-2.0, 2.0), theta=st.floats(0.0, np.pi))
def test_symplectic_conjugation_preserves_validity(r, theta):
    S = rotation(theta) @ squeeze(r)
    assert symplectic_check(S)
    V = S.T @ np.eye(2) @ S
    # the vacuum maps to a pure state: V + i Sigma >= 0 with a zero eigenvalue
    defect = np.linalg.eigvalsh(V + 1j * SIGMA1)[0]
    assert abs(defect) < 1e-8 * max(1.0, np.abs(V).max())
