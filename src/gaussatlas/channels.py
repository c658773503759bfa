"""Single-mode Gaussian channels in the (X, Y) representation.

A channel acts on covariance matrices as V -> X^T V X + Y and on
Weyl-ordered characteristic functions as chi(xi) -> chi(X xi) exp(-xi^T Y xi / 2).
Complete positivity holds iff the Hermitian matrix Y + i sigma - i X sigma X^T
is positive semidefinite, with sigma the single-mode symplectic form.

Every channel reduces, by a symplectic pre-unitary S and a rotation
post-unitary R, to one of four canonical kinds fixed by det X:

* ``Kind.I``         det X > 0: X_c = kappa 1, Y_c = diag(a, b)
* ``Kind.II``        det X < 0: X_c = kappa diag(1, -1), Y_c = diag(a, b)
* ``Kind.III_RANK1``  rank X = 1: X_c = diag(1, 0), Y_c = R^T Y R kept whole
* ``Kind.III_ZERO``   X = 0: X_c = 0, Y_c = diag(a, b)

with a >= b the eigenvalues of Y.  ``canonical_reduce`` returns the
canonical data together with the witnesses (S, R), re-verified on exit:
S X R = X_c, R^T Y R = Y_c, det S = 1, R^T R = 1.
"""

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _kernels
from .gaussian_core import TOL_ALG, TOL_PSD, rotation, symplectic_check
from .phase_space import TOL_FFT, CharGrid

TOL_RANK = 1e-10  # singular values below TOL_RANK * ||X|| count as zero
_ZERO_FLOOR = 1e-150  # magnitudes below this count as an exactly zero X
_ASYM_TOL = 1e-12  # largest tolerated |Y12 - Y21|, relative to max(1, max|Y|)

SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]])


class Kind(Enum):
    """Canonical channel kind, fixed by the sign and rank of det X."""

    I = "I"
    II = "II"
    III_RANK1 = "III_rank1"
    III_ZERO = "III_zero"


def kind_from_label(label):
    """Parse a kind label; the bare 'III' resolves to the rank-1 sub-kind."""
    if isinstance(label, Kind):
        return label
    table = {"I": Kind.I, "II": Kind.II, "III": Kind.III_RANK1,
             "III_rank1": Kind.III_RANK1, "III_zero": Kind.III_ZERO}
    try:
        return table[label]
    except KeyError:
        raise ValueError(f"unknown canonical kind {label!r}") from None


def _as_mat2(M, name):
    try:
        M = np.array(M, dtype=float)
    except TypeError as exc:  # e.g. a JSON object where a matrix belongs
        raise ValueError(f"{name} must be a 2x2 real matrix") from exc
    if M.shape != (2, 2):
        raise ValueError(f"{name} must be a 2x2 real matrix")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} must be finite")
    return M


@dataclass(frozen=True, eq=False)
class Channel:
    """Immutable (X, Y) pair with Y validated symmetric PSD.

    Complete positivity is deliberately not enforced here so that
    unphysical pairs can still be classified and reported as such.
    """

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        X = _as_mat2(self.X, "X")
        Y = _as_mat2(self.Y, "Y")
        yscale = max(1.0, np.abs(Y).max())
        if abs(Y[0, 1] - Y[1, 0]) > _ASYM_TOL * yscale:
            raise ValueError("Y must be symmetric")
        Y = 0.5 * (Y + Y.T)
        if _kernels.eigmin_sym2(Y[0, 0], Y[0, 1], Y[1, 1]) < -TOL_PSD * yscale:
            raise ValueError("Y must be positive semidefinite")
        X.flags.writeable = False
        Y.flags.writeable = False
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)

    @property
    def det_x(self):
        (x11, x12), (x21, x22) = self.X.tolist()
        return x11 * x22 - x12 * x21

    @classmethod
    def from_json(cls, text):
        """Build a channel from the JSON descriptor {"X": [[..]], "Y": [[..]]}.

        The constructor validates the blocks, so Y must be symmetric to
        1e-12 max(1, max|Y|), exactly as for Channel(X, Y).
        """
        data = json.loads(text)
        if not isinstance(data, dict) or "X" not in data or "Y" not in data:
            raise ValueError('channel JSON must be an object with "X" and "Y"')
        return cls(X=data["X"], Y=data["Y"])

    def to_json(self):
        return json.dumps({"X": self.X.tolist(), "Y": self.Y.tolist()})


def canonical_channel(kind, a, b, kappa=None):
    """Channel already in canonical position for the given kind.

    a and b are the diagonal noise entries; kappa is the gain and is
    required for kinds I and II, ignored for the two III sub-kinds
    (their canonical X is diag(1, 0) or 0 by definition).
    """
    kind = kind_from_label(kind)
    Y = np.diag([float(a), float(b)])
    if kind in (Kind.I, Kind.II):
        if kappa is None or not kappa > 0:
            raise ValueError("kinds I and II need a positive kappa")
        X = kappa * (np.eye(2) if kind is Kind.I else SIGMA3)
    elif kind is Kind.III_RANK1:
        X = np.diag([1.0, 0.0])
    else:
        X = np.zeros((2, 2))
    return Channel(X=X, Y=Y)


@dataclass(frozen=True, eq=False)
class CanonicalForm:
    """Canonical data of a channel plus the reducing witnesses.

    x_canonical = S X R and y_canonical = R^T Y R; (a, b) are the
    eigenvalues of Y in descending order.  For Kind.III_RANK1 the
    post-rotation is pinned by X, so y_canonical stays a full symmetric
    matrix; for the other kinds it is diag(a, b).
    """

    kind: Kind
    kappa: float
    a: float
    b: float
    x_canonical: np.ndarray
    y_canonical: np.ndarray
    S: np.ndarray
    R: np.ndarray


def singular_x_rank(X):
    """Numerical rank of X: singular values below TOL_RANK * ||X||_2 drop.

    Magnitudes below 1e-150 count as an exactly zero matrix.  Closed form,
    on X scaled to max|x_ij| = 1 so that nothing overflows:
    ||X||_2 = (hypot(x11 + x22, x12 - x21) + hypot(x11 - x22, x12 + x21)) / 2,
    and |det X| / ||X||_2^2 is the ratio of the smaller singular value to
    the larger.
    """
    (x11, x12), (x21, x22) = _as_mat2(X, "X").tolist()
    scale = max(abs(x11), abs(x12), abs(x21), abs(x22))
    if scale == 0.0:
        return 0
    x11, x12, x21, x22 = x11 / scale, x12 / scale, x21 / scale, x22 / scale
    smax = 0.5 * (math.hypot(x11 + x22, x12 - x21) + math.hypot(x11 - x22, x12 + x21))
    if scale * smax <= _ZERO_FLOOR:
        return 0
    if abs(x11 * x22 - x12 * x21) <= TOL_RANK * smax * smax:
        return 1
    return 2


def _diagonalizing_rotation(Y):
    """Rotation R with R^T Y R = diag(a, b), a >= b; identity on ties."""
    half = 2.0 * Y[0, 1]
    delta = Y[0, 0] - Y[1, 1]
    theta = 0.5 * np.arctan2(half, delta)
    mean = 0.5 * (Y[0, 0] + Y[1, 1])
    spread = 0.5 * np.hypot(delta, half)
    return rotation(theta), float(mean + spread), float(mean - spread)


def _inv_unit_det(M):
    # adjugate of a det-1 matrix is its exact inverse
    return np.array([[M[1, 1], -M[0, 1]], [-M[1, 0], M[0, 0]]])


def _verify_witnesses(X, Y, form):
    sxr = form.S @ X @ form.R
    ryr = form.R.T @ Y @ form.R
    scale_x = max(1.0, np.abs(form.S).max() * np.abs(X).max())
    scale_y = max(1.0, np.abs(Y).max())
    ok = (np.abs(sxr - form.x_canonical).max() <= 1e-8 * scale_x
          and np.abs(ryr - form.y_canonical).max() <= 1e-8 * scale_y
          and abs(np.linalg.det(form.S) - 1.0) <= 1e-8 * max(1.0, np.abs(form.S).max() ** 2)
          and np.abs(form.R.T @ form.R - np.eye(2)).max() <= 1e-10)
    if not ok:
        raise RuntimeError("canonical reduction witnesses failed verification")
    return form


def canonical_reduce(ch):
    """Reduce a channel to canonical form with verified witnesses.

    Dispatch is purely linear-algebraic (sign of det X, numerical rank),
    so non-CP pairs reduce fine; Y must be PSD, which the Channel
    constructor guarantees.  Raises ValueError when det X is beyond the
    double range, where no canonical gain can be represented.
    """
    X, Y = ch.X, ch.Y
    rank = singular_x_rank(X)
    if rank == 2:
        with np.errstate(over="ignore"):
            det = np.linalg.det(X)
        if not math.isfinite(det):
            raise ValueError("det X overflows a double: the gain is out of range")
        R, a, b = _diagonalizing_rotation(Y)
        y_can = np.diag([a, b])
        if det > 0:
            kappa = float(np.sqrt(det))
            s_x = X / kappa
            form = CanonicalForm(kind=Kind.I, kappa=kappa, a=a, b=b,
                                 x_canonical=kappa * np.eye(2), y_canonical=y_can,
                                 S=R.T @ _inv_unit_det(s_x), R=R)
        else:
            kappa = float(np.sqrt(-det))
            s_x = (X @ SIGMA3) / kappa
            form = CanonicalForm(kind=Kind.II, kappa=kappa, a=a, b=b,
                                 x_canonical=kappa * SIGMA3, y_canonical=y_can,
                                 S=R @ _inv_unit_det(s_x), R=R)
    elif rank == 1:
        U, svals, Vt = np.linalg.svd(X)
        kappa = float(svals[0])
        u_rot = U @ np.diag([1.0, np.linalg.det(U)])
        w_rot = Vt.T @ np.diag([1.0, np.linalg.det(Vt.T)])
        y_can = w_rot.T @ Y @ w_rot
        mean = 0.5 * (y_can[0, 0] + y_can[1, 1])
        spread = 0.5 * np.hypot(y_can[0, 0] - y_can[1, 1], 2.0 * y_can[0, 1])
        a = float(mean + spread)
        b = float(mean - spread)
        form = CanonicalForm(kind=Kind.III_RANK1, kappa=kappa, a=a, b=b,
                             x_canonical=np.diag([1.0, 0.0]), y_canonical=y_can,
                             S=np.diag([1.0 / kappa, kappa]) @ u_rot.T, R=w_rot)
    else:
        R, a, b = _diagonalizing_rotation(Y)
        form = CanonicalForm(kind=Kind.III_ZERO, kappa=0.0, a=a, b=b,
                             x_canonical=np.zeros((2, 2)), y_canonical=np.diag([a, b]),
                             S=np.eye(2), R=R)
    return _verify_witnesses(X, Y, form)


def _cp_entries(ch):
    """(y11, y12, y22, 1 - det X) as Python floats, the entries of the CP matrix."""
    (y11, y12), (_, y22) = ch.Y.tolist()
    return y11, y12, y22, 1.0 - ch.det_x


def cp_defect(ch):
    """Smallest eigenvalue of the Hermitian matrix Y + i sigma - i X sigma X^T.

    Nonnegative (within tolerance) iff the channel is completely positive.
    For 2x2 X, X sigma X^T = det(X) sigma, so the matrix is
    Y + i (1 - det X) sigma and its smallest eigenvalue has a closed form.
    """
    return _kernels.eigmin_herm2(*_cp_entries(ch))


def is_cp(ch, tol=TOL_PSD):
    """Whether cp_defect is at least -tol max(1, max|Y|, |1 - det X|).

    False when det X is beyond the double range: the defect is then -inf,
    which an infinite slack would pass.
    """
    entries = _cp_entries(ch)
    scale = max(1.0, *map(abs, entries))
    return math.isfinite(scale) and _kernels.eigmin_herm2(*entries) >= -tol * scale


def act_variance(ch, V):
    """Output covariance X^T V X + Y; refuses to act through a non-CP pair."""
    if not is_cp(ch):
        raise ValueError("channel is not completely positive")
    V = _as_mat2(V, "V")
    return ch.X.T @ V @ ch.X + ch.Y


def act_chargrid(ch, grid):
    """Push a Weyl-ordered characteristic grid through the channel.

    Output samples are chi_in(X xi) * exp(-xi^T Y xi / 2), with chi_in(X xi)
    read off the input grid by separable 4-point cubic interpolation.
    Mapped points that leave the grid support are acceptable only where
    the Gaussian envelope has already decayed below TOL_FFT (the value is
    then taken as 0); otherwise the action is refused as unresolvable on
    this grid.
    """
    if not is_cp(ch):
        raise ValueError("channel is not completely positive")
    if grid.s != 0.0:
        raise ValueError("channel action needs a Weyl-ordered grid (s = 0)")
    X, Y = ch.X, ch.Y
    ax = grid.axis
    L = grid.extent
    x1, x2 = np.meshgrid(ax, ax, indexing="ij")
    m1 = X[0, 0] * x1 + X[0, 1] * x2
    m2 = X[1, 0] * x1 + X[1, 1] * x2
    env = np.exp(-0.5 * (Y[0, 0] * x1 * x1 + 2.0 * Y[0, 1] * x1 * x2
                         + Y[1, 1] * x2 * x2))
    inside = (np.abs(m1) <= L) & (np.abs(m2) <= L)
    if np.any(~inside & (env > TOL_FFT)):
        raise ValueError("mapped points leave the grid where the noise envelope "
                         "has not decayed; enlarge the grid extent")
    d = grid.spacing
    fx = (m1[inside] - ax[0]) / d
    fy = (m2[inside] - ax[0]) / d
    mapped = np.zeros(grid.values.shape, dtype=complex)
    mapped[inside] = _kernels.interp_cubic2d(grid.values, fx, fy)
    return CharGrid(s=0.0, extent=grid.extent, axis=ax, values=mapped * env)


def compose_pre_unitary(ch, S, tol=TOL_ALG):
    """The channel preceded by the Gaussian unitary of symplectic S: (S X, Y)."""
    S = _as_mat2(S, "S")
    if not symplectic_check(S, tol=tol):
        raise ValueError("S is not symplectic")
    return Channel(X=S @ ch.X, Y=ch.Y)


def compose_post_unitary(ch, S, tol=TOL_ALG):
    """The channel followed by the Gaussian unitary of S: (X S, S^T Y S)."""
    S = _as_mat2(S, "S")
    if not symplectic_check(S, tol=tol):
        raise ValueError("S is not symplectic")
    return Channel(X=ch.X @ S, Y=S.T @ ch.Y @ S)
