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
S X R = X_c, R^T Y R = Y_c, det S = 1, R^T R = 1, all in closed form
on Python floats (a rank-one X included).

Gaussian unitaries are 2x2 symplectic S; S^T sigma S = det(S) sigma, so
``symplectic_check`` tests det S = 1 to TOL_ALG; ``rotation`` builds the
rotations.  ``Channel`` accepts Y down to a -TOL_PSD max(1, max|Y_ij|) eigenvalue.
"""

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _kernels
from .phase_space import TOL_FFT, CharGrid, exp_quadratic

TOL_PSD = 1e-9  # positive-semidefinite slack, relative to max(1, matrix norm)
TOL_ALG = 1e-12  # slack on |det S - 1|, relative to the larger product of det S
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
    if not all(map(math.isfinite, M.ravel().tolist())):
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
        (y11, y12), (y21, y22) = _as_mat2(self.Y, "Y").tolist()
        yscale = max(1.0, abs(y11), abs(y12), abs(y21), abs(y22))
        if abs(y12 - y21) > _ASYM_TOL * yscale:
            raise ValueError("Y must be symmetric")
        y12 += 0.5 * (y21 - y12)  # the midpoint, without overflow; y12 itself if symmetric
        if _kernels.eig2(y11, y12, y22, 0.0)[1] < -TOL_PSD * yscale:
            raise ValueError("Y must be positive semidefinite")
        Y = np.array([[y11, y12], [y12, y22]])
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


def _det(x11, x12, x21, x22):
    """det X != 0 with np.linalg.det's bits: pivoted LU, then sign * exp(sum log|u_ii|)."""
    if abs(x21) > abs(x11):  # swap the rows, negating one to keep the sign
        x11, x12, x21, x22 = -x21, -x22, x11, x12
    u22 = x22 - x21 * (1.0 / x11) * x12
    try:
        return math.copysign(math.exp(math.log(abs(x11)) + math.log(abs(u22))), x11 * u22)
    except OverflowError:
        return math.inf


# canonical_reduce holds each 2x2 matrix as a row-major 4-tuple of floats
def _rot(theta):
    c, s = math.cos(theta), math.sin(theta)
    return c, -s, s, c


def _mul(A, B):
    a11, a12, a21, a22 = A
    b11, b12, b21, b22 = B
    return (a11 * b11 + a12 * b21, a11 * b12 + a12 * b22,
            a21 * b11 + a22 * b21, a21 * b12 + a22 * b22)


def _verify_witnesses(X, Y, S, R, x_can, y_can):
    """Raise unless S X R = x_can, R^T Y R = y_can, det S = 1 and R^T R = 1."""
    def close(A, B, tol):  # every |A_ij - B_ij| <= tol; a NaN fails
        return all(abs(p - q) <= tol for p, q in zip(A, B))

    s_max, Rt = max(map(abs, S)), (R[0], R[2], R[1], R[3])
    if not (close(_mul(_mul(S, X), R), x_can, 1e-8 * max(1.0, s_max * max(map(abs, X))))
            and close(_mul(_mul(Rt, Y), R), y_can, 1e-8 * max(1.0, max(map(abs, Y))))
            and close((S[0] * S[3] - S[1] * S[2],), (1.0,), 1e-8 * max(1.0, s_max ** 2))
            and close(_mul(Rt, R), (1.0, 0.0, 0.0, 1.0), 1e-10)):
        raise RuntimeError("canonical reduction witnesses failed verification")


def canonical_reduce(ch):
    """Reduce a channel to canonical form with verified witnesses.

    Dispatch is purely linear-algebraic (sign of det X, numerical rank),
    so non-CP pairs reduce fine; Y must be PSD, which the Channel
    constructor guarantees.  Raises ValueError when det X, the square of
    a rank-one gain or a noise eigenvalue overflows a double: no
    canonical form can represent them.
    """
    X, Y = ch.X.ravel().tolist(), ch.Y.ravel().tolist()
    (x11, x12, x21, x22), (y11, y12, _, y22) = X, Y
    a, b = _kernels.eig2(y11, y12, y22, 0.0)
    if not math.isfinite(a):
        raise ValueError("the noise eigenvalues overflow a double")
    # closed-form SVD: X = Q rot(alpha) + P refl(beta) = rot(phi) diag(Q + P, Q - P) rot(psi),
    # phi, psi = (alpha +- beta) / 2; hypot and atan2 read 2Q, 2P and the angles off
    # X / scale, so nothing overflows.  ||X||_2 = scale (Q + P), and singular values
    # below TOL_RANK ||X||_2 drop: |det X| / ||X||_2^2 is the ratio of the two
    scale = max(map(abs, X)) or 1.0  # 1 for X = 0, which stays 0
    u11, u12, u21, u22 = x11 / scale, x12 / scale, x21 / scale, x22 / scale
    e, f, g, h = u11 + u22, u11 - u22, u21 + u12, u21 - u12
    smax = 0.5 * (math.hypot(e, h) + math.hypot(f, g))
    rank = (0 if scale * smax <= _ZERO_FLOOR
            else 1 if abs(u11 * u22 - u12 * u21) <= TOL_RANK * smax * smax else 2)
    if rank == 1:
        kappa = scale * smax
        if not math.isfinite(kappa * kappa):  # S X in the witness check multiplies kappa by X
            raise ValueError("kappa^2 overflows a double: the gain is out of range")
        alpha, beta = math.atan2(h, e), math.atan2(g, f)
        R, Rt = _rot(0.5 * (beta - alpha)), _rot(0.5 * (alpha - beta))
        S = _mul((1.0 / kappa, 0.0, 0.0, kappa), _rot(-0.5 * (alpha + beta)))
        kind, x_can, y_can = Kind.III_RANK1, (1.0, 0.0, 0.0, 0.0), _mul(_mul(Rt, Y), R)
    else:
        theta = 0.5 * math.atan2(2.0 * y12, y11 - y22)
        R, Rt, y_can = _rot(theta), _rot(-theta), (a, 0.0, 0.0, b)
        if rank == 0:
            kind, kappa, x_can, S = Kind.III_ZERO, 0.0, (0.0,) * 4, (1.0, 0.0, 0.0, 1.0)
        else:
            det = _det(x11, x12, x21, x22)
            if not math.isfinite(det):
                raise ValueError("det X overflows a double: the gain is out of range")
            kappa = math.sqrt(abs(det))
            p11, p12, p21, p22 = x11 / kappa, x12 / kappa, x21 / kappa, x22 / kappa
            if det > 0:  # S = R^T (X / kappa)^-1
                kind, x_can, S = Kind.I, (kappa, 0.0, 0.0, kappa), _mul(Rt, (p22, -p12, -p21, p11))
            else:  # S = R (X sigma3 / kappa)^-1
                kind, x_can, S = Kind.II, (kappa, 0.0, 0.0, -kappa), _mul(R, (-p22, p12, -p21, p11))
    _verify_witnesses(X, Y, S, R, x_can, y_can)
    mats = np.array((x_can, y_can, S, R)).reshape(4, 2, 2)
    return CanonicalForm(kind=kind, kappa=kappa, a=a, b=b, x_canonical=mats[0],
                         y_canonical=mats[1], S=mats[2], R=mats[3])


def _cp_entries(ch):
    """(y11, y12, y22, 1 - det X) as Python floats, the entries of the CP matrix."""
    (y11, y12), (_, y22) = ch.Y.tolist()
    return y11, y12, y22, 1.0 - ch.det_x


def cp_defect(ch):
    """Smallest eigenvalue of the Hermitian matrix Y + i sigma - i X sigma X^T.

    Nonnegative (within tolerance) iff the channel is completely positive.
    For 2x2 X, X sigma X^T = det(X) sigma, so the matrix is
    Y + i (1 - det X) sigma and its smallest eigenvalue is eig2's.
    """
    return _kernels.eig2(*_cp_entries(ch))[1]


def is_cp(ch):
    """Whether cp_defect is at least -16 eps max(1, max|Y|, |1 - det X|).

    The slack is that of eb_oracle_tmsv (see _kernels.herm2_psd): a few
    roundings, so noise cannot hide a defect.  False when det X is beyond
    the double range: the defect is then -inf, which an infinite slack
    would pass.
    """
    return _kernels.herm2_psd(*_cp_entries(ch))


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
    this grid.  The output dtype follows the input's, promoted to at least
    float64: a real grid stays real, a complex one stays complex.
    """
    if not is_cp(ch):
        raise ValueError("channel is not completely positive")
    if grid.s != 0.0:
        raise ValueError("channel action needs a Weyl-ordered grid (s = 0)")
    X, Y = ch.X, ch.Y
    ax, L, d, n = grid.axis, grid.extent, grid.spacing, grid.side
    m1 = (X[0, 0] * ax)[:, None] + X[0, 1] * ax
    m2 = (X[1, 0] * ax)[:, None] + X[1, 1] * ax
    env = exp_quadratic(Y[0, 0], Y[0, 1], Y[1, 1], ax)
    # rounding is monotone, so m1 and m2 are monotone along each axis: corners bound them
    if all(np.abs(m[::n - 1, ::n - 1]).max() <= L for m in (m1, m2)):
        inside = None  # every mapped point is inside: no compress and scatter
        fx, fy = m1.ravel(), m2.ravel()
    else:
        inside = (np.abs(m1) <= L) & (np.abs(m2) <= L)
        if np.any(~inside & (env > TOL_FFT)):
            raise ValueError("mapped points leave the grid where the noise envelope "
                             "has not decayed; enlarge the grid extent")
        fx, fy = m1[inside], m2[inside]
    for f in (fx, fy):
        f -= ax[0]
        f /= d
    inner = _kernels.interp_cubic2d(grid.values, fx, fy)
    if inside is None:
        mapped = inner.reshape(env.shape)
    else:
        mapped = np.zeros(env.shape, dtype=inner.dtype)
        mapped[inside] = inner
    mapped *= env
    return CharGrid(s=0.0, extent=grid.extent, axis=ax, values=mapped)


def rotation(theta):
    """Phase-space rotation by theta, an element of SO(2) < Sp(2, R)."""
    return np.array(_rot(theta)).reshape(2, 2)


def symplectic_check(S):
    """Whether the 2x2 S is symplectic: |det S - 1| <= TOL_ALG max(1, |s11 s22|, |s12 s21|).

    The slack outgrows the determinant's rounding (a few eps times its
    larger product) at any squeeze; an overflowing product fails.
    """
    (s11, s12), (s21, s22) = np.asarray(S, dtype=float).tolist()
    p, q = s11 * s22, s12 * s21
    return abs(p - q - 1.0) <= TOL_ALG * max(1.0, abs(p), abs(q)) < math.inf


def compose_pre_unitary(ch, S):
    """The channel preceded by the Gaussian unitary of symplectic S: (S X, Y)."""
    S = _as_mat2(S, "S")
    if not symplectic_check(S):
        raise ValueError("S is not symplectic")
    return Channel(X=S @ ch.X, Y=ch.Y)


def compose_post_unitary(ch, S):
    """The channel followed by the Gaussian unitary of S: (X S, S^T Y S)."""
    S = _as_mat2(S, "S")
    if not symplectic_check(S):
        raise ValueError("S is not symplectic")
    return Channel(X=ch.X @ S, Y=S.T @ ch.Y @ S)
