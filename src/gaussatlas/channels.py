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

with a >= b the eigenvalues of Y.  The verdicts read only (kind, kappa,
a, b); the witnesses (S, R) are built and re-verified by
``canonical_reduce``, or else on first access: S X R = X_c, R^T Y R = Y_c,
det S = 1, R^T R = 1, all in closed form on Python floats (rank one too).

``Channel`` keeps X and Y as Python floats, with the noise eigenvalues,
det X and CP verdict its constructor measures, all that the verdicts read;
it builds its arrays on first access, and only array functions import numpy.

Gaussian unitaries are 2x2 symplectic S; S^T sigma S = det(S) sigma, so
``symplectic_check`` tests det S = 1 to TOL_ALG; ``rotation`` builds the
rotations.  ``Channel`` accepts Y down to a -TOL_PSD max(1, max|Y_ij|) eigenvalue.
"""

import json
import math
from functools import cached_property
from enum import Enum

from . import _kernels

TOL_PSD = 1e-9  # positive-semidefinite slack, relative to max(1, matrix norm)
TOL_ALG = 1e-12  # slack on |det S - 1|, relative to the larger product of det S
TOL_RANK = 1e-10  # singular values below TOL_RANK * ||X|| count as zero
_ZERO_FLOOR = 1e-150  # magnitudes below this count as an exactly zero X
_ASYM_TOL = 1e-12  # largest tolerated |Y12 - Y21|, relative to max(1, max|Y|)


class Kind(Enum):
    """Canonical channel kind, fixed by the sign and rank of det X."""

    I = "I"
    II = "II"
    III_RANK1 = "III_rank1"
    III_ZERO = "III_zero"


_KIND_LABELS = {"I": Kind.I, "II": Kind.II, "III": Kind.III_RANK1,
                "III_rank1": Kind.III_RANK1, "III_zero": Kind.III_ZERO}


def kind_from_label(label):
    """Parse a kind label; the bare 'III' resolves to the rank-1 sub-kind."""
    if isinstance(label, Kind):
        return label
    try:
        return _KIND_LABELS[label]
    except KeyError:
        raise ValueError(f"unknown canonical kind {label!r}") from None


def _as_mat2(M, name, finite=True):
    """A 2x2 M (with .tolist(), or nested sequences) as a row-major tuple of floats."""
    try:
        (m11, m12), (m21, m22) = M.tolist() if hasattr(M, "tolist") else M
        entries = float(+m11), float(+m12), float(+m21), float(+m22)  # +"1" is refused
    except (TypeError, ValueError):  # a wrong shape, or an entry that is not a number
        raise ValueError(f"{name} must be a 2x2 real matrix") from None
    except OverflowError:  # an integer past the double range
        raise ValueError(f"{name} must be finite") from None
    if finite and not all(map(math.isfinite, entries)):
        raise ValueError(f"{name} must be finite")
    return entries


def _array2(entries, writeable=True):
    """A row-major 4-tuple as a 2x2 float64 array."""
    import numpy as np
    M = np.array(entries).reshape(2, 2)
    M.flags.writeable = writeable
    return M


class Channel:
    """Immutable (X, Y) pair with Y validated symmetric PSD.

    Complete positivity is deliberately not enforced here so that
    unphysical pairs can still be classified and reported as such.  _x and
    _y keep the entries as row-major float tuples (Y symmetrised), and X
    and Y are read-only float64 arrays of them, built on first access.
    _noise (Y's eigenvalues a >= b), det_x and _cp (the is_cp verdict) are
    measured once, by the constructor's checks.  Assigning or deleting an
    attribute raises AttributeError; equality is identity.
    """

    X = cached_property(lambda self: _array2(self._x, writeable=False))
    Y = cached_property(lambda self: _array2(self._y, writeable=False))

    def __init__(self, X, Y):
        x11, x12, x21, x22 = x = _as_mat2(X, "X")
        y11, y12, y21, y22 = _as_mat2(Y, "Y")
        yscale = max(1.0, abs(y11), abs(y12), abs(y21), abs(y22))
        if abs(y12 - y21) > _ASYM_TOL * yscale:
            raise ValueError("Y must be symmetric")
        y12 += 0.5 * (y21 - y12)  # the midpoint, without overflow; y12 itself if symmetric
        det_x, noise = x11 * x22 - x12 * x21, _kernels.eig2(y11, y12, y22, 0.0)
        if noise[1] < -TOL_PSD * yscale:
            raise ValueError("Y must be positive semidefinite")
        vars(self).update(_x=x, _y=(y11, y12, y12, y22), _noise=noise, det_x=det_x,
                          _cp=_kernels.herm2_psd(y11, y12, y22, 1.0 - det_x))  # past __setattr__

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete {name!r}: a Channel is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):  # pickle and deepcopy rebuild it, so its arrays stay read-only
        return Channel, ((self._x[:2], self._x[2:]), (self._y[:2], self._y[2:]))

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
    if kind in (Kind.I, Kind.II):
        if kappa is None or not kappa > 0:
            raise ValueError("kinds I and II need a positive kappa")
        X = [[kappa, 0.0], [0.0, kappa if kind is Kind.I else -kappa]]
    else:
        X = [[1.0 if kind is Kind.III_RANK1 else 0.0, 0.0], [0.0, 0.0]]
    return Channel(X=X, Y=[[float(a), 0.0], [0.0, float(b)]])


class CanonicalForm:
    """Canonical data (kind, kappa, a, b) of a channel; the verdicts read only these.

    (a, b) are the eigenvalues of Y in descending order.  The witnesses
    S, R, x_canonical = S X R and y_canonical = R^T Y R are built from
    channel and verified by canonical_reduce, or else on first access,
    raising RuntimeError if they fail.  For Kind.III_RANK1 the
    post-rotation is pinned by X, so y_canonical stays a full symmetric
    matrix; for the other kinds it is diag(a, b).  The fields are slots,
    read-only by convention; the __dict__ holds only the witnesses.
    """

    __slots__ = ("kind", "kappa", "a", "b", "channel", "__dict__")

    def __init__(self, kind, kappa, a, b, channel):
        self.kind, self.kappa, self.a, self.b, self.channel = kind, kappa, a, b, channel

    x_canonical = property(lambda self: _array2(self._witnesses[0]))
    y_canonical = property(lambda self: _array2(self._witnesses[1]))
    S = property(lambda self: _array2(self._witnesses[2]))
    R = property(lambda self: _array2(self._witnesses[3]))

    @cached_property
    def _witnesses(self):
        """(x_canonical, y_canonical, S, R) as verified row-major tuples; see canonical_reduce."""
        X, Y, kappa = self.channel._x, self.channel._y, self.kappa
        (x11, x12, x21, x22), (y11, y12, _, y22) = X, Y
        if self.kind is Kind.III_RANK1:  # the angles of the closed-form SVD
            u11, u12, u21, u22 = (x / max(map(abs, X)) for x in X)
            alpha, beta = math.atan2(u21 - u12, u11 + u22), math.atan2(u21 + u12, u11 - u22)
            R, Rt = _rot(0.5 * (beta - alpha)), _rot(0.5 * (alpha - beta))
            S = _mul((1.0 / kappa, 0.0, 0.0, kappa), _rot(-0.5 * (alpha + beta)))
            x_can, y_can = (1.0, 0.0, 0.0, 0.0), _mul(_mul(Rt, Y), R)
        else:
            theta = 0.5 * math.atan2(2.0 * y12, y11 - y22)
            R, Rt, y_can = _rot(theta), _rot(-theta), (self.a, 0.0, 0.0, self.b)
            if self.kind is Kind.III_ZERO:
                x_can, S = (0.0,) * 4, (1.0, 0.0, 0.0, 1.0)
            else:
                p11, p12, p21, p22 = (x / kappa for x in X)
                if self.kind is Kind.I:  # S = R^T (X / kappa)^-1
                    x_can, S = (kappa, 0.0, 0.0, kappa), _mul(Rt, (p22, -p12, -p21, p11))
                else:  # S = R (X sigma3 / kappa)^-1
                    x_can, S = (kappa, 0.0, 0.0, -kappa), _mul(R, (-p22, p12, -p21, p11))
        _verify_witnesses(X, Y, S, R, x_can, y_can)
        return x_can, y_can, S, R


def _det(x11, x12, x21, x22):
    """det X != 0 with np.linalg.det's bits: pivoted LU, then sign * exp(sum log|u_ii|)."""
    if abs(x21) > abs(x11):  # swap the rows, negating one to keep the sign
        x11, x12, x21, x22 = -x21, -x22, x11, x12
    u22 = x22 - x21 * (1.0 / x11) * x12
    try:
        return math.copysign(math.exp(math.log(abs(x11)) + math.log(abs(u22))), x11 * u22)
    except OverflowError:
        return math.inf


# the witnesses hold each 2x2 matrix as a row-major 4-tuple of floats, as Channel does
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


def _canonical_form(ch):
    """canonical_reduce's (kind, kappa, a, b) and refusals, its witnesses left unbuilt."""
    X, (a, b) = ch._x, ch._noise
    x11, x12, x21, x22 = X
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
    if scale * smax <= _ZERO_FLOOR:
        return CanonicalForm(Kind.III_ZERO, 0.0, a, b, ch)
    if abs(u11 * u22 - u12 * u21) <= TOL_RANK * smax * smax:
        kappa = scale * smax
        if not math.isfinite(kappa * kappa):  # S X in the witness check multiplies kappa by X
            raise ValueError("kappa^2 overflows a double: the gain is out of range")
        return CanonicalForm(Kind.III_RANK1, kappa, a, b, ch)
    det = _det(x11, x12, x21, x22)
    if not math.isfinite(det):
        raise ValueError("det X overflows a double: the gain is out of range")
    return CanonicalForm(Kind.I if det > 0 else Kind.II, math.sqrt(abs(det)), a, b, ch)


def canonical_reduce(ch):
    """Reduce a channel to canonical form with verified witnesses.

    Dispatch is purely linear-algebraic (sign of det X, numerical rank),
    so non-CP pairs reduce fine; Y must be PSD, which the Channel
    constructor guarantees.  Raises ValueError when det X, the square of
    a rank-one gain or a noise eigenvalue overflows a double: no
    canonical form can represent them.
    """
    form = _canonical_form(ch)
    form._witnesses  # build and verify them now: a failure raises RuntimeError here
    return form


def is_cp(ch):
    """Whether lam_min(Y + i (1 - det X) sigma) >= -16 eps max(1, max|Y|, |1 - det X|).

    The slack is that of eb_oracle_tmsv (see _kernels.herm2_psd): a few
    roundings, so noise cannot hide a defect.  False when det X is beyond
    the double range: the defect is then -inf, which an infinite slack
    would pass.  A channel is immutable, so its constructor decides the
    verdict once and keeps it on the channel.
    """
    return ch._cp


def act_variance(ch, V):
    """Output covariance X^T V X + Y; refuses to act through a non-CP pair."""
    if not is_cp(ch):
        raise ValueError("channel is not completely positive")
    return ch.X.T @ _array2(_as_mat2(V, "V")) @ ch.X + ch.Y


def act_chargrid(ch, grid):
    """Push a Weyl-ordered characteristic grid through the channel.

    Output samples are chi_in(X xi) * exp(-xi^T Y xi / 2), with chi_in(X xi)
    read off the input grid by separable 4-point cubic interpolation.
    Mapped points that leave the grid support are acceptable only where
    the Gaussian envelope has already decayed below TOL_FFT (the value is
    then taken as 0); otherwise the action is refused as unresolvable on
    this grid.  The output dtype follows the input's, promoted to at least
    float64: a real grid stays real, a complex one stays complex.

    Every node is interpolated, its image clipped to one node past the
    edge, and the escaped nodes of the result are zeroed.  A diagonal X
    (x12 = x21 = 0: every canonical form, and pfunc's unit gain) maps node
    (i, j) to (x11 xi_i, x22 xi_j), a column against a row, so interp_cubic2d
    separates, with the general path's bits: its + x12 xi_j = +-0 only
    flips the sign of a zero, which subtracting the axis origin removes.
    """
    import numpy as np
    from .phase_space import TOL_FFT, CharGrid, exp_quadratic
    if not is_cp(ch):
        raise ValueError("channel is not completely positive")
    if grid.s != 0.0:
        raise ValueError("channel action needs a Weyl-ordered grid (s = 0)")
    (x11, x12, x21, x22), (y11, y12, _, y22) = ch._x, ch._y
    ax, L, d, n = grid.axis, grid.extent, grid.spacing, grid.side
    env = exp_quadratic(y11, y12, y22, ax)
    if x12 == 0.0 and x21 == 0.0:  # node (i, j) maps to (x11 ax_i, x22 ax_j): a column, a row
        fx, fy = (x11 * ax)[:, None], x22 * ax
    else:  # the images of the nodes in row-major order
        fx = ((x11 * ax)[:, None] + x12 * ax).ravel()
        fy = ((x21 * ax)[:, None] + x22 * ax).ravel()
    escaped = None  # rounding is monotone, so the ends (corners) in f[::n - 1] bound f
    if not all(np.abs(f[::n - 1]).max() <= L for f in (fx, fy)):
        escaped = ~((np.abs(fx) <= L) & (np.abs(fy) <= L)).reshape(env.shape)  # NaN escapes
        if np.any(env[escaped] > TOL_FFT):
            raise ValueError("mapped points leave the grid where the noise envelope "
                             "has not decayed; enlarge the grid extent")
    for f in (fx, fy):
        f -= ax[0]
        f /= d
        f.clip(-1.0, n, out=f)  # inside ones keep their bits; far ones fit _stencil's int64
    mapped = _kernels.interp_cubic2d(grid.values, fx, fy).reshape(env.shape)
    if escaped is not None:
        mapped[escaped] = 0.0
    mapped *= env
    return CharGrid(s=0.0, axis=ax, values=mapped)


def rotation(theta):
    """Phase-space rotation by theta, an element of SO(2) < Sp(2, R)."""
    return _array2(_rot(theta))


def symplectic_check(S):
    """Whether the 2x2 S is symplectic: |det S - 1| <= TOL_ALG max(1, |s11 s22|, |s12 s21|).

    The slack outgrows the determinant's rounding (a few eps times its
    larger product) at any squeeze; an overflowing product fails.
    """
    s11, s12, s21, s22 = _as_mat2(S, "S", finite=False)
    p, q = s11 * s22, s12 * s21
    return abs(p - q - 1.0) <= TOL_ALG * max(1.0, abs(p), abs(q)) < math.inf


def compose_pre_unitary(ch, S):
    """The channel preceded by the Gaussian unitary of symplectic S: (S X, Y)."""
    S = _array2(_as_mat2(S, "S"))
    if not symplectic_check(S):
        raise ValueError("S is not symplectic")
    return Channel(X=S @ ch.X, Y=ch.Y)


def compose_post_unitary(ch, S):
    """The channel followed by the Gaussian unitary of S: (X S, S^T Y S)."""
    S = _array2(_as_mat2(S, "S"))
    if not symplectic_check(S):
        raise ValueError("S is not symplectic")
    return Channel(X=ch.X @ S, Y=S.T @ ch.Y @ S)
