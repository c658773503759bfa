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

with a >= b the eigenvalues of Y.  ``canonical_reduce`` is the one route
to the form.  The verdicts read only (kind, kappa, a, b); the witnesses
(S, R) are built and verified on first access: S X R = X_c, R^T Y R = Y_c,
det S = 1, R^T R = 1, all in closed form on Python floats (rank one too).

``Channel`` keeps X and Y as Python floats, with the noise eigenvalues,
det X and CP verdict its constructor measures, all that the verdicts read;
it builds its arrays on first access, and only array functions import numpy.

Gaussian unitaries are 2x2 symplectic S; S^T sigma S = det(S) sigma, so ``unitary``
accepts det S = 1 to TOL_ALG as the channel (S, 0); ``compose`` chains two channels on
their floats, and ``rotation`` builds the rotations.  ``Channel`` accepts Y down to a
-TOL_PSD max(1, max|Y_ij|) eigenvalue.
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


def _as_mat2(M, name):
    """A 2x2 M (with .tolist(), or nested sequences) as a row-major tuple of floats."""
    try:
        (m11, m12), (m21, m22) = M.tolist() if hasattr(M, "tolist") else M
        entries = float(+m11), float(+m12), float(+m21), float(+m22)  # +"1" is refused
    except (TypeError, ValueError):  # a wrong shape, or an entry that is not a number
        raise ValueError(f"{name} must be a 2x2 real matrix") from None
    except OverflowError:  # an integer past the double range
        raise ValueError(f"{name} must be finite") from None
    if not all(map(math.isfinite, entries)):
        raise ValueError(f"{name} must be finite")
    return entries


def _psd2(M, name):
    """(M row-major, its off-diagonal pair at their midpoint; its eigenvalues a >= b), refusing
    an asymmetry past _ASYM_TOL or b below -TOL_PSD, both relative to max(1, max|M_ij|)."""
    m11, m12, m21, m22 = _as_mat2(M, name)
    scale = max(1.0, abs(m11), abs(m12), abs(m21), abs(m22))
    if abs(m12 - m21) > _ASYM_TOL * scale:
        raise ValueError(f"{name} must be symmetric")
    m12 += 0.5 * (m21 - m12)  # the midpoint, without overflow; m12 itself if symmetric
    eig = _kernels.eig2(m11, m12, m22, 0.0)
    if eig[1] < -TOL_PSD * scale:
        raise ValueError(f"{name} must be positive semidefinite")
    return (m11, m12, m12, m22), eig


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
        y, noise = _psd2(Y, "Y")
        det_x = x11 * x22 - x12 * x21
        vars(self).update(_x=x, _y=y, _noise=noise, det_x=det_x,  # past __setattr__
                          _cp=_kernels.herm2_psd(y[0], y[1], y[3], 1.0 - det_x))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete {name!r}: a Channel is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):  # pickle and deepcopy rebuild it, so its arrays stay read-only
        return Channel, ((self._x[:2], self._x[2:]), (self._y[:2], self._y[2:]))

    @classmethod
    def from_json(cls, text):
        """Build a channel from the JSON descriptor {"X": [[..]], "Y": [[..]]}.

        The constructor validates the blocks, so Y must be symmetric to
        1e-12 max(1, max|Y|), as for Channel(X, Y); every malformed text,
        JSON nested past the recursion limit included, raises ValueError.
        """
        try:
            data = json.loads(text)
        except RecursionError:
            raise ValueError("channel JSON is nested too deeply to decode") from None
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
    channel and verified on first access, which raises RuntimeError if
    they fail, and are kept.  For Kind.III_RANK1 the
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
        """(x_canonical, y_canonical, S, R) as verified row-major tuples."""
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


def canonical_reduce(ch):
    """Reduce a channel to its CanonicalForm, whose witnesses are verified on first access.

    Dispatch is purely linear-algebraic (sign of det X, numerical rank),
    so non-CP pairs reduce fine; Y must be PSD, which the Channel
    constructor guarantees.  Raises ValueError when det X, the square of
    a rank-one gain or a noise eigenvalue overflows a double: no
    canonical form can represent them.
    """
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


def is_cp(ch):
    """Whether lam_min(Y + i (1 - det X) sigma) >= -16 eps max(1, max|Y|, |1 - det X|).

    The slack is that of eb_oracle_tmsv (see _kernels.herm2_psd): a few
    roundings, so noise cannot hide a defect.  False when det X is beyond
    the double range: the defect is then -inf, which an infinite slack
    would pass.  A channel is immutable, so its constructor decides the
    verdict once and keeps it on the channel.
    """
    return ch._cp


def _congruence(X, V, Y):
    """X^T V X + Y on row-major tuples, V and Y symmetric; the off-diagonal is formed once."""
    x11, x12, x21, x22 = X
    v11, v12, _, v22 = V
    w11, w12 = v11 * x11 + v12 * x21, v11 * x12 + v12 * x22  # the rows of V X
    w21, w22 = v12 * x11 + v22 * x21, v12 * x12 + v22 * x22
    off = x11 * w12 + x21 * w22 + Y[1]
    return x11 * w11 + x21 * w21 + Y[0], off, off, x12 * w12 + x22 * w22 + Y[3]


def act_variance(ch, V):
    """Output covariance X^T V X + Y, written out as compose's noise; V is checked and read
    as Channel checks and reads Y.  Refuses to act through a non-CP pair."""
    if not is_cp(ch):
        raise ValueError("channel is not completely positive")
    return _array2(_congruence(ch._x, _psd2(V, "V")[0], ch._y))


def act_chargrid(ch, grid):
    """Push a Weyl-ordered characteristic grid through the channel.

    Output samples are chi_in(X xi) * exp(-xi^T Y xi / 2), with chi_in(X xi)
    read off the input grid by separable 4-point cubic interpolation.
    Mapped points that leave the grid support are acceptable only where
    the Gaussian envelope has already decayed below TOL_FFT (the value is
    then taken as 0); otherwise the action is refused as unresolvable on
    this grid.  The output dtype follows the input's, promoted to at least
    float64: a real grid stays real, a complex one stays complex.

    The output is the only full grid: it is filled by blocks of rows, each
    block's images, escape mask and envelope formed there, every node
    interpolated at its image clipped to one node past the edge, and the
    escaped nodes zeroed; the corners' images bound the rest, so no mask is
    built while they stay inside.  A diagonal X (x12 = x21 = 0: every
    canonical form, and pfunc's unit gain) maps node (i, j) to (x11 xi_i,
    x22 xi_j), a column against a row, so interp_cubic2d separates over the
    whole grid, with the general path's bits: its + x12 xi_j = +-0 only
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
    values = grid.values.astype(np.result_type(grid.values.dtype, float), copy=False)

    def index(f):  # in place; inside ones keep their bits, far ones fit _stencil's int64
        f -= ax[0]
        f /= d
        return f.clip(-1.0, n, out=f)

    ends = ax[::n - 1]  # rounding is monotone, so the corners' images bound every image
    escapes = not all(np.abs((a * ends)[:, None] + b * ends).max() <= L
                      for a, b in ((x11, x12), (x21, x22)))  # NaN escapes
    diagonal = x12 == 0.0 and x21 == 0.0
    out = (_kernels.interp_cubic2d(values, index(x11 * ax)[:, None], index(x22 * ax))
           if diagonal else np.empty_like(values))
    step = max(1, _kernels.INTERP_BLOCK // n)
    for lo in range(0, n, step):
        rows, block = ax[lo:lo + step], out[lo:lo + step]
        fx, fy = (x11 * rows)[:, None] + x12 * ax, (x21 * rows)[:, None] + x22 * ax
        env = exp_quadratic(y11, y12, y22, rows, ax)
        if escapes:
            escaped = ~((np.abs(fx) <= L) & (np.abs(fy) <= L))
            if np.any(env[escaped] > TOL_FFT):
                raise ValueError("mapped points leave the grid where the noise envelope "
                                 "has not decayed; enlarge the grid extent")
        if not diagonal:
            block[...] = _kernels.interp_cubic2d(values, index(fx), index(fy))
        if escapes:
            block[escaped] = 0.0
        block *= env
    return CharGrid(s=0.0, axis=ax, values=out)


def rotation(theta):
    """Phase-space rotation by theta, an element of SO(2) < Sp(2, R)."""
    return _array2(_rot(theta))


def unitary(S):
    """The Gaussian unitary of S as the channel (S, 0), refusing S unless |det S - 1| <=
    TOL_ALG max(1, |s11 s22|, |s12 s21|): the slack outgrows the determinant's rounding (a
    few eps times its larger product) at any squeeze, and an overflowing product fails."""
    s11, s12, s21, s22 = _as_mat2(S, "S")
    p, q = s11 * s22, s12 * s21
    if not abs(p - q - 1.0) <= TOL_ALG * max(1.0, abs(p), abs(q)) < math.inf:
        raise ValueError("S is not symplectic")
    return Channel(((s11, s12), (s21, s22)), ((0.0, 0.0), (0.0, 0.0)))


def compose(first, then):
    """The channel first, then then: (X1 X2, X2^T Y1 X2 + Y2) on the stored floats, CP or not;
    compose(unitary(S), ch) precedes ch by the unitary of S, compose(ch, unitary(S)) follows it."""
    x, y = _mul(first._x, then._x), _congruence(then._x, first._y, then._y)
    return Channel((x[:2], x[2:]), (y[:2], y[2:]))
