"""Hot numeric kernels, in plain numpy and Python floats.

Eigenvalue policy: one closed form, ``eig2``, gives both eigenvalues of
every 2x2 problem, the Hermitian [[m11, m12 + i beta], [m12 - i beta, m22]]
on Python floats; no LAPACK call is left, and states are single-mode.
lam_max is the mean plus hypot(half the difference, m12, beta), and
lam_min is det / lam_max, which unlike mean - spread keeps its digits
when lam_max is past 1/eps times lam_min.  With beta = 0 it gives the
noise eigenvalues (a, b) and checks that Y is PSD; with beta = det X
and Y - 1 it is the NCB oracle's supremum; X sigma X^T = det(X) sigma
makes the CP matrix Y + i(1 - det X) sigma, and the EB oracle's two-mode
PPT test reduces to Y + i(1 + det X) sigma.

Grid interpolation (``interp_cubic2d``) is one blocked pass of gathers
through offset views and in-place sums, each point's arithmetic the
longhand's, and separable on the grid of (row, column) pairs a diagonal X
maps to; the real grids the library builds are weighted once.

Bulk float text (``text12``) prints a whole float64 array as
``"%.12g" % v``, or as JSON's ``repr(float("%.12g" % v))``, byte for byte;
its docstring gives the layout and why the bytes are exactly Python's.
"""

import functools
import math
import sys

_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min  # the least normal double


def eig2(m11, m12, m22, beta):
    """(lam_max, lam_min) of the Hermitian [[m11, m12 + i beta], [m12 - i beta, m22]].

    The arguments are Python floats; so are the results.  lam_max is
    (m11 + m22)/2 + hypot((m11 - m22)/2, m12, beta).  For a positive
    trace lam_max carries no cancellation and is at least every |entry|,
    so lam_min = det / lam_max, with lam_max divided into each product
    first so that nothing overflows (into m22, not m11, where m11 / lam_max
    would be subnormal and lose digits); otherwise lam_min is the trace
    minus lam_max, mean - spread, which cancels nothing there.  A
    positive trace gives lam_max = 0 only on diag(t, 0) or diag(0, t)
    with t the least subnormal, whose halves round to 0; that is
    returned exactly.
    """
    trace = m11 + m22
    lam_max = 0.5 * trace + math.hypot(0.5 * (m11 - m22), m12, beta)
    if trace > 0.0:
        if lam_max > 0.0:
            head = m11 / lam_max
            # a subnormal m11 / lam_max has lost digits; divide lam_max into m22 instead
            head = head * m22 if abs(head) >= _TINY else m22 / lam_max * m11
            return lam_max, head - m12 / lam_max * m12 - beta / lam_max * beta
        return trace, 0.0
    return lam_max, trace - lam_max


def herm2_psd(m11, m12, m22, beta):
    """Whether eig2's lam_min is at least -16 eps scale, scale = max(1, |arguments|).

    The closed form is a few roundings of operands no larger than scale:
    on kind I and II channels built exactly on the EB (CP) boundary, with
    gains up to 1e4, behind random unitaries, it came out within 3 (7)
    eps scale of 0.  The slack, 16 eps scale, keeps those on the boundary
    with a margin and is far below every verdict the audit pools and
    criteria 10 and 11 test (64 eps gives the same verdicts there); unlike
    a fixed fraction of scale it does not let large noise hide a defect.
    False when an argument is not finite, where an infinite slack would
    pass a -inf eigenvalue.
    """
    scale = max(1.0, abs(m11), abs(m12), abs(m22), abs(beta))
    return math.isfinite(scale) and eig2(m11, m12, m22, beta)[1] >= -16.0 * _EPS * scale


def backend():
    """Name of the numeric backend; numpy is the only one."""
    return "numpy"


INTERP_BLOCK = 1 << 15  # points per interpolation block; keeps temporaries in cache


def _cubic_weights(t):
    """4-point Lagrange weights at offset t from the stencil's second node; * 0.5 rounds as / 2."""
    neg, tm2, sq1 = -t, t - 2.0, t * t - 1.0
    return (neg * (t - 1.0) * tm2 / 6.0, sq1 * tm2 * 0.5,
            neg * (t + 1.0) * tm2 * 0.5, t * sq1 / 6.0)


def _stencil(f, n):
    """The clamped first nodes (int64) and the four weights of the 4-point stencils at f."""
    import numpy as np
    base = np.clip(np.floor(f).astype(np.int64) - 1, 0, n - 4)
    return base, _cubic_weights(f - (base + 1))


def interp_cubic2d(values, fx, fy):
    """Separable 4-point cubic interpolation of values at fractional indices.

    values is a real or complex (n1, n2) array sampled on the integer
    lattice; fx and fy are fractional row and column indices inside the
    lattice: of equal shape for points, or an (m, 1) column against a (k,)
    row for the (m, k) grid of their pairs.  Stencils are clamped at the
    edges.  Each point's products and sums are the longhand's, in order
    and in place: row sums ((v0 wy0 + v1 wy1) + v2 wy2) + v3 wy3, then
    0 + row_0 wx_0 + ... + row_3 wx_3.  A complex grid's real and imaginary
    parts are weighted separately, each exactly as a real-valued pass over
    it would be.  The result is float64 for a real grid of any precision,
    and complex128 for a complex one.  Points go in blocks of INTERP_BLOCK,
    stencil node (i, j) one take from the flat grid viewed from offset
    i n2 + j.  A grid of pairs separates: each input row's weighted column
    sums are formed once, by four column gathers, and each output row adds
    four of them; on as many rows as the input that is 8 gathers and 8
    products a point, against 16 and 20.
    """
    import numpy as np
    n1, n2 = values.shape
    dtype = np.result_type(values.dtype, float)
    values = values.astype(dtype, copy=False)
    parts = (np.real, np.imag) if np.iscomplexobj(values) else (np.real,)
    if fx.shape != fy.shape:
        return _interp_separable(values, fx[:, 0], fy, parts)
    flat = values.ravel()
    out = np.zeros(fx.shape, dtype=dtype)
    for lo in range(0, fx.size, INTERP_BLOCK):
        hi = lo + INTERP_BLOCK
        bx, wx = _stencil(fx[lo:hi], n1)
        by, wy = _stencil(fy[lo:hi], n2)
        corner = bx * n2 + by
        for i in range(4):
            row = [flat[i * n2 + j:].take(corner) for j in range(4)]
            for part in parts:
                acc, *rest = (part(r) for r in row)
                acc *= wy[0]
                for w, v in zip(wy[1:], rest):
                    v *= w
                    acc += v
                acc *= wx[i]
                part(out)[lo:hi] += acc
    return out


def _interp_separable(values, fx, fy, parts):
    """interp_cubic2d on the (len(fx), len(fy)) grid of the pairs (fx_i, fy_j)."""
    import numpy as np
    out = np.zeros((fx.size, fy.size), dtype=values.dtype)
    if out.size == 0:
        return out
    bx, wx = _stencil(fx, values.shape[0])
    by, wy = _stencil(fy, values.shape[1])
    step = max(1, INTERP_BLOCK // fy.size)  # output rows per block
    for part in parts:
        acc = part(values).take(by, axis=1)  # each input row's weighted column sums
        acc *= wy[0]
        for j in (1, 2, 3):
            v = part(values).take(by + j, axis=1)
            v *= wy[j]
            acc += v
        for lo in range(0, fx.size, step):
            hi = lo + step
            for i in range(4):
                v = acc.take(bx[lo:hi] + i, axis=0)
                v *= wx[i][lo:hi, None]
                part(out)[lo:hi] += v
    return out


# -- 12-digit float text ----------------------------------------------------- #

TEXT_WIDTH = 32  # bytes per value in text12's output, zero-padded


@functools.cache
def _text_tables(json):
    """text12's case words (7, 572), exponent words and powers 10^(11 - e) at e + 281
    (563,), and trailing zeros and ASCII words of 4-digit groups (10^4,), built on first use.

    A power is within an ulp.  A case is (sign, e clipped to [-5, 16], significant digits); its
    seven words are the sign and "0.000" prefix and the masks that keep
    the digits left (two words) and right (two) of the point and place
    the point (two).  A JSON integer below 1e11 shows its ".0" as a point
    and one more digit.  The exponent word of e, at e + 281, is "e+XX"
    outside the positional range, and for a JSON integer from 1e11 the
    zeros past the twelfth digit and ".0".
    """
    import numpy as np
    group = np.arange(10 ** 4)
    digits = (group[:, None] // np.array([1000, 100, 10, 1]) % 10 + 48).astype(np.uint8)
    last = 16 if json else 12
    e, sig, col = np.arange(-5, 17)[:, None, None], np.arange(13)[:, None], np.arange(16)
    fixed = (e >= -4) & (e < last)
    whole = fixed & (e >= 0)
    point = (whole & ((sig > e + 1) | json & (e < 11))) | (~fixed & (sig > 1))
    at = np.where(point & whole, e, np.where(point, 0, 12))  # the point follows digit at
    shown = np.where(whole, np.maximum(sig, np.minimum(e + 1 + json, 12)), sig)
    case = np.zeros((2, 22, 13, 56), np.uint8)
    case[1, :, :, 0] = 45
    for z in range(1, 5):
        case[:, 5 - z, :, 1:2 + z] = np.frombuffer(b"0.000"[:z + 1], np.uint8)
    case[..., 8:24] = 255 * ((col <= at) & (col < shown))
    case[..., 24:40] = 255 * (point & (col >= at + 2) & (col <= shown))
    case[..., 40:56] = 46 * (point & (col == at + 1))
    exp = [b"" if -4 <= k < last else b"e%+03d" % k for k in range(-281, 282)]
    if json:
        exp[292:297] = [b"0" * pad + b".0" for pad in range(5)]
    return (case.view(np.uint64).reshape(-1, 7).T.copy(), np.array(exp, "S8").view(np.uint64),
            np.power(10.0, 11 - np.arange(-281, 282)),
            sum(group % 10 ** k == 0 for k in range(1, 5)),  # trailing zeros
            digits.view(np.uint32).ravel().astype(np.uint64))


def text12(values, json=False):
    """The text of each float as an (n, TEXT_WIDTH) uint8 array, zero-padded.

    A row, zero bytes dropped, is ``"%.12g" % v``, or with json
    ``repr(float("%.12g" % v))`` and ``null`` for a non-finite v.

    Digits: with e = floor(log10 |v|), m = |v| 10^(11 - e) and the
    12-digit significand is d = rint(m); d = 10^12 is 10^11 at e + 1.
    The power is a table entry within an ulp and the product one more
    rounding, so m is within 3.4e-4 of |v| 10^(11 - e), and d is the
    correctly rounded significand Python prints whenever
    |m - d| < 0.499, m >= 1e11 and d <= 1e12: a log10 that rounds up
    across a power of ten leaves m under 1e11 and is refused, and one
    that rounds down leaves m at 1e12 + 0.5 or more, refused, or below,
    where d = 10^12 is right.  Other rows (about 0.1% of random values and
    every exact tie), and 0, -0.0, non-finite values and |v| outside
    1e-280..1e280, are printed by Python's own ``%`` and ``repr``.

    Layout: %g is positional for -4 <= e < 12 and repr for -4 <= e < 16;
    both strip trailing zeros, %g also a bare point, and repr keeps
    ".0" on an integer; outside that range both write d.ddde+XX.  A row
    is eight sign-and-prefix bytes ("-0.000" at most), sixteen digit
    bytes (twelve digits and the point: two 64-bit words of digits,
    masked, and again shifted one byte up past the point) and eight
    exponent bytes; the masks come from one table of cases.
    """
    import numpy as np
    case, exp, scale, tzs, quad = _text_tables(bool(json))
    x = np.asarray(values, dtype=float).ravel()
    mag = np.abs(x)
    fast = (mag >= 1e-280) & (mag <= 1e280)
    mag[~fast] = 1.0
    e = np.floor(np.log10(mag)).astype(np.int64) + 281
    m = mag * scale.take(e)
    d = np.rint(m)
    fast &= (np.abs(m - d) < 0.499) & (m >= 1e11) & (d <= 1e12)
    d = d.astype(np.int64)
    top = d == 10 ** 12
    d[top] = 10 ** 11
    e += top
    hi = d // 10 ** 8
    d -= hi * 10 ** 8
    mid = d // 10 ** 4
    lo = d - mid * 10 ** 4
    tz = tzs.take(lo)
    zero = np.flatnonzero(tz == 4)
    tz[zero] += tzs.take(mid[zero]) + (mid[zero] == 0) * tzs.take(hi[zero])
    w = case.take((x < 0) * 286 + np.clip(e, 276, 297) * 13 + (12 - 276 * 13 - tz), axis=1)
    d0 = quad.take(hi) | (quad.take(mid) << np.uint64(32))
    d1 = quad.take(lo)
    out = np.empty((x.size, 4), np.uint64)
    out[:, 0] = w[0]
    out[:, 1] = (d0 & w[1]) | ((d0 << np.uint64(8)) & w[3]) | w[5]
    out[:, 2] = (d1 & w[2]) | (((d1 << np.uint64(8)) | (d0 >> np.uint64(56))) & w[4]) | w[6]
    out[:, 3] = exp.take(e)
    text = out.view(np.uint8)
    slow = np.flatnonzero(~fast)
    strs = _python_text(x[slow].tolist(), json)
    text[slow] = np.array(strs, dtype=f"S{TEXT_WIDTH}").view(np.uint8).reshape(-1, TEXT_WIDTH)
    return text


def _python_text(values, json):
    """Python's own text of each float, for the rows text12 does not print itself."""
    if json:
        return [repr(float("%.12g" % v)) if math.isfinite(v) else "null" for v in values]
    return ["%.12g" % v for v in values]
