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
longhand's; the real grids the library builds are weighted once.
"""

import math

import numpy as np

_EPS = float(np.finfo(float).eps)


def eig2(m11, m12, m22, beta):
    """(lam_max, lam_min) of the Hermitian [[m11, m12 + i beta], [m12 - i beta, m22]].

    The arguments are Python floats; so are the results.  lam_max is
    (m11 + m22)/2 + hypot((m11 - m22)/2, m12, beta).  For a positive
    trace lam_max carries no cancellation and is at least every |entry|,
    so lam_min = det / lam_max, with lam_max divided into each product
    first so that nothing overflows; otherwise lam_min is the trace
    minus lam_max, mean - spread, which cancels nothing there.  A
    positive trace gives lam_max = 0 only on diag(t, 0) or diag(0, t)
    with t the least subnormal, whose halves round to 0; that is
    returned exactly.
    """
    trace = m11 + m22
    lam_max = 0.5 * trace + math.hypot(0.5 * (m11 - m22), m12, beta)
    if trace > 0.0:
        if lam_max > 0.0:
            return lam_max, m11 / lam_max * m22 - m12 / lam_max * m12 - beta / lam_max * beta
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


def interp_cubic2d(values, fx, fy):
    """Separable 4-point cubic interpolation of values at fractional indices.

    values is a real or complex (n1, n2) array sampled on the integer
    lattice; fx and fy are flat arrays of fractional row and column indices
    that must lie inside the lattice.  Stencils are clamped at the edges.
    Stencil node (i, j) is one take from the flat grid viewed from offset
    i n2 + j, and each point's products and sums are the longhand's, in
    order and in place.  A complex grid is interpolated in one pass: each
    stencil value is gathered once and its real and imaginary parts are
    weighted separately, so each part is exactly what a real-valued pass
    over it would give.  The result is float64 for a real grid of any
    precision, and complex128 for a complex one.  Points are processed in
    blocks of INTERP_BLOCK.
    """
    n1, n2 = values.shape
    dtype = np.result_type(values.dtype, float)
    flat = values.astype(dtype, copy=False).ravel()
    out = np.zeros(fx.shape, dtype=dtype)
    parts = (np.real, np.imag) if np.iscomplexobj(values) else (np.real,)
    for lo in range(0, fx.size, INTERP_BLOCK):
        hi = lo + INTERP_BLOCK
        bx = np.clip(np.floor(fx[lo:hi]).astype(np.int64) - 1, 0, n1 - 4)
        by = np.clip(np.floor(fy[lo:hi]).astype(np.int64) - 1, 0, n2 - 4)
        wx = _cubic_weights(fx[lo:hi] - (bx + 1))
        wy = _cubic_weights(fy[lo:hi] - (by + 1))
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
