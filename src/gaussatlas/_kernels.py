"""Hot numeric kernels, in plain numpy and Python floats.

Eigenvalue policy: every 2x2 problem uses a closed form.  The smallest
eigenvalue of a symmetric [[m11, m12], [m12, m22]] is
(m11 + m22)/2 - hypot((m11 - m22)/2, m12), and that of a Hermitian
[[y11, y12 + i beta], [y12 - i beta, y22]] adds beta under the hypot;
the latter decides complete positivity, where X sigma X^T = det(X) sigma
makes the CP matrix Y + i(1 - det X) sigma, and entanglement breaking,
whose two-mode PPT test reduces to Y + i(1 + det X) sigma.  Only the
validity test of a state of more than one mode goes to LAPACK
``eigvalsh``.

Grid interpolation (``interp_cubic2d``) is one blocked pass over flat
stencil indices; the real grids the library builds are weighted once.
"""

import math

import numpy as np


def eigmin_sym2(m11, m12, m22):
    """Smallest eigenvalue of the symmetric 2x2 [[m11, m12], [m12, m22]]."""
    return float(eigmin_sym2_batch(m11, m12, m22))


def eigmin_sym2_batch(m11, m12, m22):
    """Smallest eigenvalue of symmetric [[m11, m12], [m12, m22]], elementwise."""
    # np.hypot also for scalars: math.hypot rounds differently in about one
    # case in 500, and the NCB oracle's search range (from ||X||^2) and its
    # early exit were validated with these bits
    half = 0.5 * (m11 - m22)
    return 0.5 * (m11 + m22) - np.hypot(half, m12)


def eigmin_herm2(y11, y12, y22, beta):
    """Smallest eigenvalue of the Hermitian [[y11, y12 + i beta], [y12 - i beta, y22]].

    The arguments are Python floats; the result is one too.
    """
    return 0.5 * (y11 + y22) - math.hypot(0.5 * (y11 - y22), y12, beta)


def hermitian_eigmin(A, B):
    """Smallest eigenvalue of the Hermitian matrix A + iB, as a float.

    A is real symmetric and B real antisymmetric, both (n, n).  A 2x2
    uses the closed form of eigmin_herm2, a larger matrix LAPACK
    ``eigvalsh``, which like it reads only the lower triangle.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape == B.shape == (2, 2):
        (a11, _), (a21, a22) = A.tolist()
        return eigmin_herm2(a11, a21, a22, -float(B[1, 0]))
    return float(np.linalg.eigvalsh(A + 1j * B)[0])


def backend():
    """Name of the numeric backend; numpy is the only one."""
    return "numpy"


INTERP_BLOCK = 1 << 15  # points per interpolation block; keeps temporaries in cache


def _cubic_weights(t):
    """4-point Lagrange weights at offset t from the stencil's second node."""
    w0 = -t * (t - 1.0) * (t - 2.0) / 6.0
    w1 = (t * t - 1.0) * (t - 2.0) / 2.0
    w2 = -t * (t + 1.0) * (t - 2.0) / 2.0
    w3 = t * (t * t - 1.0) / 6.0
    return w0, w1, w2, w3


def interp_cubic2d(values, fx, fy):
    """Separable 4-point cubic interpolation of values at fractional indices.

    values is a real or complex (n1, n2) array sampled on the integer
    lattice; fx and fy are flat arrays of fractional row and column indices
    that must lie inside the lattice.  Stencils are clamped at the edges.
    A complex grid is interpolated in one pass: each stencil value is
    gathered once and its real and imaginary parts are weighted separately,
    so each part is exactly what a real-valued pass over it would give.
    The result is float64 for a real grid of any precision, and complex128
    for a complex one.  Points are processed in blocks of INTERP_BLOCK.
    """
    n1, n2 = values.shape
    flat = values.ravel()
    out = np.zeros(fx.shape, dtype=np.result_type(values.dtype, float))
    parts = (np.real, np.imag) if np.iscomplexobj(values) else (np.real,)
    for lo in range(0, fx.size, INTERP_BLOCK):
        hi = lo + INTERP_BLOCK
        bx = np.clip(np.floor(fx[lo:hi]).astype(np.int64) - 1, 0, n1 - 4)
        by = np.clip(np.floor(fy[lo:hi]).astype(np.int64) - 1, 0, n2 - 4)
        wx = _cubic_weights(fx[lo:hi] - (bx + 1))
        wy = _cubic_weights(fy[lo:hi] - (by + 1))
        corner = bx * n2 + by
        for i in range(4):
            row = [flat[corner + (i * n2 + j)] for j in range(4)]
            for part in parts:
                comp = [part(r) for r in row]
                acc = wy[0] * comp[0]
                for j in range(1, 4):
                    acc = acc + wy[j] * comp[j]
                part(out)[lo:hi] += wx[i] * acc
    return out
