"""Hot numeric kernels with two interchangeable backends.

The numba backend compiles plain-loop kernels with ``@njit``; the numpy
backend implements the same contracts with vectorized array code.  The
active backend is chosen at import time: numba if it is importable and
the environment variable ``GAUSSATLAS_DISABLE_NUMBA`` is not set to a
truthy value, numpy otherwise.  ``backend()`` reports the choice and
``implementations(name)`` exposes both for benchmarks and cross-checks.
Grid interpolation (``interp_cubic2d``) is numpy-only: one blocked pass
over flat stencil indices, for real and complex grids alike.

Eigenvalue policy: 2x2 symmetric problems use the closed form, larger
Hermitian problems on the numba path use a cyclic Jacobi iteration on the
real symmetric embedding [[A, -B], [B, A]] (threshold 1e-13 on the
off-diagonal norm); the numpy path delegates to LAPACK ``eigvalsh``.
Both paths are pinned against each other in the test suite.
"""

import os

import numpy as np

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAS_NUMBA = False

_DISABLE_FLAG = os.environ.get("GAUSSATLAS_DISABLE_NUMBA", "").strip().lower()
NUMBA_ENABLED = HAS_NUMBA and _DISABLE_FLAG not in ("1", "true", "yes", "on")

JACOBI_TOL = 1e-13  # relative off-diagonal threshold for the Jacobi sweep


# -- numpy backend ------------------------------------------------------- #


def _eigmin_sym2_batch_np(m11, m12, m22):
    """Smallest eigenvalue of symmetric [[m11, m12], [m12, m22]], elementwise."""
    half = 0.5 * (m11 - m22)
    return 0.5 * (m11 + m22) - np.hypot(half, m12)


def _hermitian_eigvals_np(A, B):
    """Ascending eigenvalues of the Hermitian matrix A + iB.

    A is real symmetric, B real antisymmetric; stacks broadcast over
    leading axes.
    """
    return np.linalg.eigvalsh(A + 1j * B)


def _jacobi_eigvals_np(A):
    """Ascending eigenvalues of a real symmetric matrix (LAPACK on this path)."""
    return np.linalg.eigvalsh(A)


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
    Points are processed in blocks of INTERP_BLOCK.
    """
    n1, n2 = values.shape
    flat = values.ravel()
    out = np.zeros(fx.shape, dtype=values.dtype)
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


# -- numba backend ------------------------------------------------------- #

if HAS_NUMBA:

    @njit(cache=True)
    def _eigmin_sym2_batch_nb(m11, m12, m22):
        out = np.empty(m11.shape, dtype=np.float64)
        flat_out = out.ravel()
        a = m11.ravel()
        b = m12.ravel()
        c = m22.ravel()
        for i in range(a.shape[0]):
            half = 0.5 * (a[i] - c[i])
            flat_out[i] = 0.5 * (a[i] + c[i]) - np.sqrt(half * half + b[i] * b[i])
        return out

    @njit(cache=True)
    def _jacobi_eigvals_nb(A):
        n = A.shape[0]
        M = A.copy()
        fro = 0.0
        for i in range(n):
            for j in range(n):
                fro += M[i, j] * M[i, j]
        fro = np.sqrt(fro)
        if fro == 0.0:
            return np.zeros(n, dtype=np.float64)
        for _ in range(60):
            off = 0.0
            for i in range(n):
                for j in range(i + 1, n):
                    off += 2.0 * M[i, j] * M[i, j]
            if np.sqrt(off) <= JACOBI_TOL * fro:
                break
            for p in range(n - 1):
                for q in range(p + 1, n):
                    apq = M[p, q]
                    if np.abs(apq) <= 1e-300:
                        continue
                    theta = 0.5 * (M[q, q] - M[p, p]) / apq
                    t = np.sign(theta) / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
                    if theta == 0.0:
                        t = 1.0
                    c = 1.0 / np.sqrt(t * t + 1.0)
                    s = t * c
                    for k in range(n):
                        mkp = M[k, p]
                        mkq = M[k, q]
                        M[k, p] = c * mkp - s * mkq
                        M[k, q] = s * mkp + c * mkq
                    for k in range(n):
                        mpk = M[p, k]
                        mqk = M[q, k]
                        M[p, k] = c * mpk - s * mqk
                        M[q, k] = s * mpk + c * mqk
        vals = np.empty(n, dtype=np.float64)
        for i in range(n):
            vals[i] = M[i, i]
        return np.sort(vals)

    @njit(cache=True)
    def _hermitian_eigvals_nb(A, B):
        # eigenvalues of A + iB via the doubled real symmetric embedding
        n = A.shape[0]
        E = np.empty((2 * n, 2 * n), dtype=np.float64)
        for i in range(n):
            for j in range(n):
                E[i, j] = A[i, j]
                E[i + n, j + n] = A[i, j]
                E[i, j + n] = -B[i, j]
                E[i + n, j] = B[i, j]
        doubled = _jacobi_eigvals_nb(E)
        return doubled[::2].copy()


# -- dispatch ------------------------------------------------------------ #

_NUMPY_IMPL = {
    "eigmin_sym2_batch": _eigmin_sym2_batch_np,
    "hermitian_eigvals": _hermitian_eigvals_np,
    "jacobi_eigvals": _jacobi_eigvals_np,
}

if HAS_NUMBA:
    _NUMBA_IMPL = {
        "eigmin_sym2_batch": _eigmin_sym2_batch_nb,
        "hermitian_eigvals": _hermitian_eigvals_nb,
        "jacobi_eigvals": _jacobi_eigvals_nb,
    }
else:  # pragma: no cover
    _NUMBA_IMPL = None

_ACTIVE = _NUMBA_IMPL if NUMBA_ENABLED else _NUMPY_IMPL

eigmin_sym2_batch = _ACTIVE["eigmin_sym2_batch"]
jacobi_eigvals = _ACTIVE["jacobi_eigvals"]
_hermitian_eigvals_active = _ACTIVE["hermitian_eigvals"]


def eigmin_sym2(m11, m12, m22):
    """Smallest eigenvalue of the symmetric 2x2 [[m11, m12], [m12, m22]]."""
    half = 0.5 * (m11 - m22)
    return 0.5 * (m11 + m22) - float(np.hypot(half, m12))


def hermitian_eigmin(A, B):
    """Smallest eigenvalue of the Hermitian matrix A + iB (single matrix)."""
    return float(_hermitian_eigvals_active(np.ascontiguousarray(A, dtype=np.float64),
                                           np.ascontiguousarray(B, dtype=np.float64))[0])


def backend():
    """Name of the active backend, 'numba' or 'numpy'."""
    return "numba" if NUMBA_ENABLED else "numpy"


def implementations(name):
    """Both backends for a kernel, as a dict {'numpy': fn, 'numba': fn or None}."""
    return {
        "numpy": _NUMPY_IMPL[name],
        "numba": _NUMBA_IMPL[name] if HAS_NUMBA else None,
    }
