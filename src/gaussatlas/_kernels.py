"""Hot numeric kernels with two interchangeable backends.

The numba backend compiles plain-loop kernels with ``@njit``; the numpy
backend implements the same contracts with vectorized array code.  The
active backend is chosen at import time: numba if it is importable and
the environment variable ``GAUSSATLAS_DISABLE_NUMBA`` is not set to a
truthy value, numpy otherwise.  ``backend()`` reports the choice and
``implementations(name)`` exposes both for benchmarks and cross-checks.

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


def _interp_cubic2d_np(values, fx, fy):
    """Separable 4-point cubic interpolation of values at fractional indices.

    values is a real (n1, n2) array sampled on the integer lattice; fx and
    fy are flat arrays of fractional row and column indices that must lie
    inside the lattice.  Stencils are clamped at the edges.
    """
    n1, n2 = values.shape
    bx = np.clip(np.floor(fx).astype(np.int64) - 1, 0, n1 - 4)
    by = np.clip(np.floor(fy).astype(np.int64) - 1, 0, n2 - 4)
    tx = fx - (bx + 1)
    ty = fy - (by + 1)

    def _weights(t):
        w0 = -t * (t - 1.0) * (t - 2.0) / 6.0
        w1 = (t * t - 1.0) * (t - 2.0) / 2.0
        w2 = -t * (t + 1.0) * (t - 2.0) / 2.0
        w3 = t * (t * t - 1.0) / 6.0
        return w0, w1, w2, w3

    wx = _weights(tx)
    wy = _weights(ty)
    out = np.zeros(fx.shape, dtype=values.dtype)
    for i in range(4):
        rows = bx + i
        acc = wy[0] * values[rows, by]
        for j in range(1, 4):
            acc = acc + wy[j] * values[rows, by + j]
        out += wx[i] * acc
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

    @njit(cache=True)
    def _interp_cubic2d_nb(values, fx, fy):
        n1, n2 = values.shape
        m = fx.shape[0]
        out = np.empty(m, dtype=values.dtype)
        for idx in range(m):
            bx = int(np.floor(fx[idx])) - 1
            if bx < 0:
                bx = 0
            elif bx > n1 - 4:
                bx = n1 - 4
            by = int(np.floor(fy[idx])) - 1
            if by < 0:
                by = 0
            elif by > n2 - 4:
                by = n2 - 4
            tx = fx[idx] - (bx + 1)
            ty = fy[idx] - (by + 1)
            wx0 = -tx * (tx - 1.0) * (tx - 2.0) / 6.0
            wx1 = (tx * tx - 1.0) * (tx - 2.0) / 2.0
            wx2 = -tx * (tx + 1.0) * (tx - 2.0) / 2.0
            wx3 = tx * (tx * tx - 1.0) / 6.0
            wy0 = -ty * (ty - 1.0) * (ty - 2.0) / 6.0
            wy1 = (ty * ty - 1.0) * (ty - 2.0) / 2.0
            wy2 = -ty * (ty + 1.0) * (ty - 2.0) / 2.0
            wy3 = ty * (ty * ty - 1.0) / 6.0
            acc = 0.0
            acc += wx0 * (wy0 * values[bx, by] + wy1 * values[bx, by + 1]
                          + wy2 * values[bx, by + 2] + wy3 * values[bx, by + 3])
            acc += wx1 * (wy0 * values[bx + 1, by] + wy1 * values[bx + 1, by + 1]
                          + wy2 * values[bx + 1, by + 2] + wy3 * values[bx + 1, by + 3])
            acc += wx2 * (wy0 * values[bx + 2, by] + wy1 * values[bx + 2, by + 1]
                          + wy2 * values[bx + 2, by + 2] + wy3 * values[bx + 2, by + 3])
            acc += wx3 * (wy0 * values[bx + 3, by] + wy1 * values[bx + 3, by + 1]
                          + wy2 * values[bx + 3, by + 2] + wy3 * values[bx + 3, by + 3])
            out[idx] = acc
        return out


# -- dispatch ------------------------------------------------------------ #

_NUMPY_IMPL = {
    "eigmin_sym2_batch": _eigmin_sym2_batch_np,
    "hermitian_eigvals": _hermitian_eigvals_np,
    "jacobi_eigvals": _jacobi_eigvals_np,
    "interp_cubic2d": _interp_cubic2d_np,
}

if HAS_NUMBA:
    _NUMBA_IMPL = {
        "eigmin_sym2_batch": _eigmin_sym2_batch_nb,
        "hermitian_eigvals": _hermitian_eigvals_nb,
        "jacobi_eigvals": _jacobi_eigvals_nb,
        "interp_cubic2d": _interp_cubic2d_nb,
    }
else:  # pragma: no cover
    _NUMBA_IMPL = None

_ACTIVE = _NUMBA_IMPL if NUMBA_ENABLED else _NUMPY_IMPL

eigmin_sym2_batch = _ACTIVE["eigmin_sym2_batch"]
interp_cubic2d = _ACTIVE["interp_cubic2d"]
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
