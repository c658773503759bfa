"""Time the hot numeric kernels.

Run from the repository root:

    python3 benchmarks/bench_kernels.py

Each kernel is timed on a workload shaped like real library use: the
Hermitian eigenvalue solver on a batch of 2x2 positivity checks, numpy
against its jitted twin when numba is importable (warmed up before timing
so compilation is not billed to the measurement), and the numpy-only cubic
interpolator on a complex 1025^2 grid at grid-action size.
"""

import time

import numpy as np

from gaussatlas._kernels import HAS_NUMBA, implementations, interp_cubic2d

N_REPEAT = 5


def _time(fn, *args, repeat=N_REPEAT):
    best = np.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_hermitian():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(2, 2))
    a = a + a.T
    b = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return "hermitian eigvals (2000 calls)", (np.ascontiguousarray(a), b)


def bench_interp():
    rng = np.random.default_rng(3)
    n = 1025
    values = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    fx = rng.uniform(2.0, n - 3.0, size=n * n)
    fy = rng.uniform(2.0, n - 3.0, size=n * n)
    return "complex cubic interpolation (1025^2 points)", (values, fx, fy)


def main():
    name, args = bench_hermitian()
    impls = implementations("hermitian_eigvals")

    def run(fn):
        for _ in range(2000):
            fn(*args)

    t_np = _time(lambda: run(impls["numpy"]))
    t_nb = None
    if HAS_NUMBA:
        impls["numba"](*args)
        t_nb = _time(lambda: run(impls["numba"]))

    interp_name, interp_args = bench_interp()
    t_interp = _time(interp_cubic2d, *interp_args)

    width = max(len(name), len(interp_name))
    print(f"{'kernel':<{width}}  {'numpy':>10}  {'numba':>10}  {'speedup':>8}")
    if t_nb is None:
        print(f"{name:<{width}}  {t_np * 1e3:>8.2f}ms  {'n/a':>10}  {'n/a':>8}")
    else:
        print(f"{name:<{width}}  {t_np * 1e3:>8.2f}ms  {t_nb * 1e3:>8.2f}ms"
              f"  {t_np / t_nb:>7.1f}x")
    print(f"{interp_name:<{width}}  {t_interp * 1e3:>8.2f}ms  (numpy only)")
    if not HAS_NUMBA:
        print("numba unavailable; only the numpy path was timed")


if __name__ == "__main__":
    main()
