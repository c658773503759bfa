"""Time the hot numeric kernels.

Run from the repository root:

    python3 benchmarks/bench_kernels.py

Each kernel is timed on a workload shaped like real library use: the
closed-form complete-positivity test on a batch of 2000 channels, the
partial-transpose test on 2000 stacks of five entanglement-breaking
probes (one stacked LAPACK call each, as ``eb_oracle_tmsv`` makes it),
and the cubic interpolator on a complex 1025^2 grid at grid-action size.
Each row prints the best of five runs.
"""

import time

import numpy as np

from gaussatlas import Channel, apply_channel_one_side, cp_defect, is_ppt_separable, tmsv_variance
from gaussatlas._kernels import interp_cubic2d
from gaussatlas.breaking import DEFAULT_R_LIST

N_REPEAT = 5
N_CALLS = 2000


def _time(fn, *args, repeat=N_REPEAT):
    best = np.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def _channels(n):
    rng = np.random.default_rng(2)
    channels = []
    for _ in range(n):
        a = rng.normal(size=(2, 2))
        channels.append(Channel(X=rng.normal(size=(2, 2)), Y=a @ a.T))
    return channels


def bench_cp_defect():
    channels = _channels(N_CALLS)

    def run():
        for ch in channels:
            cp_defect(ch)

    return f"closed-form cp_defect ({N_CALLS} calls)", run


def bench_ppt_stack():
    channels = _channels(N_CALLS)
    probes = tmsv_variance(DEFAULT_R_LIST)

    def run():
        for ch in channels:
            is_ppt_separable(apply_channel_one_side(ch.X, ch.Y, probes))

    return f"stacked {len(DEFAULT_R_LIST)}-probe PPT test ({N_CALLS} calls)", run


def bench_interp():
    rng = np.random.default_rng(3)
    n = 1025
    values = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    fx = rng.uniform(2.0, n - 3.0, size=n * n)
    fy = rng.uniform(2.0, n - 3.0, size=n * n)
    return "complex cubic interpolation (1025^2 points)", lambda: interp_cubic2d(values, fx, fy)


def main():
    rows = [(name, _time(run)) for name, run in (bench_cp_defect(), bench_ppt_stack(),
                                                 bench_interp())]
    width = max(len(name) for name, _ in rows)
    print(f"{'kernel':<{width}}  {'time':>10}")
    for name, seconds in rows:
        print(f"{name:<{width}}  {seconds * 1e3:>8.2f}ms")


if __name__ == "__main__":
    main()
