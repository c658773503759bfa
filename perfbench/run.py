"""gaussatlas benchmark: one seeded workload per process, timed end to end.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload audit|atlas|phase --seed N --seconds S --trace 0|1

The program is imported from ``src/`` of the checkout.  Inputs are built
from the seed before timing; operations then run one after another
(closed loop, one client) for about S seconds, in whole cycles of the
workload's operation mix, and each operation's output is checked outside
the timed region.

With ``--trace 0`` the run reports the end-to-end metrics: items per
second, per-operation p50 and tail latency (the highest of p50, p75,
p90, p95, p99 and p99.9 with at least ten samples beyond it), both in
process CPU time (see ``Tally``), the share of failed operations, peak
resident memory, and ``setup_s``, the median wall time of a fresh
interpreter that imports ``gaussatlas`` and ``gaussatlas.cli``, sampled
between operations over the whole run.  With ``--trace 1`` it runs a
fixed number of operations (set by S, not by speed) twice, untraced and
then traced, and reports per-layer span totals, the oracle mismatch
counts, calls per operation and the tracing overhead; the full call-path
table goes to ``.perfbench_run/trace-<workload>-<seed>.json``.

An operation fails if it raises, if its output fails the check, or if an
oracle disagrees with the closed form.  Disagreements are counted but do
not make the run incorrect: they are the oracles' known resolution limit.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  In a timed run,
``attempted`` and ``failed`` count the first cycles of the seed's stream,
a sample every run completes whatever its speed, so two runs of one seed
and one program report the same counts; the summary lines above give the
failures over all operations of the run.  The process exits 2 without
a result when the checkout holds no ``src/gaussatlas``.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import percentiles
import tracing

ROOT = Path(__file__).resolve().parent.parent
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 15

END_TO_END = {
    "items_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

# per-layer span names; "kernels" is the gaussatlas._kernels module
SPANS = (
    "breaking.ncb_oracle_gaussian", "kernels.dominance_best",
    "breaking.eb_oracle_tmsv", "gaussian_core.is_ppt_separable",
    "gaussian_core.apply_channel_one_side", "kernels.hermitian_eigmin",
    "breaking.report", "channels.canonical_reduce", "channels.Channel", "channels.is_cp",
    "breaking.find_r0", "breaking.ncb_necessity_fock1",
    "breaking.region_sweep", "breaking.classify_region", "breaking.boundary_curves",
    "breaking.RegionRecord", "breaking.RegionRecord.csv_row", "cli.main",
    "channels.act_chargrid", "kernels.interp_cubic2d",
    "phase_space.char_gaussian", "phase_space.char_fock1",
    "phase_space.convert_order", "phase_space.quasi_from_char",
)
MISMATCH_ORACLES = ("breaking.ncb_oracle_gaussian", "breaking.eb_oracle_tmsv",
                    "breaking.ncb_necessity_fock1")
CALLS_PER_OP = ("channels.is_cp", "channels.canonical_reduce", "kernels.interp_cubic2d")


def per_layer_units():
    units = {}
    for span in SPANS:
        units[f"{span}.calls"] = "count"
        units[f"{span}.busy_s"] = "s"
        units[f"{span}.self_s"] = "s"
    for span in MISMATCH_ORACLES:
        units[f"{span}.mismatches"] = "count"
    for span in CALLS_PER_OP:
        units[f"{span}.calls_per_op"] = "calls/op"
    units["cli.bytes_written"] = "B"
    units["trace.overhead_frac"] = "ratio"
    return units


# -- environment ------------------------------------------------------------ #


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def environment(ga, np):
    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size")
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gaussatlas").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        sha = res.stdout.strip() or None
    backend = getattr(ga, "backend", None)
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": backend() if callable(backend) else None,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "git_sha": sha,
        "src_sha256": src.hexdigest()[:16],
    }


class SetupClock:
    """Times from spawning a fresh interpreter until it has imported
    gaussatlas and gaussatlas.cli.

    The child reads the system-wide monotonic clock once the imports are
    done; timing the child's exit instead would measure subprocess's
    polling interval, not the imports.  run_for takes the samples between
    operations, spread over the whole run: on a shared virtual machine the
    CPU speed can swing by a fifth from one second to the next (seen on a
    2-vCPU Xeon guest), so samples taken back to back all land in one swing.
    """

    def __init__(self):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), self.env.get("PYTHONPATH")) if p)
        self.cmd = [sys.executable, "-c", "import gaussatlas, gaussatlas.cli, time; "
                    "print(time.clock_gettime(time.CLOCK_MONOTONIC))"]
        self.times = []
        subprocess.run(self.cmd, cwd=ROOT, env=self.env, check=True, capture_output=True,
                       timeout=120)  # byte-compile once

    def sample(self):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        res = subprocess.run(self.cmd, cwd=ROOT, env=self.env, check=True,
                             capture_output=True, text=True, timeout=120)
        self.times.append(float(res.stdout.split()[-1]) - start)

    def median(self):
        return statistics.median(self.times)


# -- the closed loop -------------------------------------------------------- #


class Tally:
    """Per-operation records of one pass.

    latency is the process CPU time (user plus system, all threads) of
    each operation.  The operations never wait on anything but the CPU,
    and on a shared virtual machine the wall clock also counts the time
    the host runs someone else on our virtual CPU: those gaps of several
    milliseconds set the wall-clock p99 of audit and no program change
    can move them.  Wall time is kept for the summary lines.
    """

    def __init__(self):
        self.shapes = []
        self.latency = []
        self.wall = []
        self.items = 0
        self.failed = 0
        self.failed_ops = []  # per operation, in run order: did it fail
        self.sample = None  # operations the result line counts; None for all
        self.incorrect = 0
        self.mismatches = {}
        self.bytes_written = 0
        self.problems = []

    @property
    def attempted(self):
        return len(self.latency)


def _last_error():
    return traceback.format_exc(limit=3).strip().splitlines()[-1]


def execute(workload, op, tally, timed):
    """Run one operation through timed(op), check it and record the outcome."""
    w0, c0 = time.perf_counter(), time.process_time()
    outcome = None
    try:
        out = timed(op)
    except Exception:
        cpu, wall = time.process_time() - c0, time.perf_counter() - w0
        problem = _last_error()
    else:
        cpu, wall = time.process_time() - c0, time.perf_counter() - w0
        try:
            outcome = workload.check(op, out)
        except Exception:  # an unreadable output file fails the op, not the run
            problem = "output check raised " + _last_error()
        else:
            problem = "; ".join(outcome.problems)
        del out
    tally.shapes.append(op.shape)
    tally.latency.append(cpu)
    tally.wall.append(wall)
    tally.items += op.items
    tally.bytes_written += workload.bytes_written(op)
    workload.cleanup(op)
    if outcome is not None:
        for name in outcome.mismatches:
            tally.mismatches[name] = tally.mismatches.get(name, 0) + 1
    if problem:
        tally.incorrect += 1
        if len(tally.problems) < 5:
            tally.problems.append(f"{op.shape}: {problem}")
    failed = bool(problem or (outcome is not None and outcome.mismatches))
    tally.failed += failed
    tally.failed_ops.append(failed)


def run_for(workload, seconds, timed, setup=None):
    """Whole cycles for about `seconds` of wall time, checks included.

    The first workload.sample_cycles cycles always run, however long they
    take, so every run of a seed completes the same sample.  With a
    SetupClock, SETUP_REPS set-up samples are taken between operations,
    evenly over the run; their time does not count against `seconds`.
    """
    tally = Tally()
    start = time.perf_counter()
    paused = 0.0
    cycle_times = []

    def sample_setup():
        nonlocal paused
        t0 = time.perf_counter()
        setup.sample()
        paused += time.perf_counter() - t0

    for cycle in workload.cycle_iter():
        elapsed = time.perf_counter() - start - paused
        if (len(cycle_times) >= workload.sample_cycles
                and elapsed + 0.5 * statistics.fmean(cycle_times) >= seconds):
            break
        t0, paused0 = time.perf_counter(), paused
        for op in cycle:
            execute(workload, op, tally, timed)
            if setup is not None and len(setup.times) < SETUP_REPS and (
                    time.perf_counter() - start - paused
                    >= len(setup.times) * seconds / SETUP_REPS):
                sample_setup()
        cycle_times.append(time.perf_counter() - t0 - (paused - paused0))
    while setup is not None and len(setup.times) < SETUP_REPS:
        sample_setup()
    return tally


def run_traced(workload, count, tracer):
    """count blocks of cycles, each run once untraced and once traced.

    The two passes alternate which goes first, so both run the same
    operations in the same warm state and their busy-time ratio is the
    tracing overhead.
    """
    untraced, traced = Tally(), Tally()
    spanned = tracer.wrap(f"op.{workload.name}", workload.run)

    def untraced_pass(block):
        for op in block:
            execute(workload, op, untraced, workload.run)

    def traced_pass(block):
        tracer.install("gaussatlas")
        try:
            for op in block:
                execute(workload, op, traced, spanned)
        finally:
            tracer.uninstall()

    cycles = workload.cycle_iter()
    for index in range(count):
        block = [op for _ in range(workload.trace_block) for op in next(cycles)]
        passes = (untraced_pass, traced_pass) if index % 2 == 0 else (traced_pass, untraced_pass)
        for run_pass in passes:
            run_pass(block)
    return untraced, traced


# -- reporting -------------------------------------------------------------- #


def result_counts(tallies):
    """(attempted, failed) for the result line: each tally's sample, or all of it."""
    counted = [t.failed_ops[:t.sample] for t in tallies]
    return sum(len(c) for c in counted), sum(sum(c) for c in counted)


def end_to_end(tally, setup_s):
    pct, tail = percentiles.tail(tally.latency)
    busy = sum(tally.latency)
    values = {
        "items_per_s": tally.items / busy,
        "op_p50_ms": 1e3 * percentiles.percentile(tally.latency, 50.0),
        "op_tail_ms": 1e3 * tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }
    wall_pct, wall_tail = percentiles.tail(tally.wall)
    notes = {
        "items_per_s": f"{tally.items} items in {tally.attempted} ops, {busy:.3f} s busy",
        "op_p50_ms": f"n={tally.attempted}; wall clock "
                     f"{1e3 * percentiles.percentile(tally.wall, 50.0):.6g} ms",
        "op_tail_ms": f"p{pct:g}, n={tally.attempted}; wall clock p{wall_pct:g} "
                      f"{1e3 * wall_tail:.6g} ms",
        "peak_rss_mb": "ru_maxrss of this process",
        "setup_s": f"median of {SETUP_REPS} fresh interpreters spread over the run, "
                   "spawn to imports done",
    }
    return values, notes


def per_layer(tracer, traced, untraced):
    totals = tracer.totals()
    values = {}
    for span in SPANS:
        rec = totals.get(span, tracing.ZERO)
        values[f"{span}.calls"] = rec["calls"]
        values[f"{span}.busy_s"] = rec["busy_s"]
        values[f"{span}.self_s"] = rec["self_s"]
    for span in MISMATCH_ORACLES:
        values[f"{span}.mismatches"] = traced.mismatches.get(span.split(".", 1)[1], 0)
    for span in CALLS_PER_OP:
        values[f"{span}.calls_per_op"] = values[f"{span}.calls"] / traced.attempted
    values["cli.bytes_written"] = traced.bytes_written
    values["trace.overhead_frac"] = sum(traced.wall) / sum(untraced.wall) - 1.0
    return values


def summary_lines(workload, tally, values, units, notes):
    yield (f"{workload.name}: {tally.attempted} ops, {tally.failed} failed "
           f"(fail_frac {tally.failed / tally.attempted:.5f}), "
           f"{tally.incorrect} with failed output checks")
    if tally.mismatches:
        yield "  oracle mismatches: " + ", ".join(f"{k} {v}" for k, v in sorted(tally.mismatches.items()))
    for problem in tally.problems:
        yield f"  problem: {problem}"
    by_shape = {}
    for shape, latency in zip(tally.shapes, tally.latency):
        by_shape.setdefault(shape, []).append(latency)
    for shape, lat in sorted(by_shape.items()):
        yield f"  {shape}: n={len(lat)} median {1e3 * statistics.median(lat):.3f} ms"
    for name, value in values.items():
        note = notes.get(name, "")
        yield f"  {name} = {value:.6g} {units[name]}" + (f"  ({note})" if note else "")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "gaussatlas" / "__init__.py").is_file():
        print(f"error: no gaussatlas sources under {src}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(src))

    import numpy as np

    import gaussatlas
    import gaussatlas.cli  # noqa: F401  (binds gaussatlas.cli)

    from workloads import WORKLOADS

    if Path(gaussatlas.__file__).resolve().parent != (src / "gaussatlas").resolve():
        print(f"error: gaussatlas imported from {gaussatlas.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        env = environment(gaussatlas, np)
        workload = WORKLOADS[args.workload](gaussatlas, args.seed, workdir)
        warm = Tally()
        for op in workload.warmup_ops():
            execute(workload, op, warm, workload.run)
        # the generated inputs live for the whole run; keep them out of the
        # collections the program's own allocations trigger
        gc.collect()
        gc.freeze()

        if args.trace:
            tracer = tracing.Tracer()
            untraced, traced = run_traced(workload, workload.trace_blocks(args.seconds), tracer)
            values = per_layer(tracer, traced, untraced)
            units = per_layer_units()
            notes = {"trace.overhead_frac": "traced over untraced busy time, same ops"}
            trace_path = ROOT / ".perfbench_run" / f"trace-{args.workload}-{args.seed}.json"
            trace_path.write_text(json.dumps({
                "workload": args.workload, "seed": args.seed, "ops": traced.attempted,
                "env": env, "metrics": values,
                "paths": [{"path": p, "calls": c, "total_s": t, "self_s": s}
                          for p, c, t, s in tracer.paths()],
            }, indent=1) + "\n")
            tallies = (untraced, traced)
            shown = traced
        else:
            setup = SetupClock()
            shown = run_for(workload, args.seconds, workload.run, setup)
            values, notes = end_to_end(shown, setup.median())
            units = END_TO_END
            tallies = (shown,)
            # attempted and failed cover the fixed sample, so they depend on
            # the seed and the program, not on how many operations fit in
            # the time; every operation's output is still checked
            shown.sample = sum(len(c) for c in workload.cycles[:workload.sample_cycles])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = result_counts(tallies)
    incorrect = warm.incorrect + sum(t.incorrect for t in tallies)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + json.dumps(env))
    for line in summary_lines(workload, shown, values, units, notes):
        print(line)
    print(json.dumps({
        "correct": incorrect == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
