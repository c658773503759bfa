"""Seeded workloads: input generators, the timed operations and their checks.

Each workload builds all of its inputs from the seed before any timing,
runs one operation at a time (closed loop, one client) and checks every
operation's output outside the timed region.  Operations are grouped in
cycles: a cycle is a fixed multiset of operation shapes whose order and
parameters come from the seed, so runs of any seed time the same mix.

The program is reached only through the public ``gaussatlas`` names,
the CLI entry point and the files the CLI writes; oracle verdicts are
read through ``verdict`` so a bool or a result object both work.
"""

import contextlib
import io
import math
import re
from pathlib import Path

import numpy as np

TOL = 1e-6  # the library's default verdict slack (TOL_CLASS)
GUARD = 1e-9  # relative rounding band around a boundary where either verdict is accepted
REGIONS = ("unphysical", "cp_only", "eb_not_ncb", "ncb")
REGION_CODE = {label: i for i, label in enumerate(REGIONS)}
AUDIT_KINDS = ("I", "II", "III_rank1", "III_zero")


def verdict(result):
    """Boolean verdict of an oracle that returns a bool or a result object."""
    if isinstance(result, (bool, np.bool_)):
        return bool(result)
    for attr in ("verdict", "ok"):
        value = getattr(result, attr, None)
        if isinstance(value, (bool, np.bool_)):
            return bool(value)
    return bool(result)


def table_margins(kind, kappa, a, b):
    """(cp, eb, ncb) margins of the closed-form table, elementwise.

    kind is "I", "II" or a kind-III label; a restatement of the table in
    the breaking module's docstring, independent of its code.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    prod = a * b
    if kind in ("I", "II"):
        k2 = kappa * kappa
        eb = prod - (1.0 + k2) ** 2
        cp = prod - (1.0 - k2) ** 2 if kind == "I" else eb
        ncb = np.minimum(np.minimum(a - 1.0, b - 1.0), (a - 1.0) * (b - 1.0) - k2 * k2)
        bound = (1.0 + k2) ** 2
    else:
        eb = cp = prod - 1.0
        ncb = np.minimum(a - 1.0, b - 1.0)
        bound = 1.0
    return cp, eb, ncb, np.maximum(np.maximum(1.0, bound), np.abs(prod))


def region_codes(cp, eb, ncb, slack):
    """Region index per point for a verdict slack (a margin >= -slack holds)."""
    return np.where(cp < -slack, 0, np.where(eb < -slack, 1, np.where(ncb < -slack, 2, 3)))


def _log_uniform(rng, lo, hi, size=None):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


def _rotations(angles):
    c, s = np.cos(angles), np.sin(angles)
    return np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)


def _cli(ga, argv):
    """Exit code of an in-process CLI run, its standard output discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return ga.cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments
            return exc.code


class Op:
    """One generated operation: its shape, its inputs and the items it yields."""

    __slots__ = ("shape", "items", "args")

    def __init__(self, shape, items, args):
        self.shape = shape
        self.items = items
        self.args = args


class Outcome:
    """Check of one operation's output.

    problems are failed output checks; mismatches name the oracles that
    disagreed with the closed form.  Both make the operation count as
    failed; only problems make the run incorrect.
    """

    __slots__ = ("problems", "mismatches")

    def __init__(self, problems=(), mismatches=()):
        self.problems = list(problems)
        self.mismatches = list(mismatches)


class Workload:
    name = ""
    cycle_len = 1
    # every timed run completes the first sample_cycles cycles, and its
    # result line counts attempted and failed operations over them alone;
    # four cycles of twelve keep at least ten operations beyond the p75
    # tail even on a slow run
    sample_cycles = 4
    # a traced run times trace_blocks(seconds) blocks of trace_block cycles,
    # a count fixed by --seconds (about 1 s of run per 1 s asked at the seed
    # commit), so per-layer totals of two versions cover the same operations
    trace_block = 1
    trace_blocks_per_s = 1.0

    def __init__(self, ga, seed, workdir):
        self.ga = ga
        self.workdir = Path(workdir)
        self.rng = np.random.default_rng([self.stream, seed])
        self.cycles = self.generate()

    def cycle_iter(self):
        """The generated cycles in order, wrapping around if a run needs more."""
        while True:
            yield from self.cycles

    def trace_blocks(self, seconds):
        return max(1, round(seconds * self.trace_blocks_per_s))

    def bytes_written(self, op):
        """Bytes the operation wrote to output files."""
        return 0

    def cleanup(self, op):
        pass


# -- audit ---------------------------------------------------------------- #


class Audit(Workload):
    """Check one channel as `gaussatlas check` and `orbit` do."""

    name = "audit"
    stream = 0xA0D1
    pool = 12000
    sample_cycles = 2000
    trace_block = 250
    trace_blocks_per_s = 1.0 / 3.6

    def generate(self):
        # Gain log-uniform on [0.1, 10] (a quarter of kind I at unit gain, for
        # the single-photon test); noise product log-uniform from e^-0.35 to
        # e^2.5 times the EB bound, so about nine in ten channels are CP and
        # all four regions occur; each channel behind a random squeeze and
        # rotation before and a random rotation after.
        rng, n = self.rng, self.pool
        kind = rng.integers(0, 4, n)
        gain = _log_uniform(rng, 0.1, 10.0, n)
        gain[(kind == 0) & (rng.random(n) < 0.25)] = 1.0
        bound = np.where(kind < 2, (1.0 + gain ** 2) ** 2, 1.0)
        prod = bound * np.exp(rng.uniform(-0.35, 2.5, n))
        ratio = np.exp(rng.uniform(0.0, 2.5, n))
        a = np.sqrt(prod * ratio)
        b = np.sqrt(prod / ratio)
        sq = rng.uniform(-1.0, 1.0, n)
        pre = (_rotations(rng.uniform(-np.pi, np.pi, n))
               @ (np.exp(sq)[:, None, None] * np.array([[0.0, 0.0], [0.0, 1.0]])
                  + np.exp(-sq)[:, None, None] * np.array([[1.0, 0.0], [0.0, 0.0]]))
               @ _rotations(rng.uniform(-np.pi, np.pi, n)))
        post = _rotations(rng.uniform(-np.pi, np.pi, n))
        noise_rot = _rotations(rng.uniform(-np.pi, np.pi, n))

        x_can = np.zeros((n, 2, 2))
        x_can[:, 0, 0] = gain
        x_can[:, 1, 1] = np.where(kind == 0, gain, np.where(kind == 1, -gain, 0.0))
        rank1 = kind == 2
        x_can[rank1, 0, 0] = gain[rank1] / np.linalg.norm(pre[rank1, :, 0], axis=-1)
        x_can[kind == 3] = 0.0
        X = pre @ x_can @ post
        rot_y = np.where(rank1[:, None, None], noise_rot, post)
        y_can = np.zeros((n, 2, 2))
        y_can[:, 0, 0] = a
        y_can[:, 1, 1] = b
        Y = np.swapaxes(rot_y, -1, -2) @ y_can @ rot_y
        Y = 0.5 * (Y + np.swapaxes(Y, -1, -2))
        kappa = np.where(kind == 3, 0.0, gain)
        return [[Op("channel", 1, (X[i], Y[i], AUDIT_KINDS[kind[i]], kappa[i], a[i], b[i]))]
                for i in range(n)]

    def warmup_ops(self):
        seen = {}
        for (op,) in self.cycles:
            seen.setdefault(op.args[2], op)
        return list(seen.values())

    def run(self, op):
        ga = self.ga
        X, Y = op.args[:2]
        ch = ga.Channel(X=X, Y=Y)
        rep = ga.report(ch)
        out = {"report": rep, "is_cp": ga.is_cp(ch)}
        if out["is_cp"]:
            out["ncb_oracle_gaussian"] = ga.ncb_oracle_gaussian(ch)
            out["eb_oracle_tmsv"] = ga.eb_oracle_tmsv(ch)
            form = rep.form
            if form.kind.value == "I" and abs(form.kappa - 1.0) <= 1e-9:
                out["ncb_necessity_fock1"] = ga.ncb_necessity_fock1(form)
        if rep.eb:
            r0 = ga.find_r0(rep.form)
            out["r0"] = r0
            out["orbit"] = None if r0 is None else ga.squeeze_orbit(rep.form, r0)
        return out

    def check(self, op, out):
        _, _, kind, kappa, a, b = op.args
        rep = out["report"]
        problems, mismatches = [], []
        form = rep.form
        if form.kind.value != kind:
            problems.append(f"kind {form.kind.value} != {kind}")
        for label, got, want in (("kappa", form.kappa, kappa), ("a", form.a, a), ("b", form.b, b)):
            if abs(got - want) > 1e-8 * max(1.0, abs(want)):
                problems.append(f"{label} {got!r} != {want!r}")
        label = "I" if kind == "I" else "II" if kind == "II" else "III"
        margins = table_margins(label, kappa, a, b)
        scale = float(margins[3])
        for name, margin in zip(("cp", "eb", "ncb"), margins[:3]):
            margin = float(margin)
            if abs(margin + TOL) > GUARD * scale and getattr(rep, name) != (margin >= -TOL):
                problems.append(f"report.{name} {getattr(rep, name)} vs table margin {margin!r}")
        if out["is_cp"]:
            for oracle, closed in (("ncb_oracle_gaussian", rep.ncb), ("eb_oracle_tmsv", rep.eb),
                                   ("ncb_necessity_fock1", rep.ncb)):
                if oracle in out and verdict(out[oracle]) != closed:
                    mismatches.append(oracle)
        elif rep.cp:
            mismatches.append("is_cp")
        if rep.eb:
            orbit = out["orbit"]
            if out["r0"] is None or not orbit.ncb:
                problems.append("find_r0 found no breaking squeeze on an EB channel")
        return Outcome(problems, mismatches)


# -- atlas ---------------------------------------------------------------- #


_CLASS_RE = re.compile(r'"class"\s*:\s*"(\w+)"')


class Atlas(Workload):
    """In-process `gaussatlas sweep` runs, read back from their output files."""

    name = "atlas"
    stream = 0xA71A
    # Cheapest first: 4 small CSV; 3 small JSON and 4 mid CSV of about equal
    # cost; 1 large CSV.  The median and the 75th percentile both fall inside
    # the middle group, not on the edge between two groups of unequal cost,
    # and a 30 s run of about 60 operations stays inside the p75 tail band
    # (40 to 99 operations) even if the program runs 40% faster or slower.
    cycle_shapes = ((("csv", 100),) * 4 + (("json", 100),) * 3 + (("csv", 200),) * 4
                    + (("csv", 400),))
    kinds = ("I", "II", "III")
    cycle_len = len(cycle_shapes)
    pool_cycles = 40
    trace_blocks_per_s = 1.0 / 16.0

    def generate(self):
        rng = self.rng
        cycles, serial = [], 0
        offset = int(rng.integers(0, 3))
        for number in range(self.pool_cycles):
            cycle = []
            for idx in rng.permutation(self.cycle_len):
                fmt, side = self.cycle_shapes[idx]
                # kinds rotate through each slot, so every run sees a balanced mix
                kind = self.kinds[(offset + number + idx) % 3]
                kappa = float(_log_uniform(rng, 0.1, 10.0))
                scale = 1.0 + kappa ** 2 if kind != "III" else 1.0
                lo = scale * rng.uniform(0.02, 0.3, 2)
                hi = scale * rng.uniform(2.5, 4.0, 2)
                out = self.workdir / f"sweep-{serial}.{fmt}"
                serial += 1
                argv = ["sweep", "--form", kind, "--kappa", repr(kappa),
                        "--amin", repr(float(lo[0])), "--amax", repr(float(hi[0])),
                        "--bmin", repr(float(lo[1])), "--bmax", repr(float(hi[1])),
                        "--grid", str(side), "--format", fmt, "--out", str(out)]
                cycle.append(Op(f"sweep_{fmt}_{side}", side * side,
                                (argv, kind, kappa, lo, hi, side, fmt, out)))
            cycles.append(cycle)
        return cycles

    def warmup_ops(self):
        first = {}
        for op in self.cycles[0]:
            if op.items == 100 * 100:
                first.setdefault(op.shape, op)
        return list(first.values())

    def run(self, op):
        return _cli(self.ga, op.args[0])

    @staticmethod
    def _curves_path(out):
        return out.with_name(out.stem + "_curves" + out.suffix)

    def check(self, op, code):
        _, kind, kappa, lo, hi, side, fmt, out = op.args
        if code != 0:
            return Outcome([f"sweep exited {code}"])
        a = np.linspace(lo[0], hi[0], side)
        b = np.linspace(lo[1], hi[1], side)
        A, B = np.meshgrid(a, b, indexing="ij")
        cp, eb, ncb, scale = table_margins(kind, kappa, A.ravel(), B.ravel())
        low = region_codes(cp, eb, ncb, TOL + GUARD * scale)
        high = region_codes(cp, eb, ncb, TOL - GUARD * scale)
        with open(out) as fh:
            if fmt == "csv":
                col = next(fh).rstrip("\n").split(",").index("class")
                got = np.fromiter((REGION_CODE.get(line.split(",", col + 1)[col], -1)
                                   for line in fh), dtype=np.int8)
            else:
                got = np.fromiter((REGION_CODE.get(m.group(1), -1)
                                   for line in fh if '"class"' in line
                                   for m in (_CLASS_RE.search(line),) if m), dtype=np.int8)
        problems = []
        if got.size != low.size:
            problems.append(f"{got.size} records for a {side}x{side} grid")
        elif not np.all((got == low) | (got == high)):
            problems.append(f"{int(np.sum((got != low) & (got != high)))} points misclassified")
        if fmt == "csv":
            with open(self._curves_path(out)) as fh:
                lines = sum(1 for _ in fh)
            if lines != 1 + 3 * 512:
                problems.append(f"curves file has {lines} lines")
        return Outcome(problems)

    def bytes_written(self, op):
        out = op.args[-1]
        paths = [out] + ([self._curves_path(out)] if op.args[6] == "csv" else [])
        return sum(p.stat().st_size for p in paths if p.exists())

    def cleanup(self, op):
        out = op.args[-1]
        for path in (out, self._curves_path(out)):
            path.unlink(missing_ok=True)


# -- phase ---------------------------------------------------------------- #


class Phase(Workload):
    """Characteristic-grid pipeline in the library, and `gaussatlas pfunc --variant fft`."""

    name = "phase"
    stream = 0xF4A5
    pipeline_side = 1025
    pipeline_extent = 8.0
    p_order = 1.0 - 1e-3  # regularized P order, as the library's P_EPS
    # Cheapest first: 7 small pfunc, 4 pipeline, 1 large pfunc.  The median
    # falls inside the small-pfunc group and the 75th percentile inside the
    # pipeline group, so p50 follows the CLI output path and the tail the
    # interpolation; a 30 s run of about 60 operations stays inside the p75
    # tail band (40 to 99 operations).
    cycle_shapes = (("pfunc", 257),) * 7 + (("pipeline", 1025),) * 4 + (("pfunc", 513),)
    cycle_len = len(cycle_shapes)
    pool_cycles = 40
    trace_blocks_per_s = 1.0 / 14.0

    def generate(self):
        rng = self.rng
        cycles, serial = [], 0
        for _ in range(self.pool_cycles):
            cycle = []
            for idx in rng.permutation(self.cycle_len):
                shape, side = self.cycle_shapes[idx]
                if shape == "pipeline":
                    # a criterion-9 pair: squeezed input, contraction X, noise above 2.1
                    lam = float(np.exp(rng.uniform(-0.35, 0.35)))
                    rot = _rotations(rng.uniform(-np.pi, np.pi, 2))
                    S = rot[0] @ np.diag([lam, 1.0 / lam]) @ rot[1]
                    X = 0.5 * rng.standard_normal((2, 2))
                    smax = np.linalg.norm(X, 2)
                    if smax > 0.95:
                        X *= 0.95 / smax
                    M = rng.standard_normal((2, 2))
                    cycle.append(Op(shape, side * side,
                                    (S.T @ S, X, 0.5 * (M.T @ M) + 2.1 * np.eye(2))))
                else:
                    a, b = (float(v) for v in rng.uniform(1.5, 4.0, 2))
                    out = self.workdir / f"pfunc-{serial}.csv"
                    serial += 1
                    argv = ["pfunc", "--variant", "fft", "--a", repr(a), "--b", repr(b),
                            "--grid", str(side), "--out", str(out)]
                    cycle.append(Op(f"pfunc_{side}", side * side, (argv, a, b, side, out)))
            cycles.append(cycle)
        return cycles

    def warmup_ops(self):
        first = {}
        for op in self.cycles[0]:
            first.setdefault(op.shape, op)
        return list(first.values())

    def run(self, op):
        ga = self.ga
        if op.shape == "pipeline":
            V, X, Y = op.args
            spec = ga.GridSpec(side=self.pipeline_side, extent=self.pipeline_extent)
            acted = ga.act_chargrid(ga.Channel(X=X, Y=Y), ga.char_gaussian(V, 0.0, spec))
            return acted, ga.quasi_from_char(ga.convert_order(acted, self.p_order))
        return _cli(ga, op.args[0])

    def check(self, op, out):
        if op.shape == "pipeline":
            return self._check_pipeline(op, out)
        return self._check_pfunc(op, out)

    def _check_pipeline(self, op, out):
        V, X, Y = op.args
        acted, quasi = out
        vout = X.T @ V @ X + Y
        xi = np.linspace(-self.pipeline_extent, self.pipeline_extent, self.pipeline_side)
        x1, x2 = np.meshgrid(xi, xi, indexing="ij")
        ref = np.exp(-0.5 * (vout[0, 0] * x1 * x1 + 2.0 * vout[0, 1] * x1 * x2
                             + vout[1, 1] * x2 * x2))
        problems = []
        char_err = float(np.abs(acted.values - ref).max())
        if not char_err <= 1e-6:
            problems.append(f"acted grid off the covariance action by {char_err:.3e}")
        # density of covariance (vout - s)/2 on the reciprocal axis; a 1e-6
        # characteristic error moves it by at most 1e-6 (2L)^2 / (2 pi^2)
        cov = 0.5 * (vout - self.p_order * np.eye(2))
        inv = np.linalg.inv(cov)
        a1, a2 = np.meshgrid(quasi.axis, quasi.axis, indexing="ij")
        dens = np.exp(-0.5 * (inv[0, 0] * a1 * a1 + 2.0 * inv[0, 1] * a1 * a2
                              + inv[1, 1] * a2 * a2)) / (2.0 * np.pi * math.sqrt(np.linalg.det(cov)))
        q_err = float(np.abs(quasi.values - dens).max())
        if not q_err <= 1e-6 * (2.0 * self.pipeline_extent) ** 2 / (2.0 * np.pi ** 2):
            problems.append(f"quasiprobability off the Gaussian density by {q_err:.3e}")
        return Outcome(problems)

    def _check_pfunc(self, op, code):
        _, a, b, side, out = op.args
        if code != 0:
            return Outcome([f"pfunc exited {code}"])
        data = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        if data.shape != (side * side, 3):
            return Outcome([f"pfunc wrote {data.shape} values for a {side}x{side} grid"])
        al1, al2, values = data.T
        # closed-form single-photon output P, measure d^2 alpha / pi
        ref = ((2.0 / math.sqrt(a * b)) * np.exp(-2.0 * al1 ** 2 / a - 2.0 * al2 ** 2 / b)
               * (1.0 + 4.0 * al1 ** 2 / a ** 2 + 4.0 * al2 ** 2 / b ** 2 - 1.0 / a - 1.0 / b))
        err = float(np.abs(values - ref).max())
        return Outcome([] if err <= 1e-6 else [f"pfunc off the closed form by {err:.3e}"])

    def bytes_written(self, op):
        if op.shape == "pipeline" or not op.args[-1].exists():
            return 0
        return op.args[-1].stat().st_size

    def cleanup(self, op):
        if op.shape != "pipeline":
            op.args[-1].unlink(missing_ok=True)


WORKLOADS = {w.name: w for w in (Audit, Atlas, Phase)}
