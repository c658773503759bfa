"""Tests of the benchmark itself: generators, tail rule, failure accounting, tracing.

Run from the root of the checkout:  python3 -m pytest perfbench/tests -q
"""

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import gaussatlas  # noqa: E402
import gaussatlas.cli  # noqa: E402,F401
import percentiles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Audit, Atlas, Op, Outcome, verdict  # noqa: E402


def _fingerprint(workload):
    parts = []
    for cycle in workload.cycles:
        for op in cycle:
            parts.append(op.shape)
            for arg in op.args:
                parts.append(np.asarray(arg).tobytes() if isinstance(arg, np.ndarray) else repr(arg))
    return parts


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(name, tmp_path):
    make = WORKLOADS[name]
    first = _fingerprint(make(gaussatlas, 7, tmp_path))
    assert first == _fingerprint(make(gaussatlas, 7, tmp_path))
    assert first != _fingerprint(make(gaussatlas, 8, tmp_path))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_cycles_are_one_fixed_mix(name, tmp_path):
    workload = WORKLOADS[name](gaussatlas, 3, tmp_path)
    mixes = {tuple(sorted((op.shape, op.items) for op in cycle)) for cycle in workload.cycles}
    if name == "audit":
        assert all(len(cycle) == 1 for cycle in workload.cycles)
    else:
        assert len(mixes) == 1


def test_audit_mix_covers_every_kind_and_region(tmp_path):
    from workloads import table_margins, region_codes, TOL

    workload = Audit(gaussatlas, 1, tmp_path)
    ops = [cycle[0] for cycle in workload.cycles]
    kinds = {op.args[2] for op in ops}
    assert kinds == {"I", "II", "III_rank1", "III_zero"}
    regions = []
    for op in ops:
        _, _, kind, kappa, a, b = op.args
        label = kind if kind in ("I", "II") else "III"
        cp, eb, ncb, _ = table_margins(label, kappa, a, b)
        regions.append(int(region_codes(cp, eb, ncb, TOL)))
    counts = np.bincount(regions, minlength=4)
    assert np.all(counts > 0)
    assert 0.85 < 1.0 - counts[0] / len(ops) < 0.95  # about nine in ten CP
    assert any(op.args[2] == "I" and op.args[3] == 1.0 for op in ops)


def test_tail_is_highest_ladder_percentile_with_ten_beyond():
    samples = list(range(1, 101))
    assert percentiles.tail(samples) == (90.0, 90)
    assert percentiles.percentile(samples, 50.0) == 50
    assert percentiles.tail(list(range(1000)))[0] == 99.0
    assert percentiles.tail(list(range(999)))[0] == 95.0  # p99 would leave 9 beyond
    assert percentiles.tail(list(range(10000)))[0] == 99.9
    assert percentiles.tail(list(range(20))) == (50.0, 9)
    assert percentiles.tail(list(range(19))) == (100.0, 18)


def _audit_tally(workload, ops):
    tally = run.Tally()
    for op in ops:
        run.execute(workload, op, tally, workload.run)
    return tally


def _cp_ops(workload, count):
    ops = []
    for (op,) in workload.cycles:
        ch = gaussatlas.Channel(X=op.args[0], Y=op.args[1])
        if gaussatlas.is_cp(ch):
            ops.append(op)
        if len(ops) == count:
            return ops
    raise AssertionError("not enough CP channels")


def test_injected_oracle_disagreement_raises_fail_frac(tmp_path, monkeypatch):
    workload = Audit(gaussatlas, 2, tmp_path)
    ops = _cp_ops(workload, 20)
    base = _audit_tally(workload, ops)

    def contrary(ch, **kwargs):
        return not gaussatlas.report(ch).ncb

    monkeypatch.setattr(gaussatlas, "ncb_oracle_gaussian", contrary)
    injected = _audit_tally(workload, ops)
    assert injected.failed == injected.attempted == len(ops) > base.failed
    assert injected.mismatches["ncb_oracle_gaussian"] == len(ops)
    assert injected.incorrect == 0  # a disagreement fails the op, not the run


def test_oracle_result_objects_are_read_through_the_adapter(tmp_path, monkeypatch):
    class Result:
        def __init__(self, holds):
            self.verdict = holds
            self.value = -0.5

    assert verdict(True) is True and verdict(np.bool_(False)) is False
    assert verdict(Result(False)) is False
    workload = Audit(gaussatlas, 2, tmp_path)
    ops = _cp_ops(workload, 10)
    monkeypatch.setattr(gaussatlas, "eb_oracle_tmsv",
                        lambda ch, **kw: Result(gaussatlas.report(ch).eb))
    assert "eb_oracle_tmsv" not in _audit_tally(workload, ops).mismatches


class _Stub:
    """Ten one-op cycles; odd inputs draw an oracle disagreement."""

    name = "stub"
    sample_cycles = 3

    def __init__(self, delay):
        self.delay = delay
        self.cycles = [[Op("x", 1, (i,))] for i in range(10)]

    def cycle_iter(self):
        while True:
            yield from self.cycles

    def run(self, op):
        time.sleep(self.delay)
        return op.args[0]

    def check(self, op, out):
        return Outcome(mismatches=["oracle"] if out % 2 else [])

    def bytes_written(self, op):
        return 0

    def cleanup(self, op):
        pass


def test_result_counts_cover_the_fixed_sample_whatever_the_speed():
    counts = []
    for delay, seconds in ((0.0, 0.0), (0.002, 0.05)):
        stub = _Stub(delay)
        tally = run.run_for(stub, seconds, stub.run)
        assert tally.attempted >= stub.sample_cycles
        tally.sample = stub.sample_cycles
        counts.append(run.result_counts([tally]))
    assert counts == [(3, 1), (3, 1)]
    tally.sample = None
    assert run.result_counts([tally]) == (tally.attempted, tally.failed)


def test_atlas_check_catches_a_wrong_class(tmp_path):
    workload = Atlas(gaussatlas, 4, tmp_path)
    op = next(op for op in workload.cycles[0] if op.shape == "sweep_csv_100")
    code = workload.run(op)
    assert workload.check(op, code).problems == []
    out = op.args[-1]
    lines = out.read_text().splitlines()
    row = lines[1].split(",")
    row[4] = "ncb" if row[4] != "ncb" else "unphysical"
    lines[1] = ",".join(row)
    out.write_text("\n".join(lines) + "\n")
    assert workload.check(op, code).problems == ["1 points misclassified"]

    out.unlink()
    tally = run.Tally()
    run.execute(workload, op, tally, lambda _: code)  # the sweep "wrote" nothing
    assert tally.failed == tally.incorrect == 1
    assert tally.problems[0].startswith("sweep_csv_100: output check raised FileNotFoundError")


def _fake_package(tmp_path, monkeypatch):
    pkg = tmp_path / "fakeatlas"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .breaking import report\n")
    (pkg / "breaking.py").write_text(
        "import time\n"
        "def margin(x):\n    time.sleep(0.01)\n    return x\n"
        "def report(x):\n    time.sleep(0.01)\n    return margin(x) + 1\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    import fakeatlas
    return fakeatlas


def test_tracer_nests_spans_and_tolerates_missing_targets(tmp_path, monkeypatch):
    fake = _fake_package(tmp_path, monkeypatch)
    tracer = tracing.Tracer()
    tracer.install("fakeatlas")  # no cli, channels, ... modules: skipped
    try:
        assert tracer.wrap("op.test", fake.report)(1) == 2
    finally:
        tracer.uninstall()
    assert fake.report(1) == 2  # unwrapped again
    totals = tracer.totals()
    assert totals["breaking.report"]["calls"] == 1
    assert totals["breaking.margin"]["calls"] == 1
    report = totals["breaking.report"]
    assert report["self_s"] < report["busy_s"]
    assert report["busy_s"] - report["self_s"] == pytest.approx(totals["breaking.margin"]["busy_s"])
    assert [p for p, *_ in tracer.paths()] == [
        "op.test", "op.test/breaking.report", "op.test/breaking.report/breaking.margin"]

    tally = run.Tally()
    tally.latency, tally.wall, tally.shapes = [1.0], [1.0], ["x"]
    values = run.per_layer(tracer, tally, tally)
    assert values["breaking.ncb_oracle_gaussian.calls"] == 0
    assert values["breaking.report.calls"] == 1
    assert set(values) == set(run.per_layer_units())


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
