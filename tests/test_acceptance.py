"""Acceptance gate: every numbered verification criterion must pass.

Each criterion is an independent end-to-end check (closed forms against
brute-force oracles, reductions against witness identities, transforms
against analytic values) with its tolerance baked in.  One test per
criterion so a red line names the failing guarantee directly; the
terminal also gets an explicit ACCEPT line per criterion.
"""

from types import SimpleNamespace

import pytest

from gaussatlas import verify
from gaussatlas.channels import Kind
from gaussatlas.verify import (
    CRITERIA,
    SUITES,
    convention_pins,
    run_suite,
)


# the oracle and orbit criteria share their samplers with later criteria; a change
# to a sampler must not move the channels these five check
_PINNED_SAMPLES = {
    "criterion_5": "2500 channels",
    "criterion_6": "2144 channels",
    "criterion_7": "1645 random EB channels",
    "criterion_10": "2000 channels (490 I, 346 II, 554 III_rank1, 610 III_zero)",
    "criterion_11": "2000 channels (750 I, 448 II, 400 III_rank1, 402 III_zero)",
}


@pytest.mark.parametrize("criterion", CRITERIA,
                         ids=[f"{i + 1}_{c.__name__}" for i, c in enumerate(CRITERIA)])
def test_acceptance_criterion(criterion, capsys):
    res = criterion()
    with capsys.disabled():
        number = criterion.__name__.split("_")[-1]
        print(f"\nACCEPT {number} {'PASS' if res.ok else 'FAIL'} {res.name}: {res.detail}")
    assert res.ok, f"{res.name}: {res.detail}"
    sample = _PINNED_SAMPLES.get(criterion.__name__)
    assert sample is None or res.detail.startswith(sample + ", "), res.detail


def test_convention_pins(capsys):
    res = convention_pins()
    with capsys.disabled():
        print(f"\nACCEPT pins {'PASS' if res.ok else 'FAIL'} {res.name}: {res.detail}")
    assert res.ok, f"{res.name}: {res.detail}"


def test_oracle_check_counts_and_bounds_the_time_from_the_first_draw(monkeypatch):
    reps = [SimpleNamespace(eb=eb) for eb in (True, False, True)]
    kinds = (Kind.I, Kind.II, Kind.I)

    def check(oracle, seconds, mix=True):
        clock = iter([0.0, seconds])
        monkeypatch.setattr(verify, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
        return verify._oracle_check("stub", ((kind, rep, rep) for kind, rep in zip(kinds, reps)),
                                    "eb", oracle, mix)

    mix = "3 channels (2 I, 1 II, 0 III_rank1, 0 III_zero)"
    assert check(lambda ch: True, 9.9) == verify.CheckResult(
        "stub", False, f"{mix}, 1 oracle mismatches, 1 false-EB verdicts, 9.9 s")
    assert check(lambda ch: ch.eb, 10.0) == verify.CheckResult(
        "stub", False, f"{mix}, 0 oracle mismatches, 0 false-EB verdicts, 10.0 s")
    assert check(lambda ch: ch.eb, 9.9, mix=False) == verify.CheckResult(
        "stub", True, "3 channels, 0 oracle mismatches, 0 false-EB verdicts, 9.9 s")


def test_suite_registry_is_consistent(monkeypatch):
    assert len(SUITES["table1"]) == 3
    assert all(fn is crit for fn, crit in zip(SUITES["table1"], CRITERIA[:3]))
    checks = CRITERIA + (convention_pins,)
    assert len({id(fn) for fn in checks}) == len(checks)
    for suite in SUITES.values():
        assert all(any(fn is check for check in checks) for fn in suite)
    assert len(SUITES["all"]) == len(checks)
    assert all(fn is check for fn, check in zip(SUITES["all"], checks))
    # run_suite calls each registered check once, in order
    monkeypatch.setitem(SUITES, "stub", (lambda: "first", lambda: "second"))
    assert run_suite("stub") == ["first", "second"]
    with pytest.raises(KeyError):
        run_suite("nope")
