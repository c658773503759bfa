"""Acceptance gate: every numbered verification criterion must pass.

Each criterion is an independent end-to-end check (closed forms against
brute-force oracles, reductions against witness identities, transforms
against analytic values) with its tolerance baked in.  One test per
criterion so a red line names the failing guarantee directly; the
terminal also gets an explicit ACCEPT line per criterion.
"""

import pytest

from gaussatlas.verify import CRITERIA, SUITES, convention_pins, run_suite


@pytest.mark.parametrize("criterion", CRITERIA,
                         ids=[f"{i + 1}_{c.__name__}" for i, c in enumerate(CRITERIA)])
def test_acceptance_criterion(criterion, capsys):
    res = criterion()
    with capsys.disabled():
        number = criterion.__name__.split("_")[-1]
        print(f"\nACCEPT {number} {'PASS' if res.ok else 'FAIL'} {res.name}: {res.detail}")
    assert res.ok, f"{res.name}: {res.detail}"


def test_convention_pins(capsys):
    res = convention_pins()
    with capsys.disabled():
        print(f"\nACCEPT pins {'PASS' if res.ok else 'FAIL'} {res.name}: {res.detail}")
    assert res.ok, f"{res.name}: {res.detail}"


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
