"""Known defects, each recorded as a strict xfail until its fix lands.

ROADMAP item 1 (verdicts in one unit, vacuum noise): today ``--tol`` and
the verdict margins mix noise and noise^2 units, and ``is_cp`` and the EB
oracle compare an eigenvalue with a slack that scales with max|Y|, so
the rounding of det S alone can make a squeezing unitary (S, 0) non-CP.

ROADMAP item 2 (exact verdicts of the stored floats): today the rank cut
TOL_RANK decides the kind, so ``report`` can call a matrix X of stored
det X far from 0 rank one.

Each test below states the behaviour the fix must give; a strict xfail
turns red the moment the defect is mended, so the marker is removed with it.
"""

import json
import math

import numpy as np
import pytest

from gaussatlas.breaking import report
from gaussatlas.channels import Channel, Kind, canonical_channel, is_cp, rotation, unitary
from gaussatlas.cli import main

ITEM_1 = pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")
ITEM_2 = pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 2")


@ITEM_1
@pytest.mark.parametrize("X, Y", [
    # classify says NCB and not EB
    ([[0.01, 0], [0, 0.01]], [[1, 0], [0, 1]]),
    # report says CP and is_cp does not
    ([[0.5, 0], [0, 0.5]], [[0.7499999, 0], [0, 0.7499999]]),
    # report says not CP, and the EB oracle says EB
    ([[0.5, 0], [0, 0.5]], [[1e8, 0], [0, 5e-9]]),
], ids=["small-gain-vacuum-noise", "just-below-cp", "lopsided-noise"])
def test_check_agrees(X, Y, tmp_path, capsys):
    path = tmp_path / "channel.json"
    path.write_text(json.dumps({"X": X, "Y": Y}))
    code = main(["check", str(path)])
    assert json.loads(capsys.readouterr().out)["agree"] is True
    assert code == 0


@ITEM_1
@pytest.mark.parametrize("kappa", [1e-2, 3e-3, 1e-3])
def test_ncb_implies_eb_near_unit_noise_at_small_gain(kappa):
    rep = report(canonical_channel(Kind.I, 1.0, 1.0, kappa))
    assert rep.eb or not rep.ncb


@ITEM_1
def test_whole_range_example_1_is_not_cp():
    # sqrt(det Y) = 0 while |1 - det X| is huge: report already says not CP
    ch = Channel(X=[[-1.8e50, 9.4e-159], [1.4e114, 2.0e-185]], Y=[[5.8e129, 0.0], [0.0, 0.0]])
    assert is_cp(ch) is False


@ITEM_1
def test_channels_on_the_eb_bound_are_eb():
    # a = e^u (1 + kappa^2) and b = (1 + kappa^2)^2 / a put ab on the EB bound up to
    # rounding, which an absolute tol on ab - bound stops absorbing as kappa grows
    rng = np.random.default_rng(2027)
    for kappa in (1.0, 1e1, 1e2, 1e3, 1e4):
        for u in rng.uniform(-3.0, 3.0, 200).tolist():
            a = math.exp(u) * (1.0 + kappa ** 2)
            assert report(canonical_channel(Kind.I, a, (1.0 + kappa ** 2) ** 2 / a, kappa)).eb, \
                (kappa, a)


@ITEM_1
def test_squeezing_unitaries_are_cp():
    # det S rounds about 1e-12 away from 1 at squeezes e^+-4, past herm2_psd's 16 eps
    # slack: is_cp says False for 530 of these 1000 unitaries, and report says CP for all
    rng = np.random.default_rng(0)
    for _ in range(1000):
        S = rotation(rng.uniform(-np.pi, np.pi)) @ np.diag([math.exp(4.0), math.exp(-4.0)]) \
            @ rotation(rng.uniform(-np.pi, np.pi))
        ch = unitary(S)
        assert is_cp(ch) is report(ch).cp is True, S.tolist()


@ITEM_2
def test_rank_cut_example_is_not_cp():
    # stored det X = -1.364e28, so not CP, as is_cp says; the rank cut calls X rank one
    ch = Channel(X=[[-3.1e-30, 4.2e15], [-5.1e-148, 4.4e57]], Y=[[1.0, 0.0], [0.0, 2.0]])
    assert report(ch).cp is False
