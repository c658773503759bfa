"""Channel container, canonical reduction, and the two action paths."""

import copy
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussatlas import _kernels
from gaussatlas.breaking import report
from gaussatlas.channels import (
    CanonicalForm,
    Channel,
    Kind,
    act_chargrid,
    act_variance,
    canonical_channel,
    canonical_reduce,
    compose_post_unitary,
    compose_pre_unitary,
    is_cp,
    kind_from_label,
    rotation,
    symplectic_check,
)
from gaussatlas.phase_space import GridSpec, char_fock1, char_gaussian, char_vacuum, convert_order

ATOL = 1e-12
SIGMA3 = np.diag([1.0, -1.0])
WITNESS_TOL = 1e-10


def _squeeze(r):
    """The squeeze symplectic diag(e^-r, e^r)."""
    return np.diag([np.exp(-r), np.exp(r)])


def _cp_defect(ch):
    """The smallest eigenvalue of the CP matrix Y + i (1 - det X) sigma, by the closed form."""
    y11, y12, _, y22 = ch._y
    return _kernels.eig2(y11, y12, y22, 1.0 - ch.det_x)[1]


def _rank(X):
    """The numerical rank of X that canonical_reduce reads off, from its kind.

    The rank rule reads X / max|X|, which a power-of-two rescale of a
    normal X leaves bit for bit; an X whose det X or gain squared
    overflows is rescaled to max|X| in [1/2, 1) and reduced again.
    """
    try:
        kind = canonical_reduce(Channel(X=X, Y=np.eye(2))).kind
    except ValueError:
        X = np.ldexp(X, -np.frexp(np.abs(X).max())[1])
        kind = canonical_reduce(Channel(X=X, Y=np.eye(2))).kind
    return {Kind.III_ZERO: 0, Kind.III_RANK1: 1}.get(kind, 2)


class TestChannelContainer:
    def test_validates_shape_and_finiteness(self):
        with pytest.raises(ValueError):
            Channel(X=np.eye(3), Y=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            Channel(X=np.array([[np.nan, 0.0], [0.0, 1.0]]), Y=np.zeros((2, 2)))

    def test_rejects_asymmetric_or_indefinite_noise(self):
        with pytest.raises(ValueError):
            Channel(X=np.eye(2), Y=np.array([[1.0, 0.5], [0.2, 1.0]]))
        with pytest.raises(ValueError):
            Channel(X=np.eye(2), Y=np.diag([1.0, -0.1]))

    def test_symmetrizes_tiny_asymmetry(self):
        y = np.array([[1.0, 0.3 + 1e-14], [0.3, 1.0]])
        ch = Channel(X=np.eye(2), Y=y)
        assert ch.Y[0, 1] == ch.Y[1, 0]

    def test_arrays_are_frozen(self):
        ch = Channel(X=np.eye(2), Y=np.eye(2))
        with pytest.raises(ValueError):
            ch.X[0, 0] = 5.0

    def test_keeps_the_validated_entries_as_float_tuples(self):
        # row-major, with the bits of the read-only arrays (Y symmetrised, -0.0 kept)
        ch = Channel(X=[[1, -0.0], [0.5, 3]], Y=np.array([[1.0, 0.3 + 1e-14], [0.3, 2.0]]))
        for entries, M in ((ch._x, ch.X), (ch._y, ch.Y)):
            assert type(entries) is tuple and all(type(v) is float for v in entries)
            assert np.array(entries).tobytes() == M.tobytes()
            assert not M.flags.writeable

    @pytest.mark.parametrize("again", [lambda ch: pickle.loads(pickle.dumps(ch)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    @pytest.mark.parametrize("X, Y", [([[1, -0.0], [0.5, 3]], [[2.0, 0.3 + 1e-14], [0.3, 2.5]]),
                                      (0.8 * SIGMA3, np.eye(2))])  # CP, and not CP
    def test_copies_are_rebuilt_with_read_only_arrays(self, again, X, Y):
        ch = Channel(X=X, Y=Y)
        ch.X, ch.Y  # build the arrays before copying
        copied = again(ch)
        for M in (copied.X, copied.Y):
            assert not M.flags.writeable
            with pytest.raises(ValueError):
                M[0, 0] = 5.0
        for a, b in ((copied._x, ch._x), (copied._y, ch._y)):
            assert np.array(a).tobytes() == np.array(b).tobytes()
        assert copied._cp is is_cp(ch) is is_cp(copied)
        assert (copied._noise, copied.det_x) == (ch._noise, ch.det_x)  # measured again, equal

    @pytest.mark.parametrize("diag", [(5e-324, 0.0), (0.0, 5e-324)])
    def test_accepts_least_subnormal_noise(self, diag):
        ch = Channel(X=np.eye(2), Y=np.diag(diag))
        form = canonical_reduce(ch)
        assert (form.a, form.b) == (5e-324, 0.0)

    def test_det_x(self):
        ch = Channel(X=np.array([[1.0, 2.0], [0.5, 3.0]]), Y=np.zeros((2, 2)))
        assert abs(ch.det_x - 2.0) < ATOL

    def test_json_round_trip(self):
        ch = Channel(X=0.6 * np.eye(2), Y=np.diag([2.0, 3.0]))
        again = Channel.from_json(json.dumps({"X": ch.X.tolist(), "Y": ch.Y.tolist()}))
        np.testing.assert_array_equal(again.X, ch.X)
        np.testing.assert_array_equal(again.Y, ch.Y)

    def test_json_rejects_malformed(self):
        with pytest.raises(ValueError):
            Channel.from_json('{"X": [[1, 0], [0, 1]]}')
        with pytest.raises(ValueError):
            Channel.from_json('[1, 2, 3]')
        with pytest.raises(ValueError):
            Channel.from_json('{"X": [[1, 0], [0, 1]], "Y": [[1, 0.1], [0.2, 1]]}')

    def test_json_asymmetry_tolerance_scales_with_noise(self):
        # |Y12 - Y21| = 1e-8 on a noise scale of 1e6 is within the
        # constructor's relative tolerance, so the JSON path accepts it too
        y = [[1e6, 0.5], [0.50000001, 2e6]]
        direct = Channel(X=np.eye(2), Y=np.array(y))
        loaded = Channel.from_json(json.dumps({"X": [[1, 0], [0, 1]], "Y": y}))
        np.testing.assert_array_equal(loaded.Y, direct.Y)


def _validated_before(M):
    """The numpy expression that validated a block before Channel kept floats, or None.

    np.array(M, dtype=float) of shape (2, 2) with finite entries; whatever
    it raised (a TypeError, numpy's ValueError on a ragged nesting, an
    OverflowError on a huge integer) refused the block.
    """
    try:
        A = np.array(M, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None
    return A if A.shape == (2, 2) and np.isfinite(A).all() else None


_stack = np.arange(24.0).reshape(3, 2, 4)[:, :, ::2]  # rows as audit passes them, strided
_BLOCKS = [
    [[1, 0], [0, 1]], ((1.5, -0.0), (0.0, 2.0)), [(3, 1), [1, 3]],
    np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([[2.0, 0.5], [0.5, 1.0]], np.float32),
    np.array([[4, 1], [1, 3]]), np.array([[4, 1], [1, 3]], np.int8), _stack[1], _stack[2].T,
    [[True, False], [False, True]], np.eye(2, dtype=bool), [[-0.0, -0.0], [-0.0, -0.0]],
    [[5e-324, 0.0], [0.0, 1e-310]], [[1e308, 0.0], [0.0, 1e308]], [[1e308, -1e308], [0, 1]],
    [[2 ** 60 + 1, 0], [0, 1]], [[10 ** 308, 0], [0, 1]], [[10 ** 400, 0], [0, 1]],
    [[math.nan, 0.0], [0.0, 1.0]], [[math.inf, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, -math.inf]],
    np.eye(3), [[1, 0, 0], [0, 1, 0]], np.ones((2, 2, 1)), [[1, 2], [3]], [[1], [2, 3]],
    [1, 2, 3, 4], [1, 2], 5.0, np.float64(2.0), np.array(2.0), [], [[], []], None,
    {"a": 1, "b": 2}, [[{}, 0], [0, 1]], [[None, 0], [0, 1]], [[[1, 2], 0], [0, 1]],
]


class TestValidationParity:
    # Channel validates on Python floats; it must accept what the numpy
    # expression accepted, with the same bits, and refuse the rest
    @pytest.mark.parametrize("block", _BLOCKS, ids=range(len(_BLOCKS)))
    def test_x_block(self, block):
        want = _validated_before(block)
        if want is None:
            with pytest.raises(ValueError, match="^X must be (a 2x2 real matrix|finite)$"):
                Channel(X=block, Y=np.eye(2))
            return
        ch = Channel(X=block, Y=np.eye(2))
        assert all(type(v) is float for v in ch._x)
        assert np.array(ch._x).tobytes() == want.tobytes() == ch.X.tobytes()

    @pytest.mark.parametrize("block", _BLOCKS, ids=range(len(_BLOCKS)))
    def test_y_block(self, block):
        want = _validated_before(block)
        if want is not None:  # the symmetry and PSD tests, and the stored midpoint
            (y11, y12), (y21, y22) = want.tolist()
            scale = max(1.0, abs(y11), abs(y12), abs(y21), abs(y22))
            mid = y12 + 0.5 * (y21 - y12)
            want = np.array([[y11, mid], [mid, y22]])
            if abs(y12 - y21) > 1e-12 * scale or np.linalg.eigvalsh(want)[0] < -1e-9 * scale:
                want = None
        if want is None:
            with pytest.raises(ValueError, match="^Y must be"):
                Channel(X=np.eye(2), Y=block)
            return
        ch = Channel(X=np.eye(2), Y=block)
        assert all(type(v) is float for v in ch._y)
        assert np.array(ch._y).tobytes() == want.tobytes() == ch.Y.tobytes()

    def test_cli_refusals_exit_2(self, tmp_path, capsys):
        from gaussatlas.cli import main

        path = tmp_path / "channel.json"
        for block in ("[[1, 0], [0]]", "[[1, 0, 0], [0, 1, 0]]", "5", "{}", '[[1, "0"], [0, 1]]',
                      "[[null, 0], [0, 1]]", "[[1, 0], [0, 1e400]]",
                      "[[1" + "0" * 400 + ", 0], [0, 1]]"):
            path.write_text(f'{{"X": {block}, "Y": [[1, 0], [0, 1]]}}')
            assert main(["classify", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: invalid channel descriptor: X must be")
            assert err.count("\n") == 1


class TestKindsAndRank:
    def test_kind_labels(self):
        assert kind_from_label("I") is Kind.I
        assert kind_from_label("III") is Kind.III_RANK1
        assert kind_from_label("III_zero") is Kind.III_ZERO
        assert kind_from_label(Kind.II) is Kind.II
        with pytest.raises(ValueError):
            kind_from_label("IV")

    def test_kind_follows_the_numerical_rank(self):
        assert _rank(np.eye(2)) == 2
        assert _rank(np.diag([0.7, 0.0])) == 1
        assert _rank(np.zeros((2, 2))) == 0
        assert _rank(1e-200 * np.eye(2)) == 0
        assert _rank(np.array([[1.0, 1.0], [1.0, 1.0]])) == 1
        # full-rank X past the double range: test_refuses_overflowing_det

    def test_kind_matches_svd_rank_rule_over_scales(self):
        def svd_rule(X):
            s = np.linalg.svd(X, compute_uv=False)
            return 0 if s[0] <= 1e-150 else 1 if s[1] <= 1e-10 * s[0] else 2

        rng = np.random.default_rng(41)
        for exponent in range(-149, 301, 3):
            for ratio in (0.0, 1e-13, 1e-11, 2e-11, 5e-10, 1e-8, 1e-3):
                U, V = rotation(rng.uniform(0, np.pi)), rotation(rng.uniform(0, np.pi))
                flip = np.diag([1.0, rng.choice([-1.0, 1.0])])
                s1 = 10.0 ** exponent * rng.uniform(1.0, 10.0)
                X = U @ np.diag([s1, ratio * s1]) @ flip @ V.T
                if ratio == 0.0:  # a rank-one outer product u v^T
                    X = np.outer(rng.normal(size=2), rng.normal(size=2)) * 10.0 ** exponent
                assert _rank(X) == svd_rule(X), (exponent, ratio)

    def test_canonical_channel_needs_kappa_for_full_rank(self):
        with pytest.raises(ValueError):
            canonical_channel(Kind.I, 2.0, 2.0)
        with pytest.raises(ValueError):
            canonical_channel(Kind.II, 2.0, 2.0, kappa=0.0)
        ch = canonical_channel(Kind.III_RANK1, 2.0, 1.0)
        np.testing.assert_array_equal(ch.X, np.diag([1.0, 0.0]))
        assert canonical_channel(Kind.III_ZERO, 2.0, 1.0).det_x == 0.0

    def test_canonical_channel_matrices(self):
        ch = canonical_channel("II", 3.0, 2.0, kappa=0.8)
        np.testing.assert_allclose(ch.X, 0.8 * SIGMA3, atol=ATOL)
        np.testing.assert_allclose(ch.Y, np.diag([3.0, 2.0]), atol=ATOL)


class TestCanonicalReduce:
    @pytest.mark.parametrize("X", [1e160 * np.eye(2), 1e160 * rotation(0.3),
                                   1e300 * _squeeze(2.0), 1.7e308 * rotation(0.7)])
    def test_refuses_overflowing_det(self, X):
        # the rank rule reads X / max|X|, so these reach the full-rank branch
        with pytest.raises(ValueError, match="det X overflows"):
            canonical_reduce(Channel(X=X, Y=np.eye(2)))

    def test_refuses_overflowing_rank_one_gain(self):
        # kappa^2 past the double range, rotated and on the axes; just below, it reduces
        for X in (np.full((2, 2), 1e160), np.diag([1e200, 0.0])):
            with pytest.raises(ValueError, match="gain is out of range"):
                canonical_reduce(Channel(X=X, Y=np.eye(2)))
        form = canonical_reduce(Channel(X=np.full((2, 2), 5e153), Y=np.eye(2)))
        assert form.kind is Kind.III_RANK1 and math.isclose(form.kappa, 1e154)

    def test_scaled_identity_with_diagonal_noise(self):
        form = canonical_reduce(Channel(X=0.6 * np.eye(2), Y=np.diag([2.0, 3.0])))
        assert form.kind is Kind.I
        assert abs(form.kappa - 0.6) < ATOL
        assert abs(form.a - 3.0) < ATOL and abs(form.b - 2.0) < ATOL
        np.testing.assert_allclose(form.y_canonical, np.diag([3.0, 2.0]), atol=ATOL)

    def test_squeeze_absorbed_into_witness(self):
        form = canonical_reduce(Channel(X=np.diag([2.0, 0.5]), Y=np.eye(2)))
        assert form.kind is Kind.I
        assert abs(form.kappa - 1.0) < ATOL
        assert abs(form.a - 1.0) < ATOL and abs(form.b - 1.0) < ATOL

    def test_reflection_gives_kind_ii(self):
        form = canonical_reduce(Channel(X=0.8 * SIGMA3, Y=np.diag([3.0, 2.0])))
        assert form.kind is Kind.II
        assert abs(form.kappa - 0.8) < ATOL
        np.testing.assert_allclose(form.x_canonical, 0.8 * SIGMA3, atol=ATOL)

    def test_rank_one_gain(self):
        Y = np.array([[2.0, 0.5], [0.5, 1.0]])
        form = canonical_reduce(Channel(X=np.diag([0.7, 0.0]), Y=Y))
        assert form.kind is Kind.III_RANK1
        assert abs(form.kappa - 0.7) < ATOL
        np.testing.assert_array_equal(form.x_canonical, np.diag([1.0, 0.0]))
        # y_canonical stays full symmetric here; (a, b) are its eigenvalues
        evals = np.sort(np.linalg.eigvalsh(form.y_canonical))[::-1]
        assert abs(form.a - evals[0]) < ATOL and abs(form.b - evals[1]) < ATOL

    def test_zero_gain(self):
        Y = np.array([[2.0, 0.5], [0.5, 1.0]])
        form = canonical_reduce(Channel(X=np.zeros((2, 2)), Y=Y))
        assert form.kind is Kind.III_ZERO
        assert form.kappa == 0.0
        np.testing.assert_array_equal(form.S, np.eye(2))
        want = 1.5 + np.hypot(0.5, 0.5)
        assert abs(form.a - want) < ATOL

    def test_small_eigenvalue_survives_lopsided_noise(self):
        # b = det Y / a, not mean - spread, which cancels to 0 once a/b nears 1/eps
        eps = np.finfo(float).eps
        for kind in Kind:
            for k in range(1, 301):
                form = canonical_reduce(canonical_channel(kind, 10.0 ** k, 2.0, kappa=0.5))
                assert abs(form.a - 10.0 ** k) <= 2.0 * eps * 10.0 ** k
                assert abs(form.b - 2.0) <= 4.0 * eps * 2.0, (kind, k, form.b)

    def test_witness_identities_random(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            X = rng.normal(size=(2, 2))
            A = rng.normal(size=(2, 2))
            ch = Channel(X=X, Y=A @ A.T)
            form = canonical_reduce(ch)
            scale = max(1.0, np.abs(form.S).max() * np.abs(X).max())
            assert np.abs(form.S @ ch.X @ form.R - form.x_canonical).max() < WITNESS_TOL * scale
            assert np.abs(form.R.T @ ch.Y @ form.R - form.y_canonical).max() < WITNESS_TOL * max(1.0, np.abs(ch.Y).max())
            assert abs(np.linalg.det(form.S) - 1.0) < WITNESS_TOL * max(1.0, np.abs(form.S).max() ** 2)
            assert np.abs(form.R.T @ form.R - np.eye(2)).max() < WITNESS_TOL
            det = np.linalg.det(X)
            assert form.kind is (Kind.I if det > 0 else Kind.II)
            assert form.a >= form.b

    def test_matches_numpy_reference_over_scales(self):
        # the float reduction against LAPACK: kappa from np.linalg.svd, (a, b)
        # from eigvalsh, for all four kinds over X scales 1e-150 to 1e150, with
        # rank-one outer products and noise up to 1e12 times lopsided
        rng = np.random.default_rng(61)
        for exponent in range(-150, 151, 5):
            for kind in Kind:
                U, V = rotation(rng.uniform(-np.pi, np.pi)), rotation(rng.uniform(-np.pi, np.pi))
                sv = np.diag([1.0, rng.uniform(0.01, 1.0)]) * rng.uniform(1.0, 10.0)
                X = 10.0 ** exponent * {
                    Kind.I: U @ sv @ V,
                    Kind.II: U @ sv @ SIGMA3 @ V,
                    Kind.III_RANK1: np.outer(rng.normal(size=2), rng.normal(size=2)),
                    Kind.III_ZERO: np.zeros((2, 2)),
                }[kind]
                noise = rng.uniform(0.1, 10.0, 2) * [10.0 ** rng.uniform(0.0, 12.0), 1.0]
                lopsided = np.diag(rng.permutation(noise))
                Q = rotation(rng.uniform(-np.pi, np.pi))
                turned = Q @ np.diag([rng.uniform(1.0, 10.0), 1.0]) @ Q.T
                for Y in (lopsided, turned):
                    ch = Channel(X=X, Y=Y)
                    form = canonical_reduce(ch)
                    assert form.kind is kind, (exponent, kind)
                    s1, s2 = np.linalg.svd(X, compute_uv=False)
                    kappa = {Kind.I: np.sqrt(s1 * s2), Kind.II: np.sqrt(s1 * s2),
                             Kind.III_RANK1: s1, Kind.III_ZERO: 0.0}[kind]
                    b, a = np.linalg.eigvalsh(ch.Y)
                    for got, want in ((form.kappa, kappa), (form.a, a), (form.b, b)):
                        assert abs(got - want) <= 1e-13 * want, (exponent, kind, got, want)
                    scale = max(1.0, np.abs(form.S).max() * np.abs(X).max())
                    x_can = {Kind.I: kappa * np.eye(2), Kind.II: kappa * SIGMA3,
                             Kind.III_RANK1: np.diag([1.0, 0.0]), Kind.III_ZERO: np.zeros((2, 2))}
                    np.testing.assert_allclose(form.x_canonical, x_can[kind], rtol=1e-13)
                    if kind is not Kind.III_RANK1:
                        np.testing.assert_array_equal(form.y_canonical, np.diag([form.a, form.b]))
                    assert np.abs(form.S @ X @ form.R - form.x_canonical).max() < \
                        WITNESS_TOL * scale
                    assert np.abs(form.R.T @ ch.Y @ form.R - form.y_canonical).max() < \
                        WITNESS_TOL * max(1.0, np.abs(ch.Y).max())
                    assert abs(np.linalg.det(form.S) - 1.0) < \
                        WITNESS_TOL * max(1.0, np.abs(form.S).max() ** 2)
                    assert np.abs(form.R.T @ form.R - np.eye(2)).max() < WITNESS_TOL

    def test_kappa_of_full_rank_x_has_the_lapack_determinant_bits(self):
        rng = np.random.default_rng(62)
        for _ in range(2000):
            X = rng.normal(size=(2, 2)) * 10.0 ** rng.uniform(-5.0, 5.0)
            form = canonical_reduce(Channel(X=X, Y=np.eye(2)))
            if form.kind in (Kind.I, Kind.II):
                assert form.kappa == np.sqrt(abs(np.linalg.det(X)))

    def test_overflowing_noise_is_refused(self):
        with pytest.raises(ValueError, match="noise"):
            canonical_reduce(Channel(X=np.eye(2), Y=np.full((2, 2), 1e308)))

    @settings(deadline=None, max_examples=50)
    @given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
           st.floats(-3.0, 3.0), st.floats(0.1, 4.0), st.floats(0.1, 4.0))
    def test_witnesses_hold_over_parameter_box(self, x11, x12, x21, x22, y1, y2):
        X = np.array([[x11, x12], [x21, x22]])
        ch = Channel(X=X, Y=np.diag([y1, y2]))
        form = canonical_reduce(ch)
        if form.kind not in (Kind.I, Kind.II):
            return
        scale = max(1.0, np.abs(form.S).max() * np.abs(X).max())
        assert np.abs(form.S @ ch.X @ form.R - form.x_canonical).max() < 1e-8 * scale

    def test_invariants_under_pre_unitary(self):
        ch = Channel(X=np.array([[0.9, 0.2], [-0.1, 0.7]]), Y=np.diag([2.0, 1.5]))
        base = canonical_reduce(ch)
        S = rotation(0.7) @ _squeeze(0.5)
        moved = canonical_reduce(compose_pre_unitary(ch, S))
        assert moved.kind is base.kind
        assert abs(moved.kappa - base.kappa) < 1e-10
        assert abs(moved.a - base.a) < 1e-10 and abs(moved.b - base.b) < 1e-10

    def test_invariants_under_post_rotation(self):
        ch = Channel(X=np.array([[0.9, 0.2], [-0.1, 0.7]]), Y=np.diag([2.0, 1.5]))
        base = canonical_reduce(ch)
        moved = canonical_reduce(compose_post_unitary(ch, rotation(1.1)))
        assert moved.kind is base.kind
        assert abs(moved.kappa - base.kappa) < 1e-10
        assert abs(moved.a - base.a) < 1e-10 and abs(moved.b - base.b) < 1e-10


class TestCompletePositivity:
    def test_cp_defect_matches_hermitian_eigvalsh(self):
        sigma = np.array([[0.0, 1.0], [-1.0, 0.0]])
        rng = np.random.default_rng(43)
        for y_scale in (1e-6, 1e-3, 1.0, 1e3, 1e6):
            for k in range(40):
                S = rotation(rng.uniform(0, np.pi)) @ _squeeze(rng.uniform(-2, 2))
                # every fourth X is symplectic, det X = 1, so beta = 0
                X = S if k % 4 == 0 else rng.normal(size=(2, 2)) * rng.uniform(0.1, 3.0)
                A = rng.normal(size=(2, 2))
                Y = y_scale * (A @ A.T)
                ch = Channel(X=X, Y=Y)
                ref = np.linalg.eigvalsh(ch.Y + 1j * (sigma - X @ sigma @ X.T))[0]
                scale = max(1.0, np.abs(ch.Y).max(), abs(1.0 - np.linalg.det(X)))
                assert abs(_cp_defect(ch) - ref) <= 1e-13 * scale, (y_scale, k)

    def test_identity_channel_boundary(self):
        ch = Channel(X=np.eye(2), Y=np.zeros((2, 2)))
        assert abs(_cp_defect(ch)) < 1e-10
        assert is_cp(ch)

    def test_phase_flip_is_not_cp(self):
        ch = Channel(X=SIGMA3, Y=np.zeros((2, 2)))
        assert abs(_cp_defect(ch) + 2.0) < 1e-10
        assert not is_cp(ch)

    def test_attenuator_noise_boundary(self):
        # kappa = 0.6 needs exactly (1 - kappa^2) = 0.64 units of noise
        assert is_cp(Channel(X=0.6 * np.eye(2), Y=0.64 * np.eye(2)))
        assert not is_cp(Channel(X=0.6 * np.eye(2), Y=0.60 * np.eye(2)))

    def test_amplifier_noise_boundary(self):
        # kappa^2 = 2 needs kappa^2 - 1 = 1 unit of noise
        assert is_cp(Channel(X=np.sqrt(2.0) * np.eye(2), Y=np.eye(2)))
        assert not is_cp(Channel(X=np.sqrt(2.0) * np.eye(2), Y=0.9 * np.eye(2)))

    def test_verdict_is_computed_once_per_channel(self, monkeypatch):
        # a channel is immutable, so is_cp and the oracles, which refuse a
        # non-CP channel, all read one verdict computed at construction
        from gaussatlas.breaking import eb_oracle_tmsv, ncb_oracle_gaussian
        seen = []
        real = _kernels.herm2_psd
        monkeypatch.setattr(_kernels, "herm2_psd", lambda *args: seen.append(args) or real(*args))
        ch = Channel(X=SIGMA3, Y=np.zeros((2, 2)))
        for _ in range(3):
            assert is_cp(ch) is False
        for oracle in (ncb_oracle_gaussian, eb_oracle_tmsv):
            with pytest.raises(ValueError, match="completely positive"):
                oracle(ch)
        assert seen == [(0.0, 0.0, 0.0, 2.0)]
        assert is_cp(Channel(X=np.eye(2), Y=np.eye(2))) and len(seen) == 2

    def test_noise_is_measured_once_per_channel(self, monkeypatch):
        # the constructor's PSD check measures Y's eigenvalues, and the reduction
        # reads them off the channel; det X = 0.62, so no CP or PPT test has beta = 0
        from gaussatlas.breaking import eb_oracle_tmsv, ncb_oracle_gaussian
        y = (2.5, 0.3, 0.3, 1.75)
        seen = []
        real = _kernels.eig2
        monkeypatch.setattr(_kernels, "eig2", lambda *args: seen.append(args) or real(*args))
        ch = Channel(X=[[0.8, 0.1], [-0.2, 0.75]], Y=[y[:2], y[2:]])
        report(ch)
        canonical_reduce(ch)
        ncb_oracle_gaussian(ch)
        eb_oracle_tmsv(ch)
        is_cp(ch)
        assert seen.count((y[0], y[1], y[3], 0.0)) == 1

    def test_overflowing_det_is_not_cp(self):
        for scale in (1e155, 1e160):
            assert is_cp(Channel(X=scale * np.eye(2), Y=np.eye(2))) is False

    @pytest.mark.parametrize("u", [6.0, -6.0])
    def test_lopsided_noise_below_the_bound_is_not_cp(self, u):
        # kind II, kappa = 2, a/b = e^{2u}, ab a relative 1e-4 below (1 + kappa^2)^2:
        # _cp_defect -1.2e-6 is far past rounding, though a slack of 1e-9 max|Y|
        # (2e-6) would hide it
        root = math.sqrt(25.0 * (1.0 - 1e-4))
        ch = canonical_channel(Kind.II, root * math.exp(u), root * math.exp(-u), kappa=2.0)
        assert not report(ch).cp
        assert is_cp(ch) is False

    def test_boundary_channels_behind_unitaries_are_cp(self):
        # kinds I and II with ab exactly at the CP bound, gains up to 1e4
        rng = np.random.default_rng(316)
        for k in range(400):
            kind = (Kind.I, Kind.II)[k % 2]
            kappa = float(np.exp(rng.uniform(math.log(0.1), math.log(1e4))))
            root = abs(1.0 - kappa ** 2) if kind is Kind.I else 1.0 + kappa ** 2
            u = rng.uniform(-3.0, 3.0)
            ch = canonical_channel(kind, root * math.exp(u), root * math.exp(-u), kappa=kappa)
            S = rotation(rng.uniform(0, np.pi)) @ _squeeze(rng.uniform(-1, 1)) \
                @ rotation(rng.uniform(0, np.pi))
            ch = compose_post_unitary(compose_pre_unitary(ch, S), rotation(rng.uniform(0, np.pi)))
            assert is_cp(ch), (kind, kappa, u)

    def test_reflection_needs_more_noise(self):
        # det X < 0 raises the requirement to 1 + kappa^2
        kappa = 0.8
        assert is_cp(Channel(X=kappa * SIGMA3, Y=(1.0 + kappa ** 2) * np.eye(2)))
        assert not is_cp(Channel(X=kappa * SIGMA3, Y=(1.0 + kappa ** 2 - 0.01) * np.eye(2)))


class TestActVariance:
    def test_attenuator_fixes_vacuum(self):
        t = 0.36
        ch = Channel(X=np.sqrt(t) * np.eye(2), Y=(1.0 - t) * np.eye(2))
        np.testing.assert_allclose(act_variance(ch, np.eye(2)), np.eye(2), atol=ATOL)

    def test_general_congruence(self):
        ch = Channel(X=np.array([[0.5, 0.1], [0.0, 0.8]]), Y=np.diag([1.0, 2.0]))
        S = rotation(0.2) @ _squeeze(-0.4)
        V = S @ S.T  # squeezed vacuum
        got = act_variance(ch, V)
        np.testing.assert_allclose(got, ch.X.T @ V @ ch.X + ch.Y, atol=ATOL)

    def test_refuses_non_cp(self):
        ch = Channel(X=SIGMA3, Y=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            act_variance(ch, np.eye(2))


class TestActChargrid:
    def test_identity_channel_is_identity(self):
        g = char_fock1(0.0, GridSpec(side=65, extent=6.0))
        out = act_chargrid(Channel(X=np.eye(2), Y=np.zeros((2, 2))), g)
        np.testing.assert_allclose(out.values, g.values, atol=1e-12)

    def test_pure_noise_multiplies_envelope(self):
        g = char_vacuum(0.0, GridSpec(side=65, extent=6.0))
        Y = np.diag([1.5, 2.5])
        out = act_chargrid(Channel(X=np.eye(2), Y=Y), g)
        x1, x2 = np.meshgrid(g.axis, g.axis, indexing="ij")
        env = np.exp(-0.5 * (1.5 * x1 ** 2 + 2.5 * x2 ** 2))
        np.testing.assert_allclose(out.values, g.values * env, atol=1e-12)

    def test_fock1_unit_gain_product_form(self):
        # after raising the order by one, the output factorizes as
        # (1 - r^2) exp(-(a xi1^2 + b xi2^2) / 2)
        a, b = 2.0, 3.0
        g = char_fock1(0.0, GridSpec(side=129, extent=8.0))
        out = act_chargrid(Channel(X=np.eye(2), Y=np.diag([a, b])), g)
        lifted = convert_order(out, 1.0)
        x1, x2 = np.meshgrid(g.axis, g.axis, indexing="ij")
        ref = (1.0 - x1 ** 2 - x2 ** 2) * np.exp(-0.5 * (a * x1 ** 2 + b * x2 ** 2))
        np.testing.assert_allclose(lifted.values.real, ref, atol=1e-10)
        assert np.abs(lifted.values.imag).max() < 1e-12

    def test_amplifier_matches_output_gaussian(self):
        ch = Channel(X=2.0 * np.eye(2), Y=3.5 * np.eye(2))
        g = char_vacuum(0.0, GridSpec(side=513, extent=8.0))
        out = act_chargrid(ch, g)
        ref = char_gaussian(act_variance(ch, np.eye(2)), 0.0, GridSpec(side=513, extent=8.0))
        assert np.abs(out.values - ref.values).max() < 1e-6

    def test_contraction_interpolates_smoothly(self):
        ch = Channel(X=0.5 * np.eye(2), Y=0.75 * np.eye(2))
        g = char_vacuum(0.0, GridSpec(side=513, extent=8.0))
        out = act_chargrid(ch, g)
        ref = char_gaussian(act_variance(ch, np.eye(2)), 0.0, GridSpec(side=513, extent=8.0))
        assert np.abs(out.values - ref.values).max() < 1e-6

    def test_refuses_unresolvable_expansion(self):
        # noiseless expansion maps nodes outside the support at full weight
        ch = Channel(X=np.sqrt(2.0) * np.eye(2), Y=np.eye(2))
        g = char_vacuum(0.0, GridSpec(side=65, extent=6.0))
        with pytest.raises(ValueError, match="grid extent"):
            act_chargrid(ch, g)

    def test_refuses_wrong_order_and_non_cp(self):
        g1 = char_vacuum(-1.0, GridSpec(side=65, extent=6.0))
        with pytest.raises(ValueError, match="s = 0"):
            act_chargrid(Channel(X=np.eye(2), Y=np.eye(2)), g1)
        g0 = char_vacuum(0.0, GridSpec(side=65, extent=6.0))
        with pytest.raises(ValueError, match="not completely positive"):
            act_chargrid(Channel(X=SIGMA3, Y=np.zeros((2, 2))), g0)


class TestSymplectic:
    def test_rotation_and_squeeze_are_symplectic(self):
        for theta in (0.0, 0.3, -1.2, np.pi):
            assert symplectic_check(rotation(theta))
        for r in (-1.5, 0.0, 0.7):
            assert symplectic_check(_squeeze(r))
        assert not symplectic_check(np.diag([2.0, 2.0]))

    @settings(deadline=None, max_examples=40)
    @given(r=st.floats(-2.0, 2.0), theta=st.floats(0.0, np.pi))
    def test_symplectic_conjugation_preserves_validity(self, r, theta):
        S = rotation(theta) @ _squeeze(r)
        assert symplectic_check(S)
        V = S.T @ np.eye(2) @ S
        sigma = np.array([[0.0, 1.0], [-1.0, 0.0]])  # single-mode symplectic form
        # the vacuum maps to a pure state: V + i sigma >= 0 with a zero eigenvalue
        defect = np.linalg.eigvalsh(V + 1j * sigma)[0]
        assert abs(defect) < 1e-8 * max(1.0, np.abs(V).max())

    def test_large_squeeze_is_symplectic(self):
        # det S rounds by a few eps times its products, about e^16 here: an
        # absolute 1e-12 slack on S^T Sigma S - Sigma refuses this S
        S = rotation(0.3) @ np.diag([np.exp(8.0), np.exp(-8.0)]) @ rotation(1.1)
        assert symplectic_check(S)
        ch = compose_pre_unitary(Channel(X=np.eye(2), Y=np.eye(2)), S)
        np.testing.assert_array_equal(ch.X, S)
        for bad in (2.0 * np.eye(2), np.diag([1.0, 2.0])):
            assert not symplectic_check(bad)
            with pytest.raises(ValueError, match="not symplectic"):
                compose_pre_unitary(ch, bad)

    def test_slack_follows_the_determinant_products(self):
        # 1e-12 absolute while every product is at most 1
        assert symplectic_check(np.diag([1.0 + 0.9e-12, 1.0]))
        assert not symplectic_check(np.diag([1.0 + 1.1e-12, 1.0]))
        # relative to the larger product, not to max|S_ij|^2
        assert symplectic_check(np.diag([1e200, 1e-200]))
        assert not symplectic_check(np.diag([1e13, 1.0]))
        # an overflowing or NaN product fails
        assert not symplectic_check(np.diag([1e200, 1e200]))
        assert not symplectic_check(np.diag([math.inf, 1.0]))
        assert not symplectic_check(np.diag([math.nan, 1.0]))

    def test_rotation_matrix(self):
        for theta in (0.0, 0.4, -2.5):
            c, s = np.cos(theta), np.sin(theta)
            np.testing.assert_array_equal(rotation(theta), [[c, -s], [s, c]])


class TestCompose:
    def test_pre_unitary_maps_gain(self):
        ch = Channel(X=0.7 * np.eye(2), Y=np.eye(2))
        S = _squeeze(0.3)
        out = compose_pre_unitary(ch, S)
        np.testing.assert_allclose(out.X, S @ ch.X, atol=ATOL)
        np.testing.assert_array_equal(out.Y, ch.Y)

    def test_post_unitary_maps_gain_and_noise(self):
        ch = Channel(X=0.7 * np.eye(2), Y=np.diag([2.0, 1.0]))
        S = rotation(0.5)
        out = compose_post_unitary(ch, S)
        np.testing.assert_allclose(out.X, ch.X @ S, atol=ATOL)
        np.testing.assert_allclose(out.Y, S.T @ ch.Y @ S, atol=ATOL)

    def test_rejects_non_symplectic(self):
        ch = Channel(X=np.eye(2), Y=np.eye(2))
        with pytest.raises(ValueError):
            compose_pre_unitary(ch, 2.0 * np.eye(2))
        with pytest.raises(ValueError):
            compose_post_unitary(ch, np.diag([1.0, 2.0]))

    def test_composition_matches_variance_action(self):
        ch = Channel(X=0.8 * np.eye(2), Y=0.5 * np.eye(2))
        S = rotation(0.4) @ _squeeze(0.2)
        V = _squeeze(-0.3) @ _squeeze(-0.3)  # squeezed vacuum
        left = act_variance(compose_pre_unitary(ch, S), V)
        right = act_variance(ch, S.T @ V @ S)
        np.testing.assert_allclose(left, right, atol=1e-12)
