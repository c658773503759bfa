"""Closed-form breaking predicates, their oracles, orbits, and region atlas."""

import inspect
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussatlas import breaking
from gaussatlas.breaking import (
    REGION_LABELS,
    TOL_CLASS,
    _fmin,
    boundary_curves,
    eb_oracle_tmsv,
    find_r0,
    margins,
    ncb_eb_tangency,
    ncb_necessity_fock1,
    ncb_oracle_gaussian,
    region_sweep,
    report,
    squeeze_orbit,
)
from gaussatlas.channels import (
    CanonicalForm,
    Channel,
    Kind,
    canonical_channel,
    canonical_reduce,
    compose,
    is_cp,
    rotation,
    unitary,
)
from gaussatlas.cli import REGION_CSV_HEADER, main

ATOL = 1e-12
SIGMA3 = np.diag([1.0, -1.0])


def _squeeze(r):
    """The squeeze symplectic diag(e^-r, e^r)."""
    return np.diag([np.exp(-r), np.exp(r)])


def _form(kind, a, b, kappa=None):
    return canonical_reduce(canonical_channel(kind, a, b, kappa=kappa))


def _report(kind, a, b, kappa=None):
    return report(canonical_channel(kind, a, b, kappa=kappa))


def _ppt_longhand(ch, r):
    """Whether one arm of a two-mode squeezed vacuum of squeeze r comes out PPT.

    Builds the probe, the channel on mode 1 and the partial transpose on
    mode 2 as 4x4 matrices and asks LAPACK for the smallest eigenvalue of
    V^T2 + i Sigma, with a slack of 1e-9 max|V|.
    """
    c, s = math.cosh(2.0 * r), math.sinh(2.0 * r)
    Z = np.diag([1.0, -1.0])
    probe = np.block([[c * np.eye(2), s * Z], [s * Z, c * np.eye(2)]])
    X4 = np.block([[ch.X, np.zeros((2, 2))], [np.zeros((2, 2)), np.eye(2)]])
    out = X4.T @ probe @ X4
    out[:2, :2] += ch.Y
    flip = np.diag([1.0, 1.0, 1.0, -1.0])  # p2 -> -p2
    sigma = np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])  # two-mode symplectic form
    defect = np.linalg.eigvalsh(flip @ out @ flip + 1j * sigma)[0]
    return bool(defect >= -1e-9 * np.abs(out).max())


# signed zeros, NaNs of both signs, infinities, subnormals, the least normal
# double, and values whose products pass 1e308
_EDGE_FLOATS = (0.0, -0.0, 1.0, -1.0, 2.0, math.nan, -math.nan, math.inf, -math.inf,
                5e-324, -5e-324, 2.2250738585072014e-308, 1e154, 1e308, -1e308)


class TestMargins:
    def test_closed_forms_kind_i(self):
        m = margins(Kind.I, 0.6, 2.0, 3.0)
        assert abs(m["cp"] - (6.0 - 0.64 ** 2)) < ATOL
        assert abs(m["eb"] - (6.0 - 1.36 ** 2)) < ATOL
        assert abs(m["ncb"] - min(1.0, 2.0, 2.0 - 0.6 ** 4)) < ATOL

    def test_reflection_collapses_cp_to_eb(self):
        for k in (0.4, 0.8, 1.3):
            for a, b in [(1.2, 2.0), (3.0, 0.5)]:
                m = margins(Kind.II, k, a, b)
                assert m["cp"] == m["eb"]

    def test_kind_iii_margins(self):
        assert abs(margins(Kind.III_RANK1, 0.7, 2.0, 1.5)["cp"] - 2.0) < ATOL
        assert margins(Kind.III_ZERO, 0.0, 2.0, 1.5)["cp"] == \
            margins(Kind.III_RANK1, 0.7, 2.0, 1.5)["eb"]
        assert abs(margins(Kind.III_ZERO, 0.0, 2.0, 1.5)["ncb"] - 0.5) < ATOL

    def test_unit_gain_boundary_point(self):
        # a = b = 2 at unit gain sits on the NCB and EB boundaries at once
        m = margins(Kind.I, 1.0, 2.0, 2.0)
        assert abs(m["ncb"]) < ATOL
        assert abs(m["eb"]) < ATOL

    def test_attenuator_boundary_point(self):
        # a = b = 1 + kappa^2 is the double boundary for any gain
        k = 0.6
        v = 1.0 + k ** 2
        m = margins(Kind.I, k, v, v)
        assert abs(m["ncb"]) < ATOL
        assert abs(m["eb"]) < ATOL

    @settings(deadline=None, max_examples=150)
    @given(st.sampled_from([Kind.I, Kind.II, Kind.III_RANK1, Kind.III_ZERO]),
           st.floats(0.1, 2.0), st.floats(0.01, 6.0), st.floats(0.01, 6.0))
    def test_verdict_chain_is_nested(self, kind, kappa, a, b):
        m = margins(kind, kappa, a, b)
        ncb, eb, cp = (m[name] >= 0 for name in ("ncb", "eb", "cp"))
        assert (not ncb or eb) and (not eb or cp)

    def test_scalars_give_python_floats(self):
        for a, b in ((2.0, 3.0), (np.float64(2.0), np.float64(3.0)), (np.array(2.0), 3.0)):
            m = margins(Kind.I, 0.6, a, b)
            assert list(m) == ["cp", "eb", "ncb"]
            assert all(type(v) is float for v in m.values())

    @pytest.mark.parametrize("kind, kappa", [(Kind.I, 0.6), (Kind.III_ZERO, 0.0)])
    def test_nan_noise_gives_nan_margins(self, kind, kappa):
        # a NaN in a or in b reaches every margin, scalar or array: the ncb
        # minimum keeps the NaN rather than picking the other term
        for a, b in ((math.nan, 2.0), (2.0, math.nan)):
            assert all(math.isnan(v) for v in margins(kind, kappa, a, b).values())
        a, b = np.array([[math.nan], [3.0], [1.5]]), np.array([2.0, math.nan, 0.5])
        nan_at = np.isnan(a) | np.isnan(b)
        with np.errstate(invalid="ignore"):
            grids = margins(kind, kappa, a, b)
        for grid in grids.values():
            np.testing.assert_array_equal(np.isnan(grid), nan_at)

    def test_unit_noise_against_infinite_noise_gives_nan_ncb(self):
        # (a - 1)(b - 1) is 0 * inf at a = 1, b = inf, and its NaN wins the minimum
        m = margins(Kind.I, 1.0, 1.0, math.inf)
        assert m["cp"] == m["eb"] == math.inf and math.isnan(m["ncb"])
        with np.errstate(invalid="ignore"):
            grids = margins(Kind.I, 1.0, np.array([[1.0], [2.0]]), np.array([math.inf, 3.0]))
        np.testing.assert_array_equal(np.isnan(grids["ncb"]), [[True, False], [False, False]])
        assert np.isinf(grids["cp"][0, 0]) and np.isinf(grids["eb"][0, 0])

    def test_float_minimum_has_the_numpy_bits(self):
        # y unless x is smaller or NaN: np.minimum(0.0, -0.0) is -0.0, min(0.0, -0.0) is 0.0
        for x, y in itertools.product(_EDGE_FLOATS, repeat=2):
            assert np.float64(_fmin(x, y)).tobytes() == np.minimum(x, y).tobytes(), (x, y)

    @pytest.mark.parametrize("kind, kappa", [(Kind.I, 0.6), (Kind.II, 3.0),
                                             (Kind.III_RANK1, 0.7), (Kind.III_ZERO, 0.0)])
    def test_python_floats_give_the_numpy_scalar_bits(self, kind, kappa, monkeypatch):
        # two Python floats skip numpy; np.float64 inputs, or _fmin swapped back
        # for np.minimum, take numpy's minimum.  The one exception is the sign of
        # cp and eb at a NaN times a NaN: IEEE 754 leaves it open, and Python's
        # and numpy's scalar multiply differ there, a product this branch keeps.
        # CPython's own NaN * NaN depends on the path: its generic float multiply
        # returns the other NaN operand than the specialised one that takes over
        # once the instruction is warm, and np.float64 operands knock it back to
        # the generic path for up to 4095 executions.  So margins is warmed up on
        # Python floats first, and both Python-float runs go before the numpy one
        pairs = list(itertools.product(_EDGE_FLOATS, repeat=2))
        for _ in range(5000):
            margins(kind, kappa, 2.0, 3.0)
        got = [margins(kind, kappa, a, b) for a, b in pairs]
        monkeypatch.setattr(breaking, "_fmin", np.minimum)
        numpy_minimum = [margins(kind, kappa, a, b) for a, b in pairs]
        with np.errstate(all="ignore"):
            numpy_scalars = [margins(kind, kappa, np.float64(a), np.float64(b)) for a, b in pairs]
        for (a, b), g, s, m in zip(pairs, got, numpy_scalars, numpy_minimum):
            for name in g:
                bits = np.float64(g[name]).tobytes()
                assert bits == np.float64(m[name]).tobytes(), (a, b, name)
                if name == "ncb" or not (math.isnan(a) and math.isnan(b)):
                    assert bits == np.float64(s[name]).tobytes(), (a, b, name)
                else:
                    assert math.isnan(s[name]), (a, b, name)

    @pytest.mark.parametrize("kind", [Kind.I, Kind.II, Kind.III_RANK1, Kind.III_ZERO])
    @pytest.mark.parametrize("kappa", [0.6, 1.0, 3.0])
    def test_broadcast_axes_equal_pointwise_margins_bit_for_bit(self, kind, kappa):
        # an (n, 1) a axis against an (n,) b axis; the axes reach 1e200,
        # where ab overflows to inf, and pass through 1, where a - 1 is 0
        a = np.array([0.05, 0.5, 1.0, 1.0 + kappa ** 2, 7.3, 1e200])
        b = np.array([1e200, 1.0, 0.2, 1.0 + kappa ** 2, 2.9, 0.05])
        with np.errstate(over="ignore"):
            grids = margins(kind, kappa, a[:, None], b)
        assert np.isinf(grids["cp"][-1, 0]) and np.isinf(grids["eb"][-1, 0])
        for name, grid in grids.items():
            assert grid.shape == (a.size, b.size)
            pointwise = np.array([[margins(kind, kappa, float(x), float(y))[name] for y in b]
                                  for x in a])
            assert grid.tobytes() == pointwise.tobytes(), name


class TestReport:
    def test_isotropic_noise_channel(self):
        rep = report(Channel(X=np.eye(2), Y=3.0 * np.eye(2)))
        assert rep.cp and rep.eb and rep.ncb
        assert abs(rep.margins["cp"] - 9.0) < ATOL
        assert abs(rep.margins["eb"] - 5.0) < ATOL
        assert abs(rep.margins["ncb"] - 2.0) < ATOL
        assert rep.shifted_noise == (3.0, 3.0)

    def test_shifted_noise_tracks_gain(self):
        rep = report(Channel(X=0.6 * np.eye(2), Y=np.diag([2.0, 3.0])))
        np.testing.assert_allclose(rep.shifted_noise, (2.36, 1.36), atol=ATOL)

    def test_eb_but_not_ncb(self):
        rep = report(canonical_channel(Kind.I, 4.0, 0.8, kappa=0.6))
        assert rep.cp and rep.eb and not rep.ncb

    def test_cp_only(self):
        rep = report(Channel(X=np.eye(2), Y=np.eye(2)))
        assert rep.cp and not rep.eb and not rep.ncb

    def test_form_is_attached(self):
        rep = report(canonical_channel(Kind.II, 3.0, 2.0, kappa=0.8))
        assert rep.form.kind is Kind.II
        assert abs(rep.form.kappa - 0.8) < ATOL


class TestReportAgreesWithReduction:
    def test_form_fields_match_numpy_references(self):
        # all four kinds in general position: a pre-squeeze up to e^+-2 and a rotation after;
        # kappa is sqrt|det X| (kinds I, II), ||X||_2 (rank one) or 0, (a, b) eigvalsh(Y)
        # descending; each within 1e-13 of the reference's scale, where 8e-16 was measured
        rng = np.random.default_rng(1701)
        kinds = (Kind.I, Kind.II, Kind.III_RANK1, Kind.III_ZERO)
        for i in range(2000):
            a, b = np.exp(rng.uniform(-3.0, 3.0, 2)).tolist()
            ch = canonical_channel(kinds[i % 4], a, b, kappa=float(np.exp(rng.uniform(-2.3, 2.3))))
            S = rotation(rng.uniform(-np.pi, np.pi)) @ _squeeze(rng.uniform(-2.0, 2.0)) \
                @ rotation(rng.uniform(-np.pi, np.pi))
            ch = compose(compose(unitary(S), ch), unitary(rotation(rng.uniform(-np.pi, np.pi))))
            form = report(ch).form
            assert form.kind is kinds[i % 4]
            if form.kind in (Kind.I, Kind.II):
                kappa = math.sqrt(abs(np.linalg.det(ch.X)))
            else:  # rank one, or 0 for X = 0
                kappa = np.linalg.norm(ch.X, 2)
            assert abs(form.kappa - kappa) <= 1e-13 * kappa, (i, form.kappa, kappa)
            noise = np.linalg.eigvalsh(ch.Y)[::-1]
            assert np.abs([form.a, form.b] - noise).max() <= 1e-13 * noise[0], (i, form.a, form.b)

    @pytest.mark.parametrize("X, Y, cause", [
        (np.eye(2), rotation(0.3).T @ np.diag([1e308, 1e308]) @ rotation(0.3),
         "the noise eigenvalues overflow"),
        (1e200 * np.eye(2), np.eye(2), "det X overflows"),
        (np.diag([1e200, 0.0]), np.eye(2), "kappa\\^2 overflows"),
    ], ids=["noise", "det-x", "rank-one-kappa2"])
    def test_refusals_name_their_cause(self, X, Y, cause):
        with pytest.raises(ValueError, match=cause):
            report(Channel(X=X, Y=Y))


class TestVerdictsOnForms:
    def test_boundaries_count_as_inside(self):
        rep = _report(Kind.I, 2.0, 2.0, kappa=1.0)
        assert rep.cp and rep.eb and rep.ncb

    def test_reflection_triple_point(self):
        # a = b = 1 + kappa^2 puts a reflection on all three boundaries at once
        rep = _report(Kind.II, 1.64, 1.64, kappa=0.8)
        assert rep.cp and rep.eb and rep.ncb
        m = margins(Kind.II, 0.8, 1.64, 1.64)
        assert abs(m["cp"]) < ATOL
        assert abs(m["ncb"]) < ATOL

    def test_reflection_eb_without_ncb(self):
        rep = _report(Kind.II, 3.4, 0.85, kappa=0.8)
        assert rep.cp and rep.eb
        assert not rep.ncb  # b < 1 fails the per-axis threshold

    def test_kind_iii_corner(self):
        rep = _report(Kind.III_RANK1, 1.0, 1.0)
        assert rep.ncb and rep.eb


class TestNcbOracle:
    @pytest.mark.parametrize("kind,kappa,a,b,expect", [
        (Kind.I, 0.6, 2.0, 2.0, True),
        (Kind.I, 0.6, 4.0, 0.8, False),
        (Kind.I, 1.0, 2.5, 2.0, True),
        (Kind.II, 0.8, 3.0, 2.0, True),
        (Kind.II, 0.8, 3.4, 0.85, False),
        (Kind.III_RANK1, 0.7, 1.2, 1.1, True),
        (Kind.III_ZERO, None, 2.0, 0.9, False),
    ])
    def test_matches_closed_form(self, kind, kappa, a, b, expect):
        ch = canonical_channel(kind, a, b, kappa=kappa)
        assert ncb_oracle_gaussian(ch) is expect
        assert report(ch).ncb is expect

    def test_rotated_channel_same_verdict(self):
        ch = compose(unitary(rotation(0.9)), canonical_channel(Kind.I, 2.0, 2.0, kappa=0.6))
        assert ncb_oracle_gaussian(ch)

    def test_requires_cp(self):
        with pytest.raises(ValueError):
            ncb_oracle_gaussian(Channel(X=SIGMA3, Y=np.zeros((2, 2))))

    def test_zero_tolerance(self):
        # tol = 0 asks for exact dominance; the squeeze range stays finite
        assert ncb_oracle_gaussian(Channel(X=np.diag([10.0, 0.0]), Y=np.diag([1.0003, 5.0])),
                                   tol=0.0)
        assert ncb_oracle_gaussian(Channel(X=0.6 * np.eye(2), Y=np.diag([2.0, 3.0])), tol=0.0)
        assert not ncb_oracle_gaussian(Channel(X=np.eye(2), Y=np.diag([2.0, 1.5])), tol=0.0)

    def test_rank_one_high_gain_near_boundary(self):
        # NCB margin 3e-4, below the ||X||^2 e^{-12} = 6e-4 gap a fixed
        # r_max = 6 would leave; the search range must scale with ||X||
        ch = Channel(X=np.diag([10.0, 0.0]), Y=np.diag([1.0003, 5.0]))
        assert report(ch).ncb
        assert ncb_oracle_gaussian(ch)

    @pytest.mark.parametrize("swap", [False, True])
    @pytest.mark.parametrize("gain,noise", [
        (0.0, (1e17, 0.5)),
        (0.5, (1e17, 0.5)),
        (0.5, (1e16, 0.3)),
    ])
    def test_lopsided_noise_below_one_is_not_ncb(self, gain, noise, swap):
        # lam_min(Y - 1) is about b - 1 < 0; as mean - spread of a matrix
        # whose larger eigenvalue is past 1/eps it would cancel to about 0
        ch = Channel(X=gain * np.eye(2), Y=np.diag(noise[::-1] if swap else noise))
        assert not report(ch).ncb
        assert ncb_oracle_gaussian(ch) is False


def _dominance_longhand(X, Y, r, theta):
    """lam_min(Y - 1 - X^T V X) for the pure V squeezed by r along theta.

    V = R diag(e^{2r}, e^{-2r}) R^T with R the rotation by theta; r and
    theta broadcast, X^T V X is a numpy matmul and lam_min is LAPACK's.
    """
    c, s = np.cos(theta), np.sin(theta)
    R = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    diag = np.zeros(np.shape(r) + (2, 2))
    diag[..., 0, 0], diag[..., 1, 1] = np.exp(2.0 * r), np.exp(-2.0 * r)
    V = R @ diag @ np.swapaxes(R, -1, -2)
    return np.linalg.eigvalsh(Y - np.eye(2) - X.T @ V @ X)[..., 0]


def _sup_longhand(ch):
    """The closed-form supremum, through LAPACK: lam_min of
    [[y11 - 1, h], [h, y22 - 1]] with h = hypot(y12, det X)."""
    h = math.hypot(ch.Y[0, 1], np.linalg.det(ch.X))
    return np.linalg.eigvalsh(np.array([[ch.Y[0, 0] - 1.0, h], [h, ch.Y[1, 1] - 1.0]]))[0]


def _random_cp_channels(rng, rank, n):
    """n CP channels in general position with an X of the given rank."""
    out = []
    while len(out) < n:
        second = float(rng.choice((-1.0, 1.0))) if rank == 2 else 0.0
        x = np.diag([1.0 if rank else 0.0, second]) * float(np.exp(rng.uniform(-1.5, 1.5)))
        X = rotation(rng.uniform(0, np.pi)) @ _squeeze(rng.uniform(-1, 1)) @ x \
            @ rotation(rng.uniform(0, np.pi))
        A = rng.normal(size=(2, 2)) * np.exp(rng.uniform(-1.0, 1.5))
        ch = Channel(X=X, Y=A @ A.T + rng.uniform(0.0, 3.0) * np.eye(2))
        if is_cp(ch):
            out.append(ch)
    return out


class TestNcbOracleSupremum:
    """The oracle's closed-form supremum against the dominance objective
    written out by hand: sup_V lam_min(Y - 1 - X^T V X) over pure V."""

    @pytest.mark.parametrize("rank", [0, 1, 2])
    def test_no_pure_state_beats_the_supremum(self, rank):
        rng = np.random.default_rng(61 + rank)
        r, theta = np.meshgrid(np.linspace(0.0, 4.0, 200),
                               np.linspace(0.0, np.pi, 400, endpoint=False), indexing="ij")
        eps = np.finfo(float).eps
        for ch in _random_cp_channels(rng, rank, 12):
            sup = _sup_longhand(ch)
            scale = max(1.0, np.abs(ch.Y).max(), np.linalg.norm(ch.X, 2) ** 2)
            best = _dominance_longhand(ch.X, ch.Y, r, theta).max()
            assert best <= sup + 4.0 * eps * scale
            if rank == 0:  # V drops out: every pure state attains the supremum
                assert best >= sup - 4.0 * eps * scale

    def test_supremum_attained_at_m_over_root_det_m(self):
        # for invertible X, V* = M / sqrt(det M) with M = X^-T (D - t 1) X^-1 at
        # t = sup is a pure state with lam_min(Y - 1 - X^T V* X) = t
        rng = np.random.default_rng(64)
        for ch in _random_cp_channels(rng, 2, 200):
            t = _sup_longhand(ch)
            Xinv = np.linalg.inv(ch.X)
            M = Xinv.T @ (ch.Y - (1.0 + t) * np.eye(2)) @ Xinv
            V = M / math.sqrt(np.linalg.det(M))
            scale = max(1.0, np.abs(ch.Y).max(), np.abs(M).max())
            assert abs(np.linalg.det(V) - 1.0) < 1e-9
            assert np.linalg.eigvalsh(V)[0] > 0.0
            f = np.linalg.eigvalsh(ch.Y - np.eye(2) - ch.X.T @ V @ ch.X)[0]
            assert abs(f - t) < 1e-9 * scale * np.linalg.cond(ch.X)

    def test_singular_x_approaches_the_supremum_by_squeezing(self):
        # V squeezed by r with its long axis u in ker X^T: X^T V X = e^{-2r} w w^T,
        # w = X^T u_perp, so f rises to lam_min(Y - 1) with a gap of at most
        # e^{-2r} ||X||^2; the matmul rounds V's entries, up to e^{2r}, to eps
        rng = np.random.default_rng(65)
        eps = np.finfo(float).eps
        r = np.array([0.0, 1.0, 2.0, 4.0, 6.0])
        for ch in _random_cp_channels(rng, 1, 50):
            u = np.linalg.svd(ch.X.T)[2][-1]  # unit, X^T u = 0
            f = _dominance_longhand(ch.X, ch.Y, r, np.full(r.shape, math.atan2(u[1], u[0])))
            sup = _sup_longhand(ch)
            norm2 = np.linalg.norm(ch.X, 2) ** 2
            rounding = 8.0 * eps * (np.exp(2.0 * r) * norm2 + max(1.0, np.abs(ch.Y).max()))
            assert np.all(np.diff(f) > 0.0)
            assert np.all(f <= sup + rounding)
            assert np.all(sup - f <= np.exp(-2.0 * r) * norm2 + rounding)

    @pytest.mark.parametrize("rank", [0, 1, 2])
    def test_verdict_is_supremum_against_tol(self, rank):
        rng = np.random.default_rng(66 + rank)
        for ch in _random_cp_channels(rng, rank, 100):
            sup = _sup_longhand(ch)
            assert ncb_oracle_gaussian(ch, tol=0.0) is bool(sup >= 0.0)
            if sup < 0.0:
                assert ncb_oracle_gaussian(ch, tol=-sup * (1.0 + 1e-9))
                assert not ncb_oracle_gaussian(ch, tol=-sup * (1.0 - 1e-9))


class TestFock1Necessity:
    def test_sign_flips_with_breaking_verdict(self):
        assert ncb_necessity_fock1(_form(Kind.I, 3.0, 3.0, kappa=1.0))
        assert not ncb_necessity_fock1(_form(Kind.I, 1.8, 1.8, kappa=1.0))
        assert ncb_necessity_fock1(_form(Kind.I, 2.0, 2.0, kappa=1.0))  # boundary

    def test_requires_unit_gain_kind_i(self):
        with pytest.raises(ValueError):
            ncb_necessity_fock1(_form(Kind.I, 3.0, 3.0, kappa=0.6))
        with pytest.raises(ValueError):
            ncb_necessity_fock1(_form(Kind.II, 3.0, 3.0, kappa=1.0))

    @staticmethod
    def _outcome(test, *args):
        """test(*args), or the type of the exception it raised."""
        try:
            return test(*args)
        except (ValueError, OverflowError) as exc:
            return type(exc)

    def test_equals_the_p_function_at_the_origin(self):
        # the float test against the numpy closed form it replaces, exceptions included
        from gaussatlas.phase_space import fock1_output_p

        def closed_form(a, b, tol):
            with np.errstate(all="ignore"):  # an underflowing a^2 gives 0 / 0 there
                return fock1_output_p(a, b, 0.0, 0.0) >= -tol

        ch = Channel(X=np.eye(2), Y=np.eye(2))
        rng = np.random.default_rng(17)
        edge = [0.0, -0.0, -1.0, 5e-324, 1e-200, 1.5e-162, 1e-154, 0.5, 1.0, 2.0, 1e154,
                1.4e154, 1e200, 1.7e308, math.inf, math.nan]
        pairs = list(itertools.product(edge, repeat=2))
        pairs += [tuple(v) for v in np.exp(rng.uniform(-3.0, 3.0, (2000, 2))).tolist()]
        a = np.exp(rng.uniform(-0.1, 3.0, 2000))  # about the boundary 1/a + 1/b = 1
        b = a / (a - 1.0) * np.exp(rng.normal(0.0, 1e-7, 2000))
        pairs += list(zip(a.tolist(), b.tolist()))
        outcomes = set()
        for (a, b), tol in itertools.product(pairs, (0.0, 1e-6, 1e-3)):
            got = self._outcome(ncb_necessity_fock1, CanonicalForm(Kind.I, 1.0, a, b, ch), tol)
            want = self._outcome(closed_form, a, b, tol)
            assert got is want if isinstance(want, type) else got == want, (a, b, tol)
            outcomes.add(want if isinstance(want, type) else bool(want))
        assert outcomes == {True, False, ValueError, OverflowError}


class TestEbOracle:
    def test_matches_closed_form_on_examples(self):
        assert eb_oracle_tmsv(canonical_channel(Kind.I, 2.0, 2.0, kappa=1.0))
        assert not eb_oracle_tmsv(Channel(X=np.eye(2), Y=np.eye(2)))
        assert eb_oracle_tmsv(canonical_channel(Kind.III_ZERO, 2.0, 2.0))
        assert not eb_oracle_tmsv(canonical_channel(Kind.I, 1.0, 1.0, kappa=0.8))

    def test_matches_longhand_ppt_of_probe_outputs(self):
        # the 4x4 eigvalsh of each partially transposed probe output, at three
        # squeezes, on CP channels near but outside the EB boundary
        rng = np.random.default_rng(53)
        verdicts = set()
        for _ in range(200):
            kappa = rng.uniform(0.5, 3.0)  # keeps the CP bound below the band
            log_gap = rng.uniform(-0.2, 0.05)
            if abs(log_gap) < 1e-3:
                continue
            prod = (1.0 + kappa ** 2) ** 2 * math.exp(log_gap)
            ratio = math.exp(rng.uniform(0.0, 2.0))
            ch = canonical_channel(Kind.I, math.sqrt(prod * ratio), math.sqrt(prod / ratio),
                                   kappa=kappa)
            S = rotation(rng.uniform(0, np.pi)) @ _squeeze(rng.uniform(-1, 1))
            ch = Channel(X=S @ ch.X, Y=ch.Y)
            longhand = {_ppt_longhand(ch, r) for r in (0.5, 1.0, 2.0)}
            assert longhand == {eb_oracle_tmsv(ch)}
            verdicts |= longhand
        assert verdicts == {True, False}

    @pytest.mark.parametrize("swap, pre", [(False, 0.0), (True, 0.0), (False, 1.5)])
    def test_asymmetric_noise_below_the_bound_is_not_eb(self, swap, pre):
        # kind I at gain 10, a = 1.5 and ab a relative 1e-4 below (1 + kappa^2)^2:
        # the EB margin is -1.02, but b ~ 7e3 a, and a slack growing with the
        # probe output's norm called it EB; also with a and b swapped, and
        # behind a pre-squeeze
        kappa, a = 10.0, 1.5
        noise = (a, (1.0 + kappa ** 2) ** 2 * (1.0 - 1e-4) / a)
        ch = canonical_channel(Kind.I, *(noise[::-1] if swap else noise), kappa=kappa)
        ch = Channel(X=_squeeze(pre) @ ch.X, Y=ch.Y)
        assert is_cp(ch) and not report(ch).eb
        assert not eb_oracle_tmsv(ch)

    def test_exact_boundary_behind_unitaries_is_eb(self):
        # ab exactly on the EB bound; the unitaries' rounding stays inside the slack
        rng = np.random.default_rng(54)
        for k in range(300):
            kappa = math.exp(rng.uniform(-2.0, 2.0))
            kind, bound = (Kind.I, (1.0 + kappa ** 2) ** 2) if k % 2 else (Kind.III_RANK1, 1.0)
            u = rng.uniform(-3.0, 3.0)
            ch = canonical_channel(kind, math.sqrt(bound) * math.exp(u),
                                   math.sqrt(bound) * math.exp(-u), kappa=kappa)
            S = rotation(rng.uniform(0, np.pi)) @ _squeeze(rng.uniform(-1, 1)) \
                @ rotation(rng.uniform(0, np.pi))
            R = rotation(rng.uniform(0, np.pi))
            ch = Channel(X=S @ ch.X @ R, Y=R.T @ ch.Y @ R)
            assert eb_oracle_tmsv(ch)

    def test_closed_form_without_lapack(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eb_oracle_tmsv called LAPACK")

        for name in ("eigvalsh", "eigh", "eig", "eigvals", "svd", "det"):
            monkeypatch.setattr(np.linalg, name, refuse)
        assert eb_oracle_tmsv(canonical_channel(Kind.I, 2.0, 2.0, kappa=1.0))
        assert not eb_oracle_tmsv(canonical_channel(Kind.I, 1.0, 1.0, kappa=0.8))
        assert list(inspect.signature(eb_oracle_tmsv).parameters) == ["ch"]

    def test_requires_cp(self):
        with pytest.raises(ValueError):
            eb_oracle_tmsv(Channel(X=SIGMA3, Y=np.zeros((2, 2))))


class TestOrbit:
    def test_orbit_point_example(self):
        form = _form(Kind.I, 4.0, 0.8, kappa=0.6)
        pt = squeeze_orbit(form, 0.5 * math.log(2.0))
        assert abs(pt.a_r - 2.0) < ATOL
        assert abs(pt.b_r - 1.6) < ATOL
        assert pt.ncb

    def test_product_is_orbit_invariant(self):
        form = _form(Kind.I, 3.0, 1.5, kappa=0.9)
        for r in (-1.0, -0.2, 0.0, 0.4, 2.0):
            pt = squeeze_orbit(form, r)
            assert abs(pt.a_r * pt.b_r - 4.5) < 1e-10

    def test_find_r0_balanced_boundary(self):
        # a = b = 1 + kappa^2 leaves exactly one breaking point, r = 0
        assert find_r0(_form(Kind.I, 1.36, 1.36, kappa=0.6)) == 0.0

    def test_find_r0_matches_analytic_maximizer(self):
        form = _form(Kind.I, 4.0, 0.8, kappa=0.6)
        r0 = find_r0(form)
        assert r0 == 0.25 * math.log(form.a / form.b)
        assert abs(r0 - 0.25 * math.log(4.0 / 0.8)) <= 1e-15
        assert squeeze_orbit(form, r0).ncb

    def test_find_r0_balances_the_noise(self):
        # r0 = ln(a/b)/4 in general position, where a e^{-2 r0} = b e^{2 r0}
        rng = np.random.default_rng(61)
        for _ in range(50):
            kappa = rng.uniform(0.1, 2.0)
            a = math.exp(rng.uniform(-4.0, 4.0))
            b = (1.0 + kappa ** 2) ** 2 * math.exp(rng.uniform(0.0, 2.0)) / a
            form = _form(Kind.I, a, b, kappa=kappa)
            r0 = find_r0(form)
            assert r0 == 0.25 * math.log(form.a / form.b)
            pt = squeeze_orbit(form, r0)
            assert abs(pt.a_r - pt.b_r) <= 1e-15 * pt.a_r

    def test_find_r0_peak_value_at_eb_boundary(self):
        # on the EB boundary the orbit maximum of (a_r - 1)(b_r - 1) is kappa^4
        k = 1.5
        a = 2.0
        b = (1.0 + k ** 2) ** 2 / a
        form = _form(Kind.I, a, b, kappa=k)
        r0 = find_r0(form)
        assert r0 is not None
        pt = squeeze_orbit(form, r0)
        assert abs((pt.a_r - 1.0) * (pt.b_r - 1.0) - k ** 4) < 1e-8

    def test_find_r0_requires_eb(self):
        with pytest.raises(ValueError):
            find_r0(_form(Kind.I, 1.0, 1.0, kappa=1.0))

    @pytest.mark.parametrize("a, b", [(5.0, 0.0), (0.0, 5.0), (0.0, 0.0)])
    def test_find_r0_none_on_a_zero_noise_eigenvalue(self, a, b):
        # no squeeze lifts a zero eigenvalue to 1; a slack of 10 admits the form
        form = _form(Kind.III_ZERO, a, b)
        assert form.a * form.b == 0.0
        assert find_r0(form, tol=10.0) is None


class TestRegions:
    def test_four_classes_at_fixed_gain(self):
        k = 0.6
        assert _report(Kind.I, 0.1, 0.1, kappa=k).region == "unphysical"
        assert _report(Kind.I, 1.075, 1.075, kappa=k).region == "cp_only"
        assert _report(Kind.I, 1.075, 2.05, kappa=k).region == "eb_not_ncb"
        assert _report(Kind.I, 2.05, 2.05, kappa=k).region == "ncb"

    def test_labels_cover_enum(self):
        assert set(REGION_LABELS) == {"unphysical", "cp_only", "eb_not_ncb", "ncb"}

    def test_sweep_ordering_and_size(self):
        sweep = region_sweep(Kind.I, 0.6, 1.0, 2.0, 3.0, 4.0, 3)
        assert sweep.a.tolist() == [1.0, 1.5, 2.0] and sweep.b.tolist() == [3.0, 3.5, 4.0]
        assert list(sweep.margins) == ["cp", "eb", "ncb"]
        assert all(grid.shape == (3, 3) for grid in (sweep.code, *sweep.margins.values()))
        # row i at a[i], column j at b[j]
        assert sweep.margins["cp"][1, 2] == 1.5 * 4.0 - (1.0 - 0.36) ** 2

    def test_sweep_columns_match_pointwise_classification(self):
        sweep = region_sweep(Kind.II, 0.8, 0.2, 4.0, 0.3, 5.0, 9)
        for i, a in enumerate(sweep.a.tolist()):
            for j, b in enumerate(sweep.b.tolist()):
                m = margins(Kind.II, 0.8, a, b)
                assert [grid[i, j] for grid in sweep.margins.values()] == list(m.values())
                # the first failing condition names the region; all passing is ncb
                passed = [v >= -TOL_CLASS for v in m.values()]
                assert REGION_LABELS[sweep.code[i, j]] == \
                    REGION_LABELS[(*passed, False).index(False)]

    def test_sweep_calls_a_nan_margin_failing_as_report_does(self):
        # a NaN margin fails report's m >= -tol, so the first condition names the region
        sweep = region_sweep(Kind.I, math.nan, 0.5, 2.0, 0.5, 2.0, 3)
        passed = [v >= -TOL_CLASS for v in margins(Kind.I, math.nan, 1.0, 1.0).values()]
        assert (*passed, False).index(False) == 0
        assert sweep.code.tolist() == [[0] * 3] * 3

    @pytest.mark.parametrize("kappa", [0.7, 3.0])
    @pytest.mark.parametrize("kind", list(Kind))
    def test_cp_and_eb_grids_are_bit_equal_for_kinds_ii_and_iii(self, kind, kappa):
        # both are ab minus one float bound, so the sweep writers print the cp
        # grid in the eb column; for kind I the two bounds differ
        grids = region_sweep(kind, kappa, 0.05, 40.0, 0.05, 30.0, 64).margins
        assert (grids["cp"].tobytes() == grids["eb"].tobytes()) is (kind is not Kind.I)

    @pytest.mark.parametrize("kappa", [0.7, 3.0])
    @pytest.mark.parametrize("kind", list(Kind))
    def test_eb_grid_is_the_cp_grid_where_the_bounds_are_equal(self, kind, kappa):
        # one bound for kinds II and III: one grid, which the sweep writers print once
        a, b = np.linspace(0.05, 40.0, 16), np.linspace(0.05, 30.0, 16)
        for grids in (margins(kind, kappa, a[:, None], b),
                      region_sweep(kind, kappa, 0.05, 40.0, 0.05, 30.0, 16).margins):
            assert (grids["eb"] is grids["cp"]) is (kind is not Kind.I)
        # kind I at zero gain: both bounds are 1.0
        grids = margins(Kind.I, 0.0, a[:, None], b)
        assert grids["eb"] is grids["cp"]

    def test_sweep_rejects_degenerate_grid(self):
        with pytest.raises(ValueError):
            region_sweep(Kind.I, 0.6, 1.0, 2.0, 3.0, 4.0, 1)

    def test_csv_row_shape(self, capsys):
        assert main(["sweep", "--form", "II", "--kappa", "0.8", "--amin", "2", "--amax", "3",
                     "--bmin", "3", "--bmax", "4", "--grid", "2"]) == 0
        header, row = capsys.readouterr().out.splitlines()[:2]
        assert header == REGION_CSV_HEADER
        row = row.split(",")
        assert len(row) == len(header.split(","))
        assert row[0] == "II"
        assert row[4] in REGION_LABELS
        float(row[5]), float(row[6]), float(row[7])  # parse cleanly


class TestBoundaryCurves:
    def test_hyperbola_values(self):
        k = 0.6
        curves = boundary_curves(Kind.I, k, 1.0)
        assert abs(curves["cp"] - 0.4096) < ATOL
        assert abs(curves["eb"] - 1.8496) < ATOL
        assert curves["ncb"] == np.inf
        assert abs(boundary_curves(Kind.I, k, 2.0)["ncb"] - 1.1296) < ATOL

    def test_kind_iii_corner_line(self):
        assert boundary_curves(Kind.III_ZERO, 0.0, 2.0)["ncb"] == 1.0
        assert boundary_curves(Kind.III_ZERO, 0.0, 0.5)["ncb"] == np.inf

    def test_sample_shape(self):
        a = np.linspace(1.0, 5.0, 512)
        curves = boundary_curves(Kind.I, 1.0, a)
        assert list(curves) == ["cp", "eb", "ncb"]
        assert all(b.shape == (512,) for b in curves.values())
        np.testing.assert_allclose(a * curves["eb"], 4.0, atol=1e-10)

    def test_scalar_points_match_array_points(self):
        a = np.array([0.0, 0.5, 1.0, 1.7, 4.0])
        for kind in Kind:
            curves = boundary_curves(kind, 0.8, a)
            for i, v in enumerate(a.tolist()):
                point = boundary_curves(kind, 0.8, v)
                assert all(type(b) is float for b in point.values())
                assert [point[n] for n in curves] == [curves[n][i] for n in curves]


class TestTangency:
    # 1e-5 and 1e8 once failed to bracket the root, and 1e7 landed 0.69 % off
    @pytest.mark.parametrize("kappa", [1e-200, 1e-5, 0.6, 1.0, 1.5, 1e5, 1e7, 1e8])
    def test_touch_point_location(self, kappa):
        assert ncb_eb_tangency(kappa) == (1.0 + kappa ** 2, 1.0 + kappa ** 2)

    def test_curves_actually_touch_and_separate(self):
        k = 0.9
        a_star, _ = ncb_eb_tangency(k)

        def gap(a):
            curves = boundary_curves(Kind.I, k, a)
            return curves["ncb"] - curves["eb"]

        assert abs(gap(a_star)) < 1e-8
        assert gap(a_star * 0.8) > 1e-3
        assert gap(a_star * 1.5) > 1e-3

    def test_rejects_nonpositive_kappa(self):
        for kappa in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                ncb_eb_tangency(kappa)

    def test_refuses_a_gain_whose_bounds_overflow(self):
        with pytest.raises(OverflowError, match="overflow a double"):
            ncb_eb_tangency(1e100)
