"""Closed-form breaking predicates, their oracles, orbits, and region atlas."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussatlas.breaking import (
    _COARSE_GRID,
    _COARSE_TRIG,
    DEFAULT_R_LIST,
    _dominance,
    REGION_LABELS,
    BoundaryCurve,
    boundary_curves,
    classify_region,
    cp_margin,
    eb_margin,
    eb_oracle_tmsv,
    find_r0,
    is_cp_form,
    is_eb,
    is_ncb,
    ncb_eb_tangency,
    ncb_margin,
    ncb_necessity_fock1,
    ncb_oracle_gaussian,
    region_sweep,
    report,
    squeeze_orbit,
)
from gaussatlas.channels import Channel, Kind, SIGMA3, canonical_channel, canonical_reduce
from gaussatlas.gaussian_core import (
    apply_channel_one_side,
    is_ppt_separable,
    rotation,
    squeeze,
    tmsv_variance,
)
from gaussatlas.cli import REGION_CSV_HEADER, main

ATOL = 1e-12


def _form(kind, a, b, kappa=None):
    return canonical_reduce(canonical_channel(kind, a, b, kappa=kappa))


class TestMargins:
    def test_closed_forms_kind_i(self):
        k = 0.6
        assert abs(cp_margin(Kind.I, k, 2.0, 3.0) - (6.0 - 0.64 ** 2)) < ATOL
        assert abs(eb_margin(Kind.I, k, 2.0, 3.0) - (6.0 - 1.36 ** 2)) < ATOL
        assert abs(ncb_margin(Kind.I, k, 2.0, 3.0) - min(1.0, 2.0, 2.0 - 0.6 ** 4)) < ATOL

    def test_reflection_collapses_cp_to_eb(self):
        for k in (0.4, 0.8, 1.3):
            for a, b in [(1.2, 2.0), (3.0, 0.5)]:
                assert cp_margin(Kind.II, k, a, b) == eb_margin(Kind.II, k, a, b)

    def test_kind_iii_margins(self):
        assert abs(cp_margin(Kind.III_RANK1, 0.7, 2.0, 1.5) - 2.0) < ATOL
        assert cp_margin(Kind.III_ZERO, 0.0, 2.0, 1.5) == eb_margin(Kind.III_RANK1, 0.7, 2.0, 1.5)
        assert abs(ncb_margin(Kind.III_ZERO, 0.0, 2.0, 1.5) - 0.5) < ATOL

    def test_unit_gain_boundary_point(self):
        # a = b = 2 at unit gain sits on the NCB and EB boundaries at once
        assert abs(ncb_margin(Kind.I, 1.0, 2.0, 2.0)) < ATOL
        assert abs(eb_margin(Kind.I, 1.0, 2.0, 2.0)) < ATOL

    def test_attenuator_boundary_point(self):
        # a = b = 1 + kappa^2 is the double boundary for any gain
        k = 0.6
        v = 1.0 + k ** 2
        assert abs(ncb_margin(Kind.I, k, v, v)) < ATOL
        assert abs(eb_margin(Kind.I, k, v, v)) < ATOL

    @settings(deadline=None, max_examples=150)
    @given(st.sampled_from([Kind.I, Kind.II, Kind.III_RANK1, Kind.III_ZERO]),
           st.floats(0.1, 2.0), st.floats(0.01, 6.0), st.floats(0.01, 6.0))
    def test_verdict_chain_is_nested(self, kind, kappa, a, b):
        ncb = ncb_margin(kind, kappa, a, b) >= 0
        eb = eb_margin(kind, kappa, a, b) >= 0
        cp = cp_margin(kind, kappa, a, b) >= 0
        assert (not ncb or eb) and (not eb or cp)


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


class TestVerdictsOnForms:
    def test_boundaries_count_as_inside(self):
        form = _form(Kind.I, 2.0, 2.0, kappa=1.0)
        assert is_ncb(form) and is_eb(form) and is_cp_form(form)

    def test_reflection_triple_point(self):
        # a = b = 1 + kappa^2 puts a reflection on all three boundaries at once
        form = _form(Kind.II, 1.64, 1.64, kappa=0.8)
        assert is_cp_form(form) and is_eb(form) and is_ncb(form)
        assert abs(cp_margin(Kind.II, 0.8, 1.64, 1.64)) < ATOL
        assert abs(ncb_margin(Kind.II, 0.8, 1.64, 1.64)) < ATOL

    def test_reflection_eb_without_ncb(self):
        form = _form(Kind.II, 3.4, 0.85, kappa=0.8)
        assert is_cp_form(form) and is_eb(form)
        assert not is_ncb(form)  # b < 1 fails the per-axis threshold

    def test_kind_iii_corner(self):
        form = _form(Kind.III_RANK1, 1.0, 1.0)
        assert is_ncb(form) and is_eb(form)


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
        assert is_ncb(canonical_reduce(ch)) is expect

    def test_rotated_channel_same_verdict(self):
        from gaussatlas.channels import compose_pre_unitary
        from gaussatlas.gaussian_core import rotation
        ch = compose_pre_unitary(canonical_channel(Kind.I, 2.0, 2.0, kappa=0.6),
                                 rotation(0.9))
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

    def test_dominance_zero_gain_is_noise_eigmin(self):
        # X = 0 removes V entirely: every value is lam_min(Y - 1)
        r, theta = np.meshgrid(np.linspace(0.0, 3.0, 61), np.linspace(0.0, np.pi, 16))
        y = np.array([[3.0, 0.4], [0.4, 2.0]])
        got = _dominance(np.zeros((2, 2)), y)(r, theta)
        np.testing.assert_allclose(got, np.linalg.eigvalsh(y - np.eye(2))[0], atol=ATOL)

    def test_dominance_isotropic_peak_at_vacuum(self):
        # X = 1, Y = y 1: lam_min = (y - 1) - e^{2r}, largest at r = 0
        r, theta = np.meshgrid(np.linspace(0.0, 3.0, 61), np.linspace(0.0, np.pi, 16))
        y = 4.5
        got = _dominance(np.eye(2), y * np.eye(2))(r, theta)
        np.testing.assert_allclose(got, (y - 1.0) - np.exp(2.0 * r), rtol=1e-14)
        assert abs(got.max() - (y - 2.0)) < ATOL

    def test_dominance_with_seed_grid_trig_is_bit_identical(self):
        rng = np.random.default_rng(52)
        _, _, grid_r, grid_theta = _COARSE_GRID
        for _ in range(20):
            f = _dominance(rng.normal(size=(2, 2)), np.diag(rng.uniform(0.5, 5.0, 2)))
            r = rng.uniform(1.0, 12.0) * grid_r
            assert np.array_equal(f(r, grid_theta, _COARSE_TRIG), f(r, grid_theta))

    def test_dominance_matches_matrix_exponential(self):
        # V = exp(2H) = cosh 2r 1 + (sinh 2r / r) H for H = [[p, q], [q, -p]],
        # (p, q) = r (cos 2theta, sin 2theta)
        rng = np.random.default_rng(21)
        for _ in range(200):
            x = rng.normal(size=(2, 2))
            a = rng.normal(size=(2, 2))
            y = a @ a.T + np.eye(2)
            r, theta = rng.uniform(0.0, 3.0), rng.uniform(0.0, np.pi)
            c, s = np.cos(2.0 * theta), np.sin(2.0 * theta)
            v = np.cosh(2.0 * r) * np.eye(2) + np.sinh(2.0 * r) * np.array([[c, s], [s, -c]])
            t = x.T @ v @ x
            want = np.linalg.eigvalsh(y - np.eye(2) - t)[0]
            got = _dominance(x, y)(np.array([r]), np.array([theta]))[0]
            assert abs(got - want) < 1e-12 * max(1.0, np.abs(t).max())

    def test_rank_one_high_gain_near_boundary(self):
        # NCB margin 3e-4, below the ||X||^2 e^{-12} = 6e-4 gap a fixed
        # r_max = 6 would leave; the search range must scale with ||X||
        ch = Channel(X=np.diag([10.0, 0.0]), Y=np.diag([1.0003, 5.0]))
        assert is_ncb(canonical_reduce(ch))
        assert ncb_oracle_gaussian(ch)


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


class TestEbOracle:
    def test_matches_closed_form_on_examples(self):
        assert eb_oracle_tmsv(canonical_channel(Kind.I, 2.0, 2.0, kappa=1.0))
        assert not eb_oracle_tmsv(Channel(X=np.eye(2), Y=np.eye(2)))
        assert eb_oracle_tmsv(canonical_channel(Kind.III_ZERO, 2.0, 2.0))
        assert not eb_oracle_tmsv(canonical_channel(Kind.I, 1.0, 1.0, kappa=0.8))

    def test_matches_per_probe_loop(self):
        # one stacked PPT call gives the verdict of testing probe by probe;
        # CP channels near the EB boundary, where the probes disagree
        rng = np.random.default_rng(53)
        verdicts = set()
        for k in range(200):
            kappa = rng.uniform(0.5, 3.0)  # keeps the CP bound below the band
            prod = (1.0 + kappa ** 2) ** 2 * math.exp(rng.uniform(-0.2, 0.05))
            ratio = math.exp(rng.uniform(0.0, 2.0))
            ch = canonical_channel(Kind.I, math.sqrt(prod * ratio), math.sqrt(prod / ratio),
                                   kappa=kappa)
            S = rotation(rng.uniform(0, np.pi)) @ squeeze(rng.uniform(-1, 1))
            ch = Channel(X=S @ ch.X, Y=ch.Y)
            # r = 0 is a product state, separable whatever the channel
            r_list = DEFAULT_R_LIST if k % 3 else (0.0,) + tuple(rng.uniform(0.0, 8.0, 2))
            longhand = True
            for r in r_list:
                if not is_ppt_separable(apply_channel_one_side(ch.X, ch.Y, tmsv_variance(r))):
                    longhand = False
                    break
            assert eb_oracle_tmsv(ch, r_list) is longhand
            verdicts.add(longhand)
        assert verdicts == {True, False}

    def test_probe_list_is_ordered_default(self):
        assert DEFAULT_R_LIST == (0.5, 1.0, 2.0, 4.0, 8.0)

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
        form = _form(Kind.I, 1.36, 1.36, kappa=0.6)
        r0 = find_r0(form)
        assert r0 is not None and abs(r0) < 1e-6

    def test_find_r0_matches_analytic_maximizer(self):
        form = _form(Kind.I, 4.0, 0.8, kappa=0.6)
        r0 = find_r0(form)
        assert r0 is not None
        assert abs(r0 - 0.25 * math.log(4.0 / 0.8)) < 1e-6
        assert squeeze_orbit(form, r0).ncb

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


class TestRegions:
    def test_four_classes_at_fixed_gain(self):
        k = 0.6
        assert classify_region(Kind.I, k, 0.1, 0.1) == "unphysical"
        assert classify_region(Kind.I, k, 1.075, 1.075) == "cp_only"
        assert classify_region(Kind.I, k, 1.075, 2.05) == "eb_not_ncb"
        assert classify_region(Kind.I, k, 2.05, 2.05) == "ncb"

    def test_labels_cover_enum(self):
        assert set(REGION_LABELS) == {"unphysical", "cp_only", "eb_not_ncb", "ncb"}

    def test_sweep_ordering_and_size(self):
        sweep = region_sweep(Kind.I, 0.6, 1.0, 2.0, 3.0, 4.0, 3)
        columns = (sweep.a, sweep.b, sweep.code, sweep.cp_margin, sweep.eb_margin,
                   sweep.ncb_margin)
        assert all(col.shape == (9,) for col in columns)
        assert sweep.a[0] == 1.0 and sweep.b[0] == 3.0
        assert sweep.a[1] == 1.0 and sweep.b[1] == 3.5  # b varies fastest
        assert sweep.a[3] == 1.5

    def test_sweep_columns_match_pointwise_classification(self):
        sweep = region_sweep(Kind.II, 0.8, 0.2, 4.0, 0.3, 5.0, 9)
        for i in range(sweep.code.size):
            a, b = float(sweep.a[i]), float(sweep.b[i])
            assert REGION_LABELS[sweep.code[i]] == classify_region(Kind.II, 0.8, a, b)
            assert sweep.cp_margin[i] == cp_margin(Kind.II, 0.8, a, b)
            assert sweep.eb_margin[i] == eb_margin(Kind.II, 0.8, a, b)
            assert sweep.ncb_margin[i] == ncb_margin(Kind.II, 0.8, a, b)

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
        curves = boundary_curves(Kind.I, k)
        assert abs(curves["cp"].b_of_a(1.0) - 0.4096) < ATOL
        assert abs(curves["eb"].b_of_a(1.0) - 1.8496) < ATOL
        assert abs(curves["ncb"].b_of_a(2.0) - 1.1296) < ATOL
        assert curves["ncb"].b_of_a(1.0) == np.inf

    def test_kind_iii_corner_line(self):
        c = BoundaryCurve("ncb", Kind.III_ZERO, 0.0)
        assert c.b_of_a(2.0) == 1.0
        assert c.b_of_a(0.5) == np.inf
        assert c.slope(2.0) == 0.0

    def test_slope_matches_finite_difference(self):
        c = BoundaryCurve("ncb", Kind.I, 0.8)
        a = 2.5
        h = 1e-6
        num = (c.b_of_a(a + h) - c.b_of_a(a - h)) / (2.0 * h)
        assert abs(c.slope(a) - num) < 1e-6

    def test_sample_shape(self):
        a, b = BoundaryCurve("eb", Kind.I, 1.0).sample(1.0, 5.0)
        assert a.shape == (512,) and b.shape == (512,)
        np.testing.assert_allclose(a * b, 4.0, atol=1e-10)

    def test_rejects_unknown_name(self):
        with pytest.raises(ValueError):
            BoundaryCurve("qq", Kind.I, 1.0)


class TestTangency:
    @pytest.mark.parametrize("kappa", [0.6, 1.0, 1.5])
    def test_touch_point_location(self, kappa):
        a_star, b_star = ncb_eb_tangency(kappa)
        assert abs(a_star - (1.0 + kappa ** 2)) < 1e-9
        assert abs(b_star - a_star) < 1e-8

    def test_curves_actually_touch_and_separate(self):
        k = 0.9
        a_star, _ = ncb_eb_tangency(k)
        curves = boundary_curves(Kind.I, k)
        gap = lambda a: curves["ncb"].b_of_a(a) - curves["eb"].b_of_a(a)
        assert abs(gap(a_star)) < 1e-8
        assert gap(a_star * 0.8) > 1e-3
        assert gap(a_star * 1.5) > 1e-3

    def test_rejects_nonpositive_kappa(self):
        with pytest.raises(ValueError):
            ncb_eb_tangency(0.0)
