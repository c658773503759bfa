"""End-to-end verification checks tying closed forms to independent numerics.

Each check re-derives one guarantee of the package from scratch (direct
inequality restatements, Fourier pipelines, probe-state separability,
random round-trips) and compares against the implemented predicates.
``run_suite`` groups them into named suites for the CLI; the acceptance
test suite runs all of them.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .breaking import (
    TOL_CLASS,
    boundary_curves,
    eb_oracle_tmsv,
    find_r0,
    margins,
    ncb_eb_tangency,
    ncb_necessity_fock1,
    ncb_oracle_gaussian,
    report,
    squeeze_orbit,
)
from .channels import (
    Channel,
    Kind,
    act_chargrid,
    act_variance,
    canonical_channel,
    canonical_reduce,
    compose_post_unitary,
    compose_pre_unitary,
    is_cp,
    rotation,
)
from .phase_space import (
    GridSpec,
    P_EPS,
    char_fock1,
    char_gaussian,
    char_vacuum,
    convert_order,
    fock1_output_p,
    quasi_from_char,
)

_KAPPAS_TABLE = (0.6, 1.0, 1.5)
_KAPPAS_GRID = (0.4, 0.6, 0.8, 1.0, 1.25, 2.0)  # verdict-chain and oracle grids
_BOUNDARY_SKIP = 1e-5  # stay this far from decision boundaries in oracle sweeps


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def _ab_grid(n):
    # noise grid over (0, 6], avoiding the degenerate origin
    return np.linspace(6.0 / n, 6.0, n)


def _inline_margins(kind, kappa, a, b):
    """The table inequalities restated longhand, as the comparison baseline."""
    if kind is Kind.I:
        cp = a * b - (1.0 - kappa ** 2) ** 2
        eb = a * b - (1.0 + kappa ** 2) ** 2
        ncb = min(a - 1.0, b - 1.0, (a - 1.0) * (b - 1.0) - kappa ** 4)
    elif kind is Kind.II:
        cp = a * b - (1.0 + kappa ** 2) ** 2
        eb = a * b - (1.0 + kappa ** 2) ** 2
        ncb = min(a - 1.0, b - 1.0, (a - 1.0) * (b - 1.0) - kappa ** 4)
    else:
        cp = a * b - 1.0
        eb = a * b - 1.0
        ncb = min(a - 1.0, b - 1.0)
    return cp, eb, ncb


def criterion_1():
    """The margins and verdicts of report() match the canonical-family inequalities
    to 1e-12, all the way through channel construction and canonical reduction."""
    vals = _ab_grid(50)
    worst = 0.0
    mismatches = 0
    checked = 0
    for kind in (Kind.I, Kind.II, Kind.III_RANK1):
        for kappa in _KAPPAS_TABLE:
            for a in vals:
                for b in vals:
                    rep = report(canonical_channel(kind, a, b, kappa))
                    got = (rep.margins["cp"], rep.margins["eb"], rep.margins["ncb"])
                    want = _inline_margins(kind, kappa if kind is not Kind.III_RANK1
                                           else rep.form.kappa, max(a, b), min(a, b))
                    diff = max(abs(g - w) for g, w in zip(got, want))
                    worst = max(worst, diff)
                    checked += 1
                    verdicts = (rep.cp, rep.eb, rep.ncb)
                    inline_verdicts = tuple(w >= -TOL_CLASS for w in want)
                    if diff > 1e-12 or verdicts != inline_verdicts:
                        mismatches += 1
    ok = mismatches == 0
    return CheckResult(
        "table-margins",
        ok,
        f"{checked} grid points x 3 kinds, worst margin deviation {worst:.3e}, "
        f"{mismatches} mismatches")


def criterion_2():
    """Verdict nesting NCB => EB => CP everywhere; EB and CP coincide for
    kinds II and III."""
    vals = _ab_grid(50)
    chain_breaks = 0
    collapse_breaks = 0
    checked = 0
    for kind in (Kind.I, Kind.II, Kind.III_RANK1):
        for kappa in _KAPPAS_GRID:
            grids = margins(kind, kappa, vals[:, None], vals)
            cp_v, eb_v, ncb_v = (m >= -TOL_CLASS for m in grids.values())
            checked += cp_v.size
            chain_breaks += int(np.sum((ncb_v & ~eb_v) | (eb_v & ~cp_v)))
            if kind in (Kind.II, Kind.III_RANK1):
                collapse_breaks += int(np.sum(eb_v != cp_v))
    ok = chain_breaks == 0 and collapse_breaks == 0
    return CheckResult(
        "verdict-chain",
        ok,
        f"{checked} points: {chain_breaks} chain breaks, "
        f"{collapse_breaks} EB/CP collapse violations")


def criterion_3():
    """The NCB and EB boundary curves touch at a = b = 1 + kappa^2,
    recovered by root-finding on the curves to 1e-9."""
    worst = 0.0
    worst_gap = 0.0
    for kappa in _KAPPAS_TABLE:
        a_star, b_star = ncb_eb_tangency(kappa)
        expected = 1.0 + kappa ** 2
        worst = max(worst, abs(a_star - expected), abs(b_star - expected))
        curves = boundary_curves(Kind.I, kappa, a_star)
        gap = abs(curves["ncb"] - curves["eb"])
        worst_gap = max(worst_gap, gap)
    ok = worst <= 1e-9 and worst_gap <= 1e-8
    return CheckResult(
        "curve-tangency",
        ok,
        f"worst contact-point deviation {worst:.3e}, worst curve gap {worst_gap:.3e}")


def criterion_4():
    """Single-photon breaking necessity at unit gain: the origin sign test
    agrees with the closed predicate on 1000 random noise pairs, and the
    closed-form output P matches the full Fourier pipeline to 1e-6."""
    rng = np.random.default_rng(411)
    checked = 0
    mismatches = 0
    while checked < 1000:
        a, b = rng.uniform(0.5, 5.0, size=2)
        # stay off both decision boundaries so tolerance conventions agree
        if abs((a - 1.0) * (b - 1.0) - 1.0) < 1e-4 or abs(a - 1.0) < 1e-4 or abs(b - 1.0) < 1e-4:
            continue
        rep = report(canonical_channel(Kind.I, a, b, 1.0))
        if ncb_necessity_fock1(rep.form) != rep.ncb:
            mismatches += 1
        checked += 1

    spec = GridSpec(side=257, extent=10.0)
    worst_fft = 0.0
    printed_err = 0.0
    for a, b in ((2.0, 2.0), (3.0, 1.5), (4.0, 4.0)):
        ch = canonical_channel(Kind.I, a, b, 1.0)
        out = act_chargrid(ch, char_fock1(0.0, spec))
        q = quasi_from_char(convert_order(out, 1.0))
        a1, a2 = np.meshgrid(q.axis / np.sqrt(2.0), q.axis / np.sqrt(2.0), indexing="ij")
        closed = fock1_output_p(a, b, a1, a2) / (2.0 * np.pi)  # W(alpha) = phi(alpha/sqrt2)/2pi
        worst_fft = max(worst_fft, float(np.abs(q.values - closed).max()))
        alt = fock1_output_p(a, b, a1, a2, variant="printed") / (2.0 * np.pi)
        printed_err = max(printed_err, float(np.abs(q.values - alt).max()))
    ok = mismatches == 0 and worst_fft <= 1e-6
    return CheckResult(
        "fock1-necessity",
        ok,
        f"{checked} sign tests, {mismatches} mismatches; pipeline vs closed form "
        f"max err {worst_fft:.3e} (printed variant deviates by {printed_err:.3e})")


def _canonical_grid_check(passes, verdict, oracle, skip):
    """An oracle against report(ch)'s verdict on the canonical channels of each
    (kind, noise grid) pass at every kappa of _KAPPAS_GRID, less those within
    _BOUNDARY_SKIP of the CP boundary or skip of the verdict's; returns
    (checked, mismatches, false-true verdicts, seconds)."""
    t0 = time.perf_counter()
    checked = mismatches = false_true = 0
    for kind, grid in passes:
        for kappa in _KAPPAS_GRID:
            for a in grid:
                for b in grid:
                    slack = margins(kind, kappa, a, b)
                    if slack["cp"] < _BOUNDARY_SKIP or abs(slack[verdict]) < skip:
                        continue
                    ch = canonical_channel(kind, a, b, kappa)
                    said = oracle(ch)
                    if said != getattr(report(ch), verdict):
                        mismatches += 1
                        false_true += said
                    checked += 1
    return checked, mismatches, false_true, time.perf_counter() - t0


def criterion_5():
    """Squeezed-probe breaking oracle agrees with the closed form on a
    20x20x6 noise grid away from the boundary, within 10 s."""
    vals = np.linspace(0.3, 6.0, 20)
    # the second-kind pass, same predicate with flipped-sign X, is thinned
    checked, mismatches, _, elapsed = _canonical_grid_check(
        ((Kind.I, vals), (Kind.II, vals[::2])), "ncb", ncb_oracle_gaussian, _BOUNDARY_SKIP)
    return CheckResult(
        "ncb-oracle-grid",
        mismatches == 0 and elapsed < 10.0,
        f"{checked} channels, {mismatches} oracle mismatches, {elapsed:.1f} s")


def criterion_6():
    """Probe-state separability oracle agrees with the closed EB margin on
    the noise grid, with no false entanglement-breaking verdicts."""
    checked, mismatches, false_eb, _ = _canonical_grid_check(
        ((Kind.I, np.linspace(0.3, 6.0, 20)),), "eb", eb_oracle_tmsv, 1e-6)
    return CheckResult(
        "eb-oracle-grid",
        mismatches == 0,
        f"{checked} channels, {mismatches} mismatches, {false_eb} false-EB verdicts")


def _random_symplectic(rng, log_squeeze=1.0):
    lam = float(np.exp(rng.uniform(-log_squeeze, log_squeeze)))
    return (rotation(rng.uniform(-np.pi, np.pi))
            @ np.diag([lam, 1.0 / lam])
            @ rotation(rng.uniform(-np.pi, np.pi)))


def criterion_7():
    """Every entanglement-breaking channel admits a squeeze parameter whose
    orbit point breaks nonclassicality; boundary-EB channels land exactly
    on the breaking boundary."""
    rng = np.random.default_rng(707)
    kinds = (Kind.I, Kind.II, Kind.III_RANK1, Kind.III_ZERO)
    failures = 0
    for _ in range(1000):
        kind = kinds[int(rng.integers(len(kinds)))]
        kappa = float(rng.uniform(0.3, 1.5))
        a = float(rng.uniform(0.2, 6.0))
        bound = (1.0 + kappa ** 2) ** 2 if kind in (Kind.I, Kind.II) else 1.0
        b = (bound + float(rng.uniform(0.0, 5.0))) / a
        ch = canonical_channel(kind, a, b, kappa if kind in (Kind.I, Kind.II) else None)
        ch = compose_post_unitary(compose_pre_unitary(ch, _random_symplectic(rng)),
                                  rotation(rng.uniform(-np.pi, np.pi)))
        form = canonical_reduce(ch)
        r0 = find_r0(form)
        if r0 is None or not squeeze_orbit(form, r0).ncb:
            failures += 1

    worst_boundary = 0.0
    for kappa in _KAPPAS_TABLE:
        for a in (0.9, 1.36, 2.5):
            b = (1.0 + kappa ** 2) ** 2 / a
            form = canonical_reduce(canonical_channel(Kind.I, a, b, kappa))
            r0 = find_r0(form)
            if r0 is None:
                failures += 1
                continue
            point = squeeze_orbit(form, r0)
            peak = (point.a_r - 1.0) * (point.b_r - 1.0)
            worst_boundary = max(worst_boundary, abs(peak - kappa ** 4))
    ok = failures == 0 and worst_boundary <= 1e-8
    return CheckResult(
        "orbit-r0",
        ok,
        f"1000 random EB channels, {failures} failures; boundary-EB orbit peak "
        f"off by {worst_boundary:.3e}")


def criterion_8():
    """Canonical-reduction witnesses close to 1e-10 on 10^4 random channels,
    with the kind fixed by the sign of det X every time."""
    rng = np.random.default_rng(808)
    worst = 0.0
    kind_errors = 0
    for _ in range(10000):
        X = rng.standard_normal((2, 2))
        A = rng.standard_normal((2, 2))
        ch = Channel(X=X, Y=A.T @ A)
        form = canonical_reduce(ch)
        scale_x = max(1.0, np.abs(form.S).max() * np.abs(ch.X).max())
        scale_y = max(1.0, np.abs(ch.Y).max())
        res_x = np.abs(form.S @ ch.X @ form.R - form.x_canonical).max() / scale_x
        res_y = np.abs(form.R.T @ ch.Y @ form.R - form.y_canonical).max() / scale_y
        res_s = abs(np.linalg.det(form.S) - 1.0) / max(1.0, np.abs(form.S).max() ** 2)
        res_r = np.abs(form.R.T @ form.R - np.eye(2)).max()
        worst = max(worst, res_x, res_y, res_s, res_r)
        expected = Kind.I if np.linalg.det(X) > 0 else Kind.II
        if form.kind is not expected:
            kind_errors += 1
    ok = worst <= 1e-10 and kind_errors == 0
    return CheckResult(
        "reduction-roundtrip",
        ok,
        f"10000 channels, worst witness residual {worst:.3e}, "
        f"{kind_errors} kind mismatches")


def criterion_9():
    """Grid-level channel action reproduces the covariance-level action on
    Gaussian inputs to 1e-6 for 20 random channel/state pairs, within 10 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)
    spec = GridSpec(side=1025, extent=8.0)
    worst = 0.0
    for _ in range(20):
        S = _random_symplectic(rng, 0.35)
        V = S.T @ S
        X = 0.5 * rng.standard_normal((2, 2))
        smax = np.linalg.svd(X, compute_uv=False)[0]
        if smax > 0.95:
            X *= 0.95 / smax
        A = rng.standard_normal((2, 2))
        Y = 0.5 * (A.T @ A) + 2.1 * np.eye(2)
        ch = Channel(X=X, Y=Y)
        out = act_chargrid(ch, char_gaussian(V, 0.0, spec))
        ref = char_gaussian(act_variance(ch, V), 0.0, spec)
        worst = max(worst, float(np.abs(out.values - ref.values).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 10.0
    return CheckResult(
        "grid-vs-variance-action",
        ok,
        f"20 random pairs on a {spec.side}^2 grid, max deviation {worst:.3e}, "
        f"{elapsed:.1f} s")


_GENERAL_KINDS = (Kind.I, Kind.II, Kind.III_RANK1, Kind.III_ZERO)


def _log_uniform(rng, lo, hi):
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def _general_position_check(name, seed, noise, verdict, oracle):
    """An oracle against report(ch)'s verdict on 2000 channels in general position, within 10 s.

    Each channel draws a kind, a gain log-uniform on [0.1, 10] for kinds
    I and II (kappa is None for kind III) and noise (a, b) = noise(rng,
    kind, kappa).  It sits behind a random symplectic pre-unitary and a
    random rotation post-unitary, and a rank-one X is rescaled to a norm
    log-uniform on [0.1, 10], which changes neither complete positivity
    nor any verdict.  Channels that is_cp or report calls non-CP are
    redrawn, and so are those whose canonical margin of the verdict is
    within 1e-5 max(1, |ab|) of zero: there the closed form's margin and
    the oracle's value, which differ in scale, may round differently.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    counts = dict.fromkeys(_GENERAL_KINDS, 0)
    mismatches = false_true = 0
    while sum(counts.values()) < 2000:
        kind = _GENERAL_KINDS[int(rng.integers(len(_GENERAL_KINDS)))]
        kappa = _log_uniform(rng, 0.1, 10.0) if kind in (Kind.I, Kind.II) else None
        ch = canonical_channel(kind, *noise(rng, kind, kappa), kappa)
        ch = compose_post_unitary(compose_pre_unitary(ch, _random_symplectic(rng)),
                                  rotation(rng.uniform(-np.pi, np.pi)))
        if kind is Kind.III_RANK1:
            norm = _log_uniform(rng, 0.1, 10.0)
            ch = Channel(X=ch.X * (norm / np.linalg.norm(ch.X, 2)), Y=ch.Y)
        if not is_cp(ch):
            continue
        rep = report(ch)
        if not rep.cp or \
                abs(rep.margins[verdict]) < 1e-5 * max(1.0, abs(rep.form.a * rep.form.b)):
            continue
        said = oracle(ch)
        if said != getattr(rep, verdict):
            mismatches += 1
            false_true += said
        counts[kind] += 1
    elapsed = time.perf_counter() - t0
    mix = ", ".join(f"{k} {kind.value}" for kind, k in counts.items())
    false_eb = f"{false_true} false-EB verdicts, " if verdict == "eb" else ""
    return CheckResult(name, mismatches == 0 and elapsed < 10.0,
                       f"2000 channels ({mix}), {mismatches} oracle mismatches, "
                       f"{false_eb}{elapsed:.1f} s")


def _ncb_noise(rng, kind, kappa):
    if kind in (Kind.I, Kind.II):
        # (a - 1)(b - 1) = kappa^4 e^{u + v}: breaking iff u + v >= 0
        return 1.0 + kappa ** 2 * np.exp(rng.uniform(-1.5, 1.5, size=2))
    # lambda_min(Y) = b: breaking iff b >= 1
    a = float(np.exp(rng.uniform(0.0, 2.0)))
    return a, 1.0 + float(rng.choice((-1.0, 1.0))) * _log_uniform(rng, 1e-4, 1.0)


def _eb_noise(rng, kind, kappa):
    # a/b = e^{2u}; ab = bound (1 +- delta), breaking iff ab >= bound, with the
    # bound (1 + kappa^2)^2 for kinds I and II and 1 for kind III
    bound = 1.0 if kappa is None else (1.0 + kappa ** 2) ** 2
    u = float(rng.uniform(-6.0, 6.0))
    root = math.sqrt(bound * (1.0 + float(rng.choice((-1.0, 1.0))) * _log_uniform(rng, 1e-4, 1.0)))
    return root * math.exp(u), root * math.exp(-u)


def criterion_10():
    """The squeezed-probe breaking oracle agrees with the closed form on
    2000 channels in general position, within 10 s.

    Gains, rank-one norms and unitaries are drawn as _general_position_check
    describes.  The noise straddles the NCB boundary: (a - 1)(b - 1) within
    e^{+-3} of kappa^4 for kinds I and II, lambda_min(Y) within a relative
    1e-4 to 1 of 1 for kind III.
    """
    return _general_position_check("ncb-oracle-general-position", 1010, _ncb_noise, "ncb",
                                   ncb_oracle_gaussian)


def criterion_11():
    """The two-mode probe entanglement-breaking oracle agrees with the closed
    form on 2000 channels in general position, within 10 s.

    Gains, rank-one norms and unitaries are drawn as in criterion 10.  The
    noise asymmetry a/b = e^{2u} has u uniform on [-6, 6], and ab sits a
    relative distance log-uniform on [1e-4, 1] below or above the EB bound;
    a slack that grows with the noise turns the channels just below it
    into false EB verdicts.
    """
    return _general_position_check("eb-oracle-general-position", 1111, _eb_noise, "eb",
                                   eb_oracle_tmsv)


def convention_pins():
    """Fixed-point checks of the phase-space conventions: normalization,
    vacuum and single-photon peak values, and the regularized P limit."""
    problems = []

    q_w = quasi_from_char(char_vacuum(0.0))
    peak = q_w.values[q_w.side // 2, q_w.side // 2]
    if abs(peak - 1.0 / np.pi) > 1e-8:
        problems.append(f"vacuum Wigner peak {peak:.10f} != 1/pi")
    total = float(q_w.values.sum() * q_w.cell)
    if abs(total - 1.0) > 1e-8:
        problems.append(f"Wigner integral {total:.10f} != 1")

    q_q = quasi_from_char(convert_order(char_vacuum(0.0), -1.0))
    peak_q = q_q.values[q_q.side // 2, q_q.side // 2]
    if abs(peak_q - 1.0 / (2.0 * np.pi)) > 1e-8:
        problems.append(f"vacuum Q peak {peak_q:.10f} != 1/2pi")

    q_f = quasi_from_char(char_fock1(0.0))
    peak_f = q_f.values[q_f.side // 2, q_f.side // 2]
    if abs(peak_f + 1.0 / np.pi) > 1e-8:
        problems.append(f"single-photon Wigner origin {peak_f:.10f} != -1/pi")

    spec = GridSpec(side=257, extent=256.0)
    q_p = quasi_from_char(char_vacuum(1.0 - P_EPS, spec))
    peak_p = q_p.values[q_p.side // 2, q_p.side // 2]
    expected = 1.0 / (np.pi * P_EPS)
    if abs(peak_p - expected) > 1e-4 * expected:
        problems.append(f"regularized vacuum P peak {peak_p:.6f} != {expected:.6f}")
    if q_p.values.min() < -1e-9:
        problems.append(f"regularized vacuum P dips to {q_p.values.min():.3e}")

    ok = not problems
    return CheckResult("convention-pins", ok,
                       "; ".join(problems) if problems else
                       "normalization, vacuum W/Q/P peaks and fock1 dip all pinned")


CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
)

SUITES = {
    "table1": (criterion_1, criterion_2, criterion_3),
    "oracles": (criterion_5, criterion_6, criterion_7, criterion_8, criterion_10,
                criterion_11),
    "fock": (criterion_4,),
    "fft": (criterion_9, convention_pins),
    "all": CRITERIA + (convention_pins,),
}


def run_suite(name):
    """Run one named suite; returns the list of CheckResults."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return [fn() for fn in SUITES[name]]
