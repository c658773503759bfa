"""End-to-end verification checks tying closed forms to independent numerics.

Each check re-derives one guarantee of the package from scratch (direct
inequality restatements, Fourier pipelines, probe-state separability,
random round-trips) and compares against the implemented predicates.
``run_suite`` groups them into named suites for the CLI; the acceptance
test suite runs all of them.

Criteria 5, 6, 10 and 11 share one comparison with a 10 s bound,
_oracle_check; 5 and 6 draw from _canonical_grid's noise grids, 10 and 11
from _general_position, the seeded sampler of channels in general position,
from which criterion 7 draws its entanglement-breaking channels too.
"""

import itertools
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
    compose,
    is_cp,
    rotation,
    unitary,
)
from .phase_space import (
    GridSpec,
    P_EPS,
    char_fock1,
    char_gaussian,
    char_vacuum,
    convert_order,
    fock1_output_p,
    fock1_output_p_fft,
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
    """The NCB and EB boundary curves touch at a = b = 1 + kappa^2: the library's
    contact point is a root bisected here to 1e-9, where the curves' gap is 1e-8."""
    worst = 0.0
    worst_gap = 0.0
    for kappa in _KAPPAS_TABLE:
        eb, k4 = (1.0 + kappa ** 2) ** 2, kappa ** 4
        # the gap b_ncb(a) - b_eb(a) has a double root: bisect its slope's sign change
        lo, hi = 1.0 + 1e-9 * (1.0 + kappa ** 2), 10.0 * (1.0 + kappa ** 2)
        while hi - lo > 1e-13 * hi:
            mid = 0.5 * (lo + hi)
            if eb / mid ** 2 - k4 / (mid - 1.0) ** 2 < 0.0:
                lo = mid
            else:
                hi = mid
        root = 0.5 * (lo + hi)
        a_star, b_star = ncb_eb_tangency(kappa)
        worst = max(worst, abs(a_star - root), abs(b_star - (1.0 + k4 / (root - 1.0))))
        curves = boundary_curves(Kind.I, kappa, a_star)
        worst_gap = max(worst_gap, abs(curves["ncb"] - curves["eb"]))
    ok = worst <= 1e-9 and worst_gap <= 1e-8
    return CheckResult(
        "curve-tangency",
        ok,
        f"worst contact-point deviation {worst:.3e}, worst curve gap {worst_gap:.3e}")


def criterion_4():
    """Single-photon breaking necessity at unit gain: the origin sign test
    agrees with the closed predicate on 1000 random noise pairs, and the
    closed-form output P matches fock1_output_p_fft, the Fourier pipeline
    that pfunc --variant fft prints, to 1e-6."""
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

    errors = {"rederived": 0.0, "printed": 0.0}  # in units of the grid's W = P / 2pi
    for a, b in ((2.0, 2.0), (3.0, 1.5), (4.0, 4.0)):
        axis, p = fock1_output_p_fft(a, b, GridSpec(side=257, extent=10.0))
        a1, a2 = np.meshgrid(axis, axis, indexing="ij")
        for variant, worst in errors.items():
            err = float(np.abs(p - fock1_output_p(a, b, a1, a2, variant=variant)).max())
            errors[variant] = max(worst, err / (2.0 * np.pi))
    ok = mismatches == 0 and errors["rederived"] <= 1e-6
    return CheckResult(
        "fock1-necessity",
        ok,
        f"{checked} sign tests, {mismatches} mismatches; pipeline vs closed form "
        f"max err {errors['rederived']:.3e} (printed variant deviates by {errors['printed']:.3e})")


def _oracle_check(name, channels, verdict, oracle, mix=False):
    """oracle(ch) against rep's verdict over the (kind, ch, rep) triples that channels
    yields, within 10 s from the first draw; kind is the kind the channel was drawn
    as, and with mix the detail line counts the channels of each kind."""
    t0 = time.perf_counter()
    counts = dict.fromkeys(_GENERAL_KINDS, 0)
    mismatches = false_true = 0
    for kind, ch, rep in channels:
        said = oracle(ch)
        if said != getattr(rep, verdict):
            mismatches += 1
            false_true += said
        counts[kind] += 1
    elapsed = time.perf_counter() - t0
    checked = sum(counts.values())
    tally = f" ({', '.join(f'{k} {kind.value}' for kind, k in counts.items())})" if mix else ""
    false_eb = f"{false_true} false-EB verdicts, " if verdict == "eb" else ""
    return CheckResult(name, mismatches == 0 and elapsed < 10.0,
                       f"{checked} channels{tally}, {mismatches} oracle mismatches, "
                       f"{false_eb}{elapsed:.1f} s")


def _canonical_grid(passes, verdict, skip):
    """(kind, ch, report(ch)) for the canonical channels of each (kind, noise grid)
    pass at every kappa of _KAPPAS_GRID, less those within _BOUNDARY_SKIP of the CP
    boundary or skip of the verdict's."""
    for kind, grid in passes:
        for kappa, a, b in itertools.product(_KAPPAS_GRID, grid, grid):
            slack = margins(kind, kappa, a, b)
            if slack["cp"] < _BOUNDARY_SKIP or abs(slack[verdict]) < skip:
                continue
            ch = canonical_channel(kind, a, b, kappa)
            yield kind, ch, report(ch)


def criterion_5():
    """Squeezed-probe breaking oracle agrees with the closed form on a
    20x20x6 noise grid away from the boundary, within 10 s."""
    vals = np.linspace(0.3, 6.0, 20)
    # the second-kind pass, same predicate with flipped-sign X, is thinned
    return _oracle_check("ncb-oracle-grid", _canonical_grid(
        ((Kind.I, vals), (Kind.II, vals[::2])), "ncb", _BOUNDARY_SKIP), "ncb", ncb_oracle_gaussian)


def criterion_6():
    """Probe-state separability oracle agrees with the closed EB margin on
    the noise grid, with no false entanglement-breaking verdicts, within 10 s."""
    return _oracle_check("eb-oracle-grid", _canonical_grid(
        ((Kind.I, np.linspace(0.3, 6.0, 20)),), "eb", 1e-6), "eb", eb_oracle_tmsv)


def _random_symplectic(rng, log_squeeze=1.0):
    lam = float(np.exp(rng.uniform(-log_squeeze, log_squeeze)))
    return (rotation(rng.uniform(-np.pi, np.pi))
            @ np.diag([lam, 1.0 / lam])
            @ rotation(rng.uniform(-np.pi, np.pi)))


def criterion_7():
    """Every entanglement-breaking channel admits a squeeze parameter whose
    orbit point breaks nonclassicality; boundary-EB channels land exactly
    on the breaking boundary.

    The random channels are those report calls EB among the 2000 that
    _general_position draws from seed 707 with criterion 11's noise.
    """
    reps = [rep for _, _, rep in _general_position(707, _eb_noise, "eb") if rep.eb]
    failures = sum(find_r0(rep.form) is None for rep in reps)

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
        f"{len(reps)} random EB channels, {failures} failures; boundary-EB orbit peak "
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


def _general_position(seed, noise, verdict):
    """(kind, ch, report(ch)) for 2000 channels in general position, drawn from seed.

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
    rng = np.random.default_rng(seed)
    drawn = 0
    while drawn < 2000:
        kind = _GENERAL_KINDS[int(rng.integers(len(_GENERAL_KINDS)))]
        kappa = _log_uniform(rng, 0.1, 10.0) if kind in (Kind.I, Kind.II) else None
        ch = canonical_channel(kind, *noise(rng, kind, kappa), kappa)  # noise drawn first
        ch = compose(compose(unitary(_random_symplectic(rng)), ch),
                     unitary(rotation(rng.uniform(-np.pi, np.pi))))
        if kind is Kind.III_RANK1:
            norm = _log_uniform(rng, 0.1, 10.0)
            ch = Channel(X=ch.X * (norm / np.linalg.norm(ch.X, 2)), Y=ch.Y)
        if not is_cp(ch):
            continue
        rep = report(ch)
        if not rep.cp or \
                abs(rep.margins[verdict]) < 1e-5 * max(1.0, abs(rep.form.a * rep.form.b)):
            continue
        drawn += 1
        yield kind, ch, rep


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

    Gains, rank-one norms and unitaries are drawn as _general_position
    describes.  The noise straddles the NCB boundary: (a - 1)(b - 1) within
    e^{+-3} of kappa^4 for kinds I and II, lambda_min(Y) within a relative
    1e-4 to 1 of 1 for kind III.
    """
    return _oracle_check("ncb-oracle-general-position",
                         _general_position(1010, _ncb_noise, "ncb"), "ncb",
                         ncb_oracle_gaussian, mix=True)


def criterion_11():
    """The two-mode probe entanglement-breaking oracle agrees with the closed
    form on 2000 channels in general position, within 10 s.

    Gains, rank-one norms and unitaries are drawn as in criterion 10.  The
    noise asymmetry a/b = e^{2u} has u uniform on [-6, 6], and ab sits a
    relative distance log-uniform on [1e-4, 1] below or above the EB bound;
    a slack that grows with the noise turns the channels just below it
    into false EB verdicts.
    """
    return _oracle_check("eb-oracle-general-position",
                         _general_position(1111, _eb_noise, "eb"), "eb",
                         eb_oracle_tmsv, mix=True)


def convention_pins():
    """Fixed-point checks of the phase-space conventions: normalization,
    vacuum and single-photon peak values, and the regularized P limit."""
    def origin(q):
        return q.values[q.side // 2, q.side // 2]

    q_w = quasi_from_char(char_vacuum(0.0))
    q_p = quasi_from_char(char_vacuum(1.0 - P_EPS, GridSpec(side=257, extent=256.0)))
    expected = 1.0 / (np.pi * P_EPS)
    # (failure message, value, pinned value, tolerance); the P dip is one-sided
    pins = (
        ("vacuum Wigner peak {:.10f} != 1/pi", origin(q_w), 1.0 / np.pi, 1e-8),
        ("Wigner integral {:.10f} != 1", float(q_w.values.sum() * q_w.cell), 1.0, 1e-8),
        ("vacuum Q peak {:.10f} != 1/2pi", origin(quasi_from_char(
            convert_order(char_vacuum(0.0), -1.0))), 1.0 / (2.0 * np.pi), 1e-8),
        ("single-photon Wigner origin {:.10f} != -1/pi",
         origin(quasi_from_char(char_fock1(0.0))), -1.0 / np.pi, 1e-8),
        (f"regularized vacuum P peak {{:.6f}} != {expected:.6f}", origin(q_p), expected,
         1e-4 * expected),
        ("regularized vacuum P dips to {:.3e}", min(q_p.values.min(), 0.0), 0.0, 1e-9),
    )
    problems = [message.format(value) for message, value, pinned, tol in pins
                if abs(value - pinned) > tol]

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
