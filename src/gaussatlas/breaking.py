"""Breaking predicates for canonical Gaussian channels, with oracles.

For a canonical form with gain kappa and noise eigenvalues (a, b) the
closed-form conditions are:

===========  ==========================  ====================  ====================
kind         nonclassicality-breaking    entanglement-break.   complete positivity
===========  ==========================  ====================  ====================
I            (a-1)(b-1) >= kappa^4,      ab >= (1+kappa^2)^2   ab >= (1-kappa^2)^2
             with a > 1 and b > 1
II           same as kind I              ab >= (1+kappa^2)^2   ab >= (1+kappa^2)^2
III (both)   lambda_min(Y0) >= 1         ab >= 1               ab >= 1
===========  ==========================  ====================  ====================

NCB implies EB implies CP, and for kinds II and III the EB and CP
conditions coincide.  Every predicate uses non-strict comparison with a
tol_class slack, expressed through signed margins (>= 0 means the
condition holds exactly).

Each closed form is backed by an independent numerical oracle:

* ``ncb_oracle_gaussian`` searches for a pure squeezed covariance V with
  X^T V X dominated by Y - 1; such a witness lets the output P function
  of any input be written as a smoothed, manifestly nonnegative density.
  lam_min(Y - 1) < -tol rules a witness out at once; otherwise a coarse
  grid and a pattern search over squeezes up to an r_max set by ||X||
  and tol maximize lam_min(Y - 1 - X^T V X), with no fixed resolution
  that a narrow peak could slip through.
* ``ncb_necessity_fock1`` evaluates the closed-form single-photon output
  P function at the origin, whose sign flips exactly at the breaking
  boundary for unit-gain kind-I channels.
* ``eb_oracle_tmsv`` sends one arm of two-mode squeezed vacua through the
  channel and applies the partial-transpose separability test.

The margins take scalars or arrays of noise eigenvalues.  The gain-only
bounds are computed once per call as Python floats, so an array margin
is bit-identical to the same margin evaluated point by point.
``region_sweep`` classifies a whole n-by-n noise grid at once and
returns a ``RegionSweep`` of columns (a, b, region code and the three
margins, a-major), not one object per point; ``classify_region`` labels
a single point through the same code.  ``gaussatlas sweep`` writes
these columns with the same bytes as printing every field of every
point with ``f"{v:.12g}"``; tests/test_cli_golden.py pins them.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .channels import CanonicalForm, Kind, canonical_reduce, cp_defect, is_cp, kind_from_label
from .gaussian_core import TOL_CLASS, apply_channel_one_side, is_ppt_separable, tmsv_variance
from .phase_space import fock1_output_p

DEFAULT_R_LIST = (0.5, 1.0, 2.0, 4.0, 8.0)
REGION_LABELS = ("unphysical", "cp_only", "eb_not_ncb", "ncb")

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_EPS = float(np.finfo(float).eps)
# NCB oracle search: the 9x9 pattern stencil offsets (k, l) with its edge
# mask, and the step-to-radius ratio below which the Cartesian search hands
# over to the polar one
_STENCIL_K = np.repeat(np.arange(-4.0, 5.0), 9)
_STENCIL_L = np.tile(np.arange(-4.0, 5.0), 9)
_STENCIL_EDGE = np.maximum(np.abs(_STENCIL_K), np.abs(_STENCIL_L)) == 4.0
_POLAR_HANDOFF = 1.0 / 64


# -- closed-form margins --------------------------------------------------- #


def _kappa_bounds(kind, kappa):
    """The gain-only bounds (cp, eb, ncb) of a canonical kind, as Python floats.

    cp and eb bound the product ab; the ncb entry bounds (a-1)(b-1) and
    is None for kind III, whose NCB condition has no product term.
    Raises OverflowError when a bound does not fit in a double.
    """
    kind = kind_from_label(kind)
    kappa = float(kappa)
    if kind in (Kind.I, Kind.II):
        try:
            eb = (1.0 + kappa ** 2) ** 2
            cp = (1.0 - kappa ** 2) ** 2 if kind is Kind.I else eb
            return cp, eb, kappa ** 4
        except OverflowError:
            raise OverflowError(f"the bounds of gain {kappa!r} overflow a double") from None
    return 1.0, 1.0, None


def cp_margin(kind, kappa, a, b):
    """Signed slack of the complete-positivity condition, ab minus its bound.

    a and b may be arrays of one shape; the margin is elementwise.
    """
    return a * b - _kappa_bounds(kind, kappa)[0]


def eb_margin(kind, kappa, a, b):
    """Signed slack of the entanglement-breaking condition."""
    return a * b - _kappa_bounds(kind, kappa)[1]


def ncb_margin(kind, kappa, a, b):
    """Signed slack of the nonclassicality-breaking condition.

    For kinds I and II all three constraints (a above 1, b above 1, and
    the product inequality) must hold, so the margin is their minimum;
    for kind III it is the distance of the smaller noise eigenvalue
    from 1.
    """
    k4 = _kappa_bounds(kind, kappa)[2]
    margin = np.minimum(a - 1.0, b - 1.0)
    if k4 is not None:
        margin = np.minimum(margin, (a - 1.0) * (b - 1.0) - k4)
    return margin if isinstance(margin, np.ndarray) else float(margin)


def is_ncb(form, tol=TOL_CLASS):
    """Nonclassicality-breaking verdict from the canonical closed form."""
    return ncb_margin(form.kind, form.kappa, form.a, form.b) >= -tol


def is_eb(form, tol=TOL_CLASS):
    """Entanglement-breaking verdict from the canonical closed form."""
    return eb_margin(form.kind, form.kappa, form.a, form.b) >= -tol


def is_cp_form(form, tol=TOL_CLASS):
    """Complete-positivity verdict from the canonical closed form."""
    return cp_margin(form.kind, form.kappa, form.a, form.b) >= -tol


# -- reports --------------------------------------------------------------- #


@dataclass(frozen=True, eq=False)
class BreakingReport:
    """All three verdicts for one channel, with margins and shifted noise.

    shifted_noise is (a + kappa^2 - 1, b + kappa^2 - 1), the effective
    added noise relative to the classicality threshold at unit gain.
    The verdicts always satisfy ncb <= eb <= cp as booleans.
    """

    form: CanonicalForm
    cp: bool
    eb: bool
    ncb: bool
    shifted_noise: tuple
    margins: dict


def report(ch, tol=TOL_CLASS):
    """Reduce a channel and evaluate every closed-form predicate."""
    form = canonical_reduce(ch)
    margins = {
        "cp": cp_margin(form.kind, form.kappa, form.a, form.b),
        "eb": eb_margin(form.kind, form.kappa, form.a, form.b),
        "ncb": ncb_margin(form.kind, form.kappa, form.a, form.b),
    }
    shift = form.kappa ** 2 - 1.0
    return BreakingReport(
        form=form,
        cp=margins["cp"] >= -tol,
        eb=margins["eb"] >= -tol,
        ncb=margins["ncb"] >= -tol,
        shifted_noise=(form.a + shift, form.b + shift),
        margins=margins,
    )


# -- independent oracles --------------------------------------------------- #


def _unit_disk_grid(n):
    """An n x n grid over [-1, 1]^2 pulled radially into the unit disk.

    Returns the points as (p, q) and as (r, theta) with theta half their
    polar angle, the coordinates of _dominance.
    """
    axis = np.linspace(-1.0, 1.0, n)
    p, q = np.repeat(axis, n), np.tile(axis, n)
    r = np.hypot(p, q)
    shrink = 1.0 / np.maximum(r, 1.0)
    return p * shrink, q * shrink, r * shrink, 0.5 * np.arctan2(q, p)


_COARSE_N = 41
_COARSE_GRID = _unit_disk_grid(_COARSE_N)  # scaled by r_max, seeds the oracle search
_COARSE_TRIG = (np.cos(_COARSE_GRID[3]), np.sin(_COARSE_GRID[3]))  # of its theta, once


def _dominance(X, Y):
    """f(r, theta) = lam_min(Y - 1 - X^T V X) over arrays of pure covariances.

    V(r, theta) = R diag(e^{2r}, e^{-2r}) R^T, R the rotation by theta, is
    the vacuum squeezed by r along the axis u = (cos theta, sin theta); it
    equals exp(2 [[p, q], [q, -p]]) with (p, q) = r (cos 2theta, sin 2theta).
    f uses X^T V X = e^{-2r} X^T X + (e^{2r} - e^{-2r}) (X^T u)(X^T u)^T,
    which unlike cosh 2r X^T X + (sinh 2r / r) X^T [[p, q], [q, -p]] X
    does not cancel where e^{2r} is large.  f(r, theta, trig) takes
    trig = (cos theta, sin theta) when the caller has them already.
    """
    (x11, x12), (x21, x22) = X.tolist()
    (y11, y12), (_, y22) = Y.tolist()
    d11, d22 = y11 - 1.0, y22 - 1.0
    g11, g12, g22 = x11 * x11 + x21 * x21, x11 * x12 + x21 * x22, x12 * x12 + x22 * x22

    def f(r, theta, trig=None):
        c, s = (np.cos(theta), np.sin(theta)) if trig is None else trig
        shrink = np.exp(-2.0 * r)
        gap = 1.0 / shrink - shrink
        xu1, xu2 = x11 * c + x21 * s, x12 * c + x22 * s
        gap_xu1 = gap * xu1
        return _kernels.eigmin_sym2_batch(d11 - g11 * shrink - gap_xu1 * xu1,
                                          y12 - g12 * shrink - gap_xu1 * xu2,
                                          d22 - g22 * shrink - gap * xu2 * xu2)

    return f


def _climb(f, clip, x, y, best, step, y_scale, tol, r_max, handoff=0.0):
    """Pattern search for max f from (x, y) on a 9x9 stencil of spacing step.

    The stencil spans (x + k step, y + l step y_scale), k, l in -4..4; f
    evaluates it as clipped into the search domain, and clip maps the
    point taken into the domain.  A better point on the stencil's edge
    doubles the step (at most r_max); a better point inside it, or none,
    halves the step.  Stops once best >= -tol or the step falls below
    max(1e-12 r_max, handoff |(x, y)|).
    """
    stop = 1e-12 * r_max
    while step > max(stop, handoff * math.hypot(x, y)):
        xs = x + step * _STENCIL_K
        ys = y + (step * y_scale) * _STENCIL_L
        vals = f(xs, ys)
        k = int(np.argmax(vals))
        if vals[k] > best:
            best, (x, y) = float(vals[k]), clip(float(xs[k]), float(ys[k]))
            if best >= -tol:
                break
            if _STENCIL_EDGE[k]:
                step = min(2.0 * step, r_max)
                continue
        step *= 0.5
    return best, x, y, step


def ncb_oracle_gaussian(ch, tol=TOL_CLASS):
    """Numerical nonclassicality-breaking check, independent of the table.

    Maximizes f(V) = lam_min(Y - 1 - X^T V X) over pure covariances V and
    reports whether some V is dominated by the channel noise, f(V) >= -tol.
    Such a V certifies that every output P function is a Gaussian
    smoothing of a nonnegative phase-space density, hence pointwise
    nonnegative for every input state; the existence of such a V (to
    within tol) is also necessary, so the verdict reproduces the closed
    form without using it.

    Since X^T V X >= 0, f <= lam_min(Y - 1) everywhere: below -tol that
    bound decides "not NCB" at once.  Otherwise the search runs over
    V = exp(2 [[p, q], [q, -p]]) with r = |(p, q)| <= r_max, where
    r_max = ln(10 ||X||^2 / tol) / 2 (at least 1) keeps the gap a singular
    X leaves at the edge, ||X||^2 e^{-2 r_max}, at tol/10; tol is floored
    at the double-precision resolution of f.  A 41x41 grid over the square
    |p|, |q| <= r_max, pulled into the disk, seeds a pattern search in
    (p, q), which hands over to a pattern search in (r, theta), theta the
    squeeze axis, once its step is below r/64.  Near the origin only the
    Cartesian chart is regular; far from it only polar steps follow the
    straight ridge that leads to the edge for nearly singular X, which
    Cartesian steps can only cross.  Both searches stop as soon as
    f >= -tol, else when the step falls below 1e-12 r_max.
    """
    if not is_cp(ch):
        raise ValueError("oracle needs a completely positive channel")
    X, Y = ch.X, ch.Y
    if _kernels.eigmin_sym2(Y[0, 0] - 1.0, Y[0, 1], Y[1, 1] - 1.0) < -tol:
        return False
    G = X.T @ X
    norm2 = -_kernels.eigmin_sym2(-G[0, 0], -G[0, 1], -G[1, 1])  # ||X||_2^2
    resolution = max(tol, _EPS * max(1.0, float(np.abs(Y).max())))
    r_max = max(1.0, 0.5 * math.log(max(1.0, 10.0 * norm2 / resolution)))

    dominance = _dominance(X, Y)

    def cartesian(p, q):
        return dominance(np.minimum(np.hypot(p, q), r_max), 0.5 * np.arctan2(q, p))

    def into_disk(p, q):
        shrink = r_max / max(math.hypot(p, q), r_max)
        return p * shrink, q * shrink

    def polar(r, theta):
        return dominance(np.minimum(np.maximum(r, 0.0), r_max), theta)

    def into_range(r, theta):
        return min(max(r, 0.0), r_max), theta

    grid_p, grid_q, grid_r, grid_theta = _COARSE_GRID
    vals = dominance(r_max * grid_r, grid_theta, _COARSE_TRIG)
    k = int(np.argmax(vals))
    best, p, q = float(vals[k]), r_max * float(grid_p[k]), r_max * float(grid_q[k])
    step = 2.0 * r_max / (_COARSE_N - 1)
    best, p, q, step = _climb(cartesian, into_disk, p, q, best, step, 1.0, tol, r_max,
                              handoff=_POLAR_HANDOFF)
    r = math.hypot(p, q)
    if best < -tol and r > 0.0:
        # a step in theta moves the point 2r times as far as in r
        best, *_ = _climb(polar, into_range, r, 0.5 * math.atan2(q, p), best, step,
                          0.5 / r, tol, r_max)
    return bool(best >= -tol)


def ncb_necessity_fock1(form, tol=TOL_CLASS):
    """Origin-sign test of the single-photon output P function.

    Only meaningful for unit-gain kind-I forms, where the closed-form
    output P exists; its value at the origin is nonnegative iff
    1/a + 1/b <= 1, which coincides with the full breaking condition.
    """
    if form.kind is not Kind.I or abs(form.kappa - 1.0) > 1e-9:
        raise ValueError("single-photon necessity test needs kind I with unit gain")
    return fock1_output_p(form.a, form.b, 0.0, 0.0) >= -tol


def eb_oracle_tmsv(ch, r_list=DEFAULT_R_LIST):
    """Entanglement-breaking check via two-mode squeezed probes.

    Applies the channel to one arm of a two-mode squeezed vacuum for each
    squeeze value in r_list and tests the output for separability with
    the partial-transpose criterion (exact for 1+1-mode Gaussian states).
    True means every tested probe came out separable; r values of a few
    units already place the flip at the closed-form boundary.  All probes
    form one (len(r_list), 4, 4) stack, sent through the channel and the
    PPT test in one call each.
    """
    if not is_cp(ch):
        raise ValueError("oracle needs a completely positive channel")
    outputs = apply_channel_one_side(ch.X, ch.Y, tmsv_variance(r_list))
    return bool(np.all(is_ppt_separable(outputs)))


# -- squeeze orbits --------------------------------------------------------- #


@dataclass(frozen=True, eq=False)
class OrbitPoint:
    """One point of the post-squeeze orbit: noise (a_r, b_r) and its verdict.

    The product a_r * b_r is invariant along the orbit, so EB and CP
    verdicts never change with r; only the NCB verdict can.
    """

    r: float
    a_r: float
    b_r: float
    ncb: bool


def squeeze_orbit(form, r, tol=TOL_CLASS):
    """Noise eigenvalues after composing with a post-squeeze of parameter r.

    The post-unitary diag(e^-r, e^r) maps (a, b) to (a e^-2r, b e^2r)
    and leaves kappa unchanged.
    """
    a_r = form.a * math.exp(-2.0 * r)
    b_r = form.b * math.exp(2.0 * r)
    verdict = ncb_margin(form.kind, form.kappa, a_r, b_r) >= -tol
    return OrbitPoint(r=float(r), a_r=a_r, b_r=b_r, ncb=verdict)


def _golden_max(f, lo, hi, r_tol):
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > r_tol:
        if fc < fd:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = f(d)
        else:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = f(c)
    return 0.5 * (lo + hi)


def find_r0(form, r_tol=1e-10, tol=TOL_CLASS):
    """Squeeze parameter whose orbit point is nonclassicality-breaking.

    Maximizes f(r) = (a e^-2r - 1)(b e^2r - 1) by golden-section search
    on the interval where both factors are positive (it is unimodal
    there, with analytic maximum (sqrt(ab) - 1)^2 at r = ln(a/b)/4).
    Returns the maximizer if its orbit point passes the breaking test,
    else None; for a genuinely entanglement-breaking form the product
    bound ab >= (1 + kappa^2)^2 guarantees success.
    """
    if not is_eb(form, tol=tol):
        raise ValueError("orbit search needs an entanglement-breaking form")
    a, b = form.a, form.b
    r_star = 0.25 * math.log(a / b)
    if a * b > 1.0:
        lo = -0.5 * math.log(b)
        hi = 0.5 * math.log(a)
        if hi - lo > 4.0 * r_tol:
            def f(r):
                return (a * math.exp(-2.0 * r) - 1.0) * (b * math.exp(2.0 * r) - 1.0)

            r_star = _golden_max(f, lo, hi, r_tol)
    point = squeeze_orbit(form, r_star, tol=tol)
    return float(r_star) if point.ncb else None


# -- region classification -------------------------------------------------- #


@dataclass(frozen=True, eq=False)
class RegionSweep:
    """Columns of an n-by-n region sweep at one (kind, kappa).

    Every column has n*n entries in a-major order (b varies fastest);
    code indexes REGION_LABELS.
    """

    kind: Kind
    kappa: float
    a: np.ndarray
    b: np.ndarray
    code: np.ndarray
    cp_margin: np.ndarray
    eb_margin: np.ndarray
    ncb_margin: np.ndarray


def _region_code(kind, kappa, a, b, tol):
    """Region codes and the (cp, eb, ncb) margins at the points (a, b).

    A product beyond the double range gives an inf margin, the intended
    value, without an overflow warning.
    """
    with np.errstate(over="ignore"):
        margins = (cp_margin(kind, kappa, a, b), eb_margin(kind, kappa, a, b),
                   ncb_margin(kind, kappa, a, b))
    # the first failing condition names the region; all passing is ncb
    code = np.select([m < -tol for m in margins], [0, 1, 2], 3).astype(np.int8)
    return code, margins


def classify_region(kind, kappa, a, b, tol=TOL_CLASS):
    """Label of one noise-plane point: one of the four nested REGION_LABELS."""
    code, _ = _region_code(kind, kappa, a, b, tol)
    return REGION_LABELS[int(code)]


def region_sweep(kind, kappa, a_min, a_max, b_min, b_max, n, tol=TOL_CLASS):
    """Classify an n-by-n noise grid; columns ordered a-major then b."""
    if n < 2:
        raise ValueError("sweep needs at least a 2x2 grid")
    kind = kind_from_label(kind)
    a = np.repeat(np.linspace(a_min, a_max, n), n)
    b = np.tile(np.linspace(b_min, b_max, n), n)
    code, (cp_m, eb_m, ncb_m) = _region_code(kind, kappa, a, b, tol)
    return RegionSweep(kind=kind, kappa=float(kappa), a=a, b=b, code=code,
                       cp_margin=cp_m, eb_margin=eb_m, ncb_margin=ncb_m)


# -- boundary curves --------------------------------------------------------- #


class BoundaryCurve:
    """One region boundary b(a) at fixed kind and kappa.

    name selects the condition: "cp" and "eb" are the hyperbolas
    ab = bound; "ncb" is b = 1 + kappa^4/(a - 1) for kinds I and II
    (defined for a > 1, +inf otherwise) and the corner line b = 1,
    a >= 1 for kind III.
    """

    def __init__(self, name, kind, kappa):
        if name not in ("cp", "eb", "ncb"):
            raise ValueError("curve name must be 'cp', 'eb' or 'ncb'")
        self.name = name
        self.kind = kind_from_label(kind)
        self.kappa = float(kappa)
        if name == "cp":
            self._bound = cp_margin(self.kind, self.kappa, 0.0, 0.0) * -1.0
        elif name == "eb":
            self._bound = eb_margin(self.kind, self.kappa, 0.0, 0.0) * -1.0
        else:
            self._bound = None

    def b_of_a(self, a):
        """b on the curve at a; inf where the bound over a passes the double range."""
        a = np.asarray(a, dtype=float)
        with np.errstate(over="ignore"):
            if self._bound is not None:
                out = np.where(a > 0, self._bound / np.where(a > 0, a, 1.0), np.inf)
            elif self.kind in (Kind.I, Kind.II):
                safe = np.where(a > 1.0, a - 1.0, 1.0)
                out = np.where(a > 1.0, 1.0 + self.kappa ** 4 / safe, np.inf)
            else:
                out = np.where(a >= 1.0, 1.0, np.inf)
        return out if out.ndim else float(out)

    def slope(self, a):
        a = np.asarray(a, dtype=float)
        if self._bound is not None:
            out = np.where(a > 0, -self._bound / np.where(a > 0, a, 1.0) ** 2, np.nan)
        elif self.kind in (Kind.I, Kind.II):
            safe = np.where(a > 1.0, a - 1.0, 1.0)
            out = np.where(a > 1.0, -self.kappa ** 4 / safe ** 2, np.nan)
        else:
            out = np.where(a >= 1.0, 0.0, np.nan)
        return out if out.ndim else float(out)

    def sample(self, a_min, a_max, n=512):
        a = np.linspace(a_min, a_max, n)
        return a, self.b_of_a(a)


def boundary_curves(kind, kappa):
    """The three boundary curves of a canonical family, keyed by name."""
    return {name: BoundaryCurve(name, kind, kappa) for name in ("cp", "eb", "ncb")}


def ncb_eb_tangency(kappa, rel_tol=1e-13):
    """Touching point of the NCB and EB boundary curves for kinds I and II.

    The gap b_ncb(a) - b_eb(a) has a double root, so the contact point is
    located by bisecting the sign change of its derivative; the curves
    touch at a = b = 1 + kappa^2, which this computes to rel_tol without
    using that closed form.
    """
    kappa = float(kappa)
    if not kappa > 0:
        raise ValueError("tangency needs a positive kappa")
    k4 = kappa ** 4
    eb_bound = (1.0 + kappa ** 2) ** 2

    def gap_slope(a):
        return eb_bound / a ** 2 - k4 / (a - 1.0) ** 2

    lo = 1.0 + 1e-9 * (1.0 + kappa ** 2)
    hi = 10.0 * (1.0 + kappa ** 2)
    if not (gap_slope(lo) < 0.0 < gap_slope(hi)):
        raise RuntimeError("tangency bracket failed")
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if gap_slope(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    a_star = 0.5 * (lo + hi)
    return a_star, 1.0 + k4 / (a_star - 1.0)
