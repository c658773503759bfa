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

* ``ncb_oracle_gaussian`` asks for a pure covariance V with X^T V X
  dominated by Y - 1; such a witness lets the output P function of any
  input be written as a smoothed, manifestly nonnegative density.  The
  supremum over pure V of lam_min(Y - 1 - X^T V X) has a closed form in
  the raw (X, Y), the smaller eigenvalue of the Hermitian
  [[y11 - 1, y12 + i det X], [y12 - i det X, y22 - 1]], and the verdict
  is that supremum >= -tol.
* ``ncb_necessity_fock1`` evaluates the closed-form single-photon output
  P function at the origin, whose sign flips exactly at the breaking
  boundary for unit-gain kind-I channels.
* ``eb_oracle_tmsv`` sends one arm of a two-mode squeezed vacuum through
  the channel and applies the partial-transpose separability test; the
  Schur complement of the probe's block reduces that test, exactly and
  for every squeeze, to one closed-form 2x2 Hermitian eigenvalue.

``margins`` is the one evaluator of the table: it returns all three
signed margins, for scalar noise eigenvalues or for arrays that
broadcast.  The gain-only bounds are computed once per call as Python
floats, so an array margin is bit-identical to the same margin evaluated
point by point.  ``report`` reads it for one channel; ``region_sweep``
evaluates it once on an (n, 1) a axis against an (n,) b axis and
returns a ``RegionSweep`` of the two axes and (n, n) grids (region code
and the three margins), not one object per point; ``report(ch).region``
names the region by the same rule, and ``boundary_curves`` gives the
three region boundaries b(a).  ``gaussatlas sweep`` writes these grids
with the same bytes as printing every field of every point with
``f"{v:.12g}"``; tests/test_cli_golden.py pins them.

Every entanglement-breaking channel becomes nonclassicality-breaking
after one post-squeeze: ``find_r0`` returns the squeeze r0 = ln(a/b)/4
that balances the two noise eigenvalues.

The result records are plain classes with ``__slots__``, read-only by
convention; the CP verdict they rest on is decided when a Channel is built.
"""

import math

from . import _kernels
from .channels import Kind, canonical_reduce, is_cp, kind_from_label

TOL_CLASS = 1e-6  # default verdict slack: a margin >= -TOL_CLASS holds
REGION_LABELS = ("unphysical", "cp_only", "eb_not_ncb", "ncb")
_KIND_I, _KIND_II = Kind.I, Kind.II  # for identity tests: Kind.I is a slow lookup on 3.11


# -- closed-form margins --------------------------------------------------- #


def _kappa_bounds(kind, kappa):
    """The gain-only bounds (cp, eb, ncb) of a canonical kind, as Python floats.

    cp and eb bound the product ab; the ncb entry bounds (a-1)(b-1) and
    is None for kind III, whose NCB condition has no product term.
    Raises OverflowError when a bound does not fit in a double.
    """
    if kind.__class__ is not Kind:
        kind = kind_from_label(kind)
    kappa = float(kappa)
    if kind is _KIND_I or kind is _KIND_II:
        try:
            eb = (1.0 + kappa ** 2) ** 2
            cp = (1.0 - kappa ** 2) ** 2 if kind is _KIND_I else eb
            return cp, eb, kappa ** 4
        except OverflowError:
            raise OverflowError(f"the bounds of gain {kappa!r} overflow a double") from None
    return 1.0, 1.0, None


def _fmin(x, y):
    """np.minimum's rule on two Python floats, bit for bit: y unless x is smaller or NaN."""
    return x if x < y or x != x else y


def margins(kind, kappa, a, b):
    """Signed slacks {"cp", "eb", "ncb"} of the table's three conditions.

    cp and eb are ab minus their bounds.  For kinds I and II all three
    NCB constraints (a above 1, b above 1, and the product inequality)
    must hold, so the ncb margin is their minimum; for kind III it is
    the distance of the smaller noise eigenvalue from 1.  a and b are
    scalars, giving Python floats, or arrays that broadcast, such as an
    (n, 1) column of a against an (n,) row of b, giving one grid each;
    where the cp and eb bounds are the same float (kinds II and III) the eb
    grid is the cp grid object itself.  The bounds are Python floats, so every
    element of an array margin has the bits of the same margin at that point.
    """
    cp, eb, k4 = _kappa_bounds(kind, kappa)
    if type(a) is float and type(b) is float:
        minimum = _fmin
    else:
        from numpy import minimum
    ab = a * b
    ncb = minimum(a - 1.0, b - 1.0)
    if k4 is not None:
        ncb = minimum(ncb, (a - 1.0) * (b - 1.0) - k4)
    if getattr(ncb, "ndim", 0):  # an array
        grid = ab - cp
        return {"cp": grid, "eb": grid if eb == cp else ab - eb, "ncb": ncb}
    return {"cp": float(ab - cp), "eb": float(ab - eb), "ncb": float(ncb)}


# -- reports --------------------------------------------------------------- #


class BreakingReport:
    """All three verdicts for one channel, with margins and shifted noise.

    The verdicts read only the form's (kind, kappa, a, b), not its
    witnesses.  shifted_noise is (a + kappa^2 - 1, b + kappa^2 - 1), the
    effective added noise relative to the classicality threshold at unit
    gain.  The verdicts always satisfy ncb <= eb <= cp as booleans.
    """

    __slots__ = ("form", "cp", "eb", "ncb", "shifted_noise", "margins")

    def __init__(self, form, cp, eb, ncb, shifted_noise, margins):
        self.form, self.cp, self.eb, self.ncb = form, cp, eb, ncb
        self.shifted_noise, self.margins = shifted_noise, margins

    @property
    def region(self):
        """One of the nested REGION_LABELS: the first failing verdict names it."""
        return REGION_LABELS[(self.cp, self.eb, self.ncb, False).index(False)]


def report(ch, tol=TOL_CLASS):
    """Every closed-form predicate, from the channel's (kind, kappa, a, b) alone."""
    form = canonical_reduce(ch)
    slack = margins(form.kind, form.kappa, form.a, form.b)
    shift = form.kappa ** 2 - 1.0
    return BreakingReport(
        form=form,
        cp=slack["cp"] >= -tol,
        eb=slack["eb"] >= -tol,
        ncb=slack["ncb"] >= -tol,
        shifted_noise=(form.a + shift, form.b + shift),
        margins=slack,
    )


# -- independent oracles --------------------------------------------------- #


def ncb_oracle_gaussian(ch, tol=TOL_CLASS):
    """Numerical nonclassicality-breaking check, independent of the table.

    Asks whether some pure covariance V is dominated by the channel
    noise, f(V) = lam_min(Y - 1 - X^T V X) >= -tol.  Such a V certifies
    that every output P function is a Gaussian smoothing of a
    nonnegative phase-space density, hence pointwise nonnegative for
    every input state; the existence of such a V (to within tol) is also
    necessary.  The oracle reads only the raw (X, Y), not the canonical
    reduction or the closed-form table, and decides by sup_V f >= -tol.

    The supremum has a closed form.  With D = Y - 1, f(V) >= t iff
    D - t 1 >= X^T V X.  For invertible X that holds for some pure V
    (det V = 1) iff M = X^-T (D - t 1) X^-1 >= 0 with det M >= 1: V <= M
    forces det M >= det V = 1, and conversely V* = M / sqrt(det M) is
    pure with V* <= M.  So f reaches t iff D - t 1 >= 0 and
    det(D - t 1) >= (det X)^2, and the largest such t is the smaller
    root of t^2 - tr(D) t + det D - (det X)^2 = 0, the smaller eigenvalue
    of the Hermitian D + i det(X) sigma:

        sup_V f = eig2(y11 - 1, y12, y22 - 1, det X)[1].

    For a singular X the same formula gives lam_min(Y - 1), which bounds
    f since X^T V X >= 0; a V whose long axis lies in ker X^T approaches
    it as its squeeze grows, but no V attains it.
    """
    if not is_cp(ch):
        raise ValueError("oracle needs a completely positive channel")
    y11, y12, _, y22 = ch._y
    return _kernels.eig2(y11 - 1.0, y12, y22 - 1.0, ch.det_x)[1] >= -tol


def ncb_necessity_fock1(form, tol=TOL_CLASS):
    """Origin-sign test of the single-photon output P function.

    Only meaningful for unit-gain kind-I forms, where the closed-form
    output P exists; its value at the origin is nonnegative iff
    1/a + 1/b <= 1, which coincides with the full breaking condition.
    The value is fock1_output_p(a, b, 0, 0) on floats, with its bits and
    refusals; where a^2 or b^2 underflows to 0 its term 0 / 0 is NaN.
    """
    if form.kind is not Kind.I or abs(form.kappa - 1.0) > 1e-9:
        raise ValueError("single-photon necessity test needs kind I with unit gain")
    a, b = form.a, form.b
    if a <= 0 or b <= 0:
        raise ValueError("noise parameters must be positive")
    if 0.0 in (a ** 2, b ** 2):
        return False
    return 2.0 / math.sqrt(a * b) * (1.0 - 1.0 / a - 1.0 / b) >= -tol


def eb_oracle_tmsv(ch):
    """Entanglement-breaking check via two-mode squeezed probes, in closed form.

    One arm of a two-mode squeezed vacuum of squeeze r > 0 goes through
    the channel; the output is separable iff its partial transpose is a
    valid state (Simon, PRL 84, 2726 (2000)), and for a probe of full
    Schmidt rank that decides entanglement breaking.  With c = cosh 2r,
    s = sinh 2r and sigma the single-mode symplectic form, the partial
    transpose on mode 2 is [[c X^T X + Y, s X^T], [s X, c 1]], and it is a
    valid state iff

        [[c X^T X + Y + i sigma, s X^T], [s X, c 1 + i sigma]] >= 0.

    The lower block has eigenvalues c -+ 1 > 0, and its inverse is
    (c 1 - i sigma) / s^2, so the matrix is PSD iff its Schur complement
    Y + i sigma + i X^T sigma X is.  For 2x2 X, X^T sigma X = det(X) sigma:
    the test is Y + i (1 + det X) sigma >= 0, the same for every r > 0,
    so no probe squeeze is chosen and nothing grows like e^{2r}.  (The CP
    matrix is the same with 1 - det X.)  Its smallest eigenvalue, by
    _kernels.eig2, is compared with the slack of
    _kernels.herm2_psd, 16 eps max(1, |y_ij|, |1 + det X|), a few
    roundings that do not grow with the noise.
    """
    if not is_cp(ch):
        raise ValueError("oracle needs a completely positive channel")
    y11, y12, _, y22 = ch._y
    return _kernels.herm2_psd(y11, y12, y22, 1.0 + ch.det_x)


# -- squeeze orbits --------------------------------------------------------- #


class OrbitPoint:
    """One point of the post-squeeze orbit: noise (a_r, b_r) and its verdict.

    The product a_r * b_r is invariant along the orbit, so EB and CP
    verdicts never change with r; only the NCB verdict can.
    """

    __slots__ = ("r", "a_r", "b_r", "ncb")

    def __init__(self, r, a_r, b_r, ncb):
        self.r, self.a_r, self.b_r, self.ncb = r, a_r, b_r, ncb


def squeeze_orbit(form, r, tol=TOL_CLASS):
    """Noise eigenvalues after composing with a post-squeeze of parameter r.

    The post-unitary diag(e^-r, e^r) maps (a, b) to (a e^-2r, b e^2r)
    and leaves kappa unchanged.
    """
    a_r = form.a * math.exp(-2.0 * r)
    b_r = form.b * math.exp(2.0 * r)
    verdict = margins(form.kind, form.kappa, a_r, b_r)["ncb"] >= -tol
    return OrbitPoint(r=float(r), a_r=a_r, b_r=b_r, ncb=verdict)


def find_r0(form, tol=TOL_CLASS):
    """The balancing squeeze r0 = ln(a/b)/4, if its orbit point breaks nonclassicality.

    Along the orbit the product ab is invariant, so
    (a e^-2r - 1)(b e^2r - 1) = ab + 1 - a e^-2r - b e^2r is largest
    where the sum a e^-2r + b e^2r is smallest: where its two terms are
    equal, a e^-2r = b e^2r, with peak (sqrt(ab) - 1)^2.  Returns r0 if
    its orbit point passes the breaking test, else None; for an
    entanglement-breaking form the bound ab >= (1 + kappa^2)^2
    guarantees success.  None when a or b is 0, which no squeeze lifts
    to 1.  Raises ValueError when the EB margin is below -tol.  r0 squeezes
    in Y's eigenframe, where (a, b) live: the rotation taking Y to diag(a, b)
    is form.R for kinds I, II and III_zero, but not for III_rank1, whose
    form.R is fixed by the SVD of X.
    """
    if not margins(form.kind, form.kappa, form.a, form.b)["eb"] >= -tol:
        raise ValueError("orbit search needs an entanglement-breaking form")
    if form.a == 0.0 or form.b == 0.0:
        return None
    ratio = form.a / form.b
    # ln a - ln b where a / b overflows; elsewhere ln(a / b), with its bits
    r0 = 0.25 * (math.log(ratio) if math.isfinite(ratio) else math.log(form.a) - math.log(form.b))
    return r0 if squeeze_orbit(form, r0, tol=tol).ncb else None


# -- region classification -------------------------------------------------- #


class RegionSweep:
    """An n-by-n region sweep at one (kind, kappa).

    a and b are the two noise axes, n points each; code and each entry
    of margins ({"cp", "eb", "ncb"}) are (n, n) grids, row i at a[i] and
    column j at b[j].  code indexes REGION_LABELS.
    """

    __slots__ = ("kind", "kappa", "a", "b", "code", "margins")

    def __init__(self, kind, kappa, a, b, code, margins):
        self.kind, self.kappa, self.a, self.b = kind, kappa, a, b
        self.code, self.margins = code, margins


def region_sweep(kind, kappa, a_min, a_max, b_min, b_max, n, tol=TOL_CLASS):
    """Classify an n-by-n noise grid, margins evaluated on the broadcast axes.

    A product beyond the double range gives an inf margin, the intended
    value, without an overflow warning.
    """
    import numpy as np
    if n < 2:
        raise ValueError("sweep needs at least a 2x2 grid")
    kind = kind_from_label(kind)
    a = np.linspace(a_min, a_max, n)
    b = np.linspace(b_min, b_max, n)
    with np.errstate(over="ignore"):
        grids = margins(kind, kappa, a[:, None], b)
    # the first failing condition names the region, as in BreakingReport.region
    code = np.select([~(m >= -tol) for m in grids.values()], [0, 1, 2], 3).astype(np.int8)
    return RegionSweep(kind, float(kappa), a, b, code, grids)


# -- boundary curves --------------------------------------------------------- #


def boundary_curves(kind, kappa, a):
    """The three region boundaries b(a) of a canonical family at the points a.

    Returns {"cp", "eb", "ncb"}, each b on its curve: an array for an
    array a, a float for a scalar, and inf where the curve has no point
    or b passes the double range.  "cp" and "eb" are the hyperbolas
    ab = bound; "ncb" is b = 1 + kappa^4/(a - 1) for kinds I and II
    (a > 1) and the corner line b = 1, a >= 1, for kind III.
    """
    import numpy as np
    cp, eb, k4 = _kappa_bounds(kind, kappa)
    a = np.asarray(a, dtype=float)
    curves = {}
    with np.errstate(over="ignore"):
        for name, bound in (("cp", cp), ("eb", eb)):
            bound = -(0.0 - bound)  # -0.0 at a zero bound
            curves[name] = np.where(a > 0, bound / np.where(a > 0, a, 1.0), np.inf)
        if k4 is not None:
            safe = np.where(a > 1.0, a - 1.0, 1.0)
            curves["ncb"] = np.where(a > 1.0, 1.0 + k4 / safe, np.inf)
        else:
            curves["ncb"] = np.where(a >= 1.0, 1.0, np.inf)
    return {name: b if b.ndim else float(b) for name, b in curves.items()}


def ncb_eb_tangency(kappa):
    """Touching point (1 + kappa^2, 1 + kappa^2) of the NCB and EB boundary curves
    for kinds I and II, where the gap b_ncb(a) - b_eb(a) has a double root.

    Refuses a kappa that is not positive and finite with ValueError, and one
    whose bounds overflow a double with _kappa_bounds's OverflowError.
    """
    kappa = float(kappa)
    if not 0.0 < kappa < math.inf:
        raise ValueError("tangency needs a positive, finite kappa")
    _kappa_bounds(Kind.I, kappa)  # for its OverflowError
    touch = 1.0 + kappa ** 2
    return touch, touch
