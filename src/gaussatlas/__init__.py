"""Single-mode Gaussian channel atlas.

Covariance-level and characteristic-function-level channel action,
canonical-form reduction (witnesses verified on first access), closed-form
nonclassicality-breaking / entanglement-breaking / complete-positivity
predicates with independent numerical oracles, squeeze-orbit searches,
and phase-space (characteristic function / quasiprobability) numerics.

All numerics are numpy and Python floats.  Every 2x2 eigenproblem (the
PSD check and eigenvalues of the noise, complete positivity, the NCB
oracle's supremum, and the two-mode PPT test of the entanglement-breaking
oracle, which reduces to one) goes through one closed form,
``_kernels.eig2``: lam_min = det / lam_max.  Only the verification
criteria call LAPACK, as their independent reference.  A Gaussian unitary
is the channel (S, 0) that ``unitary`` builds, and ``compose`` chains two
channels on their stored floats, as ``act_variance`` acts on a covariance,
so only the criteria call numpy's matmul.  The verdict slack
TOL_CLASS lives in ``breaking``; TOL_PSD and TOL_ALG live in ``channels``.
Importing the package imports no numpy: ``Channel`` keeps floats and builds
its arrays on request, functions that need numpy import it when called,
and the ``phase_space`` and ``verify`` exports are loaded on first use.
"""

import importlib

from .channels import (
    TOL_ALG,
    TOL_PSD,
    CanonicalForm,
    Channel,
    Kind,
    act_chargrid,
    act_variance,
    canonical_channel,
    canonical_reduce,
    compose,
    is_cp,
    kind_from_label,
    rotation,
    unitary,
)
from .breaking import (
    TOL_CLASS,
    BreakingReport,
    OrbitPoint,
    RegionSweep,
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


def __getattr__(name):
    """An export of phase_space or verify, read from its module on each access: never
    copied here, so a rebinding there (as by a tracer) shows through the package."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = "verify" if name in ("CheckResult", "run_suite") else "phase_space"
    return getattr(importlib.import_module(f".{module}", __name__), name)


__version__ = "0.1.0"

__all__ = [
    "TOL_ALG",
    "TOL_CLASS",
    "TOL_PSD",
    "rotation",
    "unitary",
    "P_EPS",
    "TOL_FFT",
    "CharGrid",
    "GridSpec",
    "QuasiGrid",
    "char_fock1",
    "char_gaussian",
    "char_vacuum",
    "convert_order",
    "fock1_output_p",
    "fock1_output_p_fft",
    "quasi_from_char",
    "CanonicalForm",
    "Channel",
    "Kind",
    "act_chargrid",
    "act_variance",
    "canonical_channel",
    "canonical_reduce",
    "compose",
    "is_cp",
    "kind_from_label",
    "BreakingReport",
    "OrbitPoint",
    "RegionSweep",
    "boundary_curves",
    "eb_oracle_tmsv",
    "find_r0",
    "margins",
    "ncb_eb_tangency",
    "ncb_necessity_fock1",
    "ncb_oracle_gaussian",
    "region_sweep",
    "report",
    "squeeze_orbit",
    "CheckResult",
    "run_suite",
    "__version__",
]
