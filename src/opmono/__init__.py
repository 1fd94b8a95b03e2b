"""Loewner-order toolkit for operator monotone free functions.

Submodules:
  matcore    -- Hermitian certification, functional calculus, sectors, pseudoinverses
  pencil     -- linear matrix pencils and their tensor evaluations
  schur      -- shorted operators and Schur complements
  freefun    -- free-function catalogue (lifts, operator means, Moebius maps)
  cert       -- randomized certification of monotonicity/concavity/convexity
  represent  -- supporting pencils, reconstruction, pencil representations
  serialize  -- JSON file formats
  cli        -- batch command-line interface
"""

from . import errors
from .cert import (
    CertReport,
    concave_test,
    derivative_monotone_test,
    doubling_concavity_check,
    hypograph_convexity_test,
    monotone_test,
)
from .freefun import (
    FreeFn,
    MobiusMap,
    frechet_derivative,
    geometric_mean_2,
    harmonic_mean,
    karcher_mean,
    lift_scalar,
    mobius_apply,
    nc_axiom_check,
    power_mean,
    resolve_function,
)
from .matcore import (
    DEFAULT_TOL,
    SectorEstimate,
    Tolerances,
    funcalc,
    herm_certify,
    im_part,
    loewner_leq,
    re_part,
    sector_estimate,
    tensor,
)
from .pencil import (
    LinearPencil,
    RawPencil,
    pencil_direct_sum,
    pencil_eval,
    pencil_eval_shifted,
    pencil_new,
    pencil_sectorial_check,
)
from .represent import (
    PencilRepresentation,
    SupportCertificate,
    direct_sum_rep,
    reconstruct,
    rep_eval,
    rep_eval_complex,
    rep_from_quadrature,
    support_pencil,
)
from .schur import (
    PivotSubspace,
    ShortedResult,
    schur_generic,
    schur_pencil,
    sector_bound_check,
    shorted_psd,
)

__all__ = [
    "errors",
    "Tolerances",
    "DEFAULT_TOL",
    "SectorEstimate",
    "herm_certify",
    "loewner_leq",
    "funcalc",
    "tensor",
    "re_part",
    "im_part",
    "sector_estimate",
    "LinearPencil",
    "RawPencil",
    "pencil_new",
    "pencil_eval",
    "pencil_eval_shifted",
    "pencil_direct_sum",
    "pencil_sectorial_check",
    "PivotSubspace",
    "ShortedResult",
    "shorted_psd",
    "schur_generic",
    "sector_bound_check",
    "schur_pencil",
    "FreeFn",
    "MobiusMap",
    "lift_scalar",
    "harmonic_mean",
    "geometric_mean_2",
    "power_mean",
    "karcher_mean",
    "mobius_apply",
    "frechet_derivative",
    "nc_axiom_check",
    "resolve_function",
    "CertReport",
    "monotone_test",
    "concave_test",
    "derivative_monotone_test",
    "doubling_concavity_check",
    "hypograph_convexity_test",
    "SupportCertificate",
    "support_pencil",
    "reconstruct",
    "direct_sum_rep",
    "PencilRepresentation",
    "rep_eval",
    "rep_eval_complex",
    "rep_from_quadrature",
]
__version__ = "0.1.0"
