"""Exact-arithmetic verification of conformal biharmonic and k-polyharmonic
map classifications between space forms.

The pipeline: :mod:`polyharm.jets` supplies truncated Taylor arithmetic (the
reference route the tests check the integer kernels against),
:mod:`polyharm.spaceform` the conformal chart models and curved operators,
:mod:`polyharm.mobius` the inversive map family with its conformal factors,
:mod:`polyharm.residuals` the PDE residual evaluators, and
:mod:`polyharm.verifier` sampling, sweeps, and machine-readable reports.
"""

from .jets import Jet, JetSpace, iterated_laplacian, multi_indices, seed
from .mobius import ConformalInstance, MobiusMap, ReducedFactorParams
from .rationals import EXACT, FLOAT, rational
from .residuals import (
    ResidualVector,
    closed_form_coefficient,
    evaluate_residuals,
    harmonicity_flag,
    polyharmonic_residual,
    radial_coefficients,
    residual_CL,
    residual_ND,
    residual_ND2,
    residual_SDL,
)
from .spaceform import SpaceFormModel
from .verifier import (
    ResidualReport,
    SamplePlan,
    emit_report,
    load_config,
    run_check,
    sample_points,
    selftest,
    sweep_biharmonic,
    sweep_polyharmonic,
)

__version__ = "0.1.0"

__all__ = [
    "EXACT",
    "FLOAT",
    "ConformalInstance",
    "Jet",
    "JetSpace",
    "MobiusMap",
    "ReducedFactorParams",
    "ResidualReport",
    "ResidualVector",
    "SamplePlan",
    "SpaceFormModel",
    "closed_form_coefficient",
    "emit_report",
    "evaluate_residuals",
    "harmonicity_flag",
    "iterated_laplacian",
    "load_config",
    "multi_indices",
    "polyharmonic_residual",
    "radial_coefficients",
    "rational",
    "residual_CL",
    "residual_ND",
    "residual_ND2",
    "residual_SDL",
    "run_check",
    "sample_points",
    "seed",
    "selftest",
    "sweep_biharmonic",
    "sweep_polyharmonic",
]
