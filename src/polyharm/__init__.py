"""Exact-arithmetic verification of conformal biharmonic and k-polyharmonic
map classifications between space forms.

The pipeline: :mod:`polyharm.jets` supplies truncated Taylor arithmetic (the
reference route the tests check the integer kernels against),
:mod:`polyharm.spaceform` the conformal chart models and curved operators,
:mod:`polyharm.mobius` the inversive map family with its conformal factors,
:mod:`polyharm.residuals` the two residual evaluators (``evaluate_residuals``
for the biharmonic table, ``polyharmonic_orders`` for the polyharmonic one),
and :mod:`polyharm.verifier` sampling, sweeps, and machine-readable reports.
Import names from those modules; the package itself re-exports none.
"""

from . import jets, mobius, rationals, residuals, spaceform, verifier

__version__ = "0.1.0"
