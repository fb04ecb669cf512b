"""Exact-arithmetic verification of conformal biharmonic and k-polyharmonic
map classifications between space forms.

The pipeline: :mod:`polyharm.spaceform` supplies the conformal chart models,
:mod:`polyharm.mobius` the inversive map family with its one conformal factor
lambda = P/Q, :mod:`polyharm.residuals` the two residual evaluators
(``evaluate_residuals`` for the biharmonic table, ``polyharmonic_orders``
for the polyharmonic one) with the curved operators on integers,
:mod:`polyharm.sampling` the seeded map and point draws, also on integers,
and :mod:`polyharm.verifier` plans, verdicts and sweeps.  The other
commands' modules, :mod:`polyharm.check`, :mod:`polyharm.selftest` and
:mod:`polyharm.report`, and the jets load on use, not here; no command loads
:mod:`logging` but under the CLI's ``-v`` or for check's skipped-point warning.
:mod:`polyharm.jets` is truncated Taylor arithmetic off the verdict path: the
tests build their dense-jet oracles on it, and selftest checks it;
``polyharm.jets`` resolves through the module ``__getattr__`` below.  The
map's cross-checks, phi(x) on exact points, the conformality check and the
reduced parameters, are the tests' oracles too.  Import names from those
modules; the package itself re-exports none.
"""

import importlib

from . import mobius, rationals, residuals, sampling, spaceform, verifier

__version__ = "0.1.0"


def __getattr__(name):
    # import_module, not ``from . import jets``: that form looks the name up
    # on this package first, which lands here again
    if name == "jets":
        return importlib.import_module(".jets", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
