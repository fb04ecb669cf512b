"""Sample plans, verdicts and both sweeps: the verdict path, which loads no
other command's module; map and point draws are :mod:`polyharm.sampling`'s.

Verdicts from finitely many points are sound because every residual here is a
real-analytic function of the sample point on the chart: an exact nonzero at
one admissible rational point rules out vanishing on any open subset, and
exact zeros on a sample grid paired with the closed-form cross-checks certify
identities.  Reports record this caveat in their ``method`` field.

Everything is deterministic: random draws come from stream-named seeds, and
reports are byte-stable for a fixed (config, seed, mode).  No report carries
a time: a cell's time is in its ``_progress`` line only.
"""

from __future__ import annotations

import math
import random
import sys
import time
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from . import residuals
from .errors import AdmissibleRegionError, ConfigError, DoubleRangeError
from .mobius import ConformalInstance, MobiusMap
from .rationals import EXACT, FLOAT, IntegerPoint, format_rational, rational
from .residuals import DEFAULT_FLOAT_TOL
from .sampling import _flat_sample_point, _randint, random_mobius, require_lattice, sample_points
from .spaceform import SpaceFormModel, _reduce_through_constructor

CURVATURE_PAIRS = tuple((c1, c2) for c1 in (-1, 0, 1) for c2 in (-1, 0, 1))


# -- sample plans ---------------------------------------------------------------


class _Plan(NamedTuple):
    seed: int = 0
    count: int = 20
    radius: object | None = None  # rational; per-domain default when None
    exclusion: object = Fraction(1, 8)
    points: tuple | None = None  # explicit rational points override sampling


class SamplePlan(_Plan):
    """Either explicit points or a seeded rejection-sampling recipe: an
    immutable named tuple that construction validates, ``_make`` (so
    ``_replace``), copies and pickles included.  Seed and count are ints;
    radius, exclusion and every explicit point coordinate are read by
    ``rational`` and held as Fractions."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        seed, count, radius, exclusion, points = super().__new__(cls, *args, **kwargs)
        _require_int("sample seed", seed)
        _require_samples(count=count)
        if radius is not None:
            radius = _plan_rational("radius", radius)
            # a zero radius maps every draw to the origin, a negative one is no radius
            if radius <= 0:
                raise ConfigError(f"sample radius must be > 0, got {radius}")
        exclusion = _plan_rational("exclusion", exclusion)
        if exclusion < 0:
            raise ConfigError(f"sample exclusion must be >= 0, got {exclusion}")
        if points is not None:
            # only lists and tuples: a string or a dict is iterable too, and
            # would be read as its characters or its keys
            if not isinstance(points, (list, tuple)) or not all(isinstance(x, (list, tuple)) for x in points):
                raise ConfigError(f"sample points must be a list of points, got {points!r}")
            points = tuple(tuple(_plan_rational("point coordinate", v) for v in x) for x in points)
            _require_samples(points=len(points))
        return super().__new__(cls, seed, count, radius, exclusion, points)

    _make = classmethod(lambda cls, fields: cls(*fields))
    __reduce_ex__ = _reduce_through_constructor

    def with_overrides(self, seed=None, count=None) -> "SamplePlan":
        return self._replace(
            seed=self.seed if seed is None else seed,
            count=self.count if count is None else count,
        )


def _plan_rational(name: str, value) -> Fraction:
    """A plan's rational read by ``rational``: an int, a Fraction or "p/q"
    text; a float, a bool or text that is no rational is a ConfigError."""
    try:
        return rational(value)
    except (TypeError, ValueError, ZeroDivisionError):
        raise ConfigError(f"sample {name} must be a rational, got {value!r}") from None


# -- serialization helpers ----------------------------------------------------


def _matrix_text(N, D: int) -> list[list[str]]:
    """The rows of N / D as lowest-terms ``"p/q"`` strings, one gcd per
    distinct entry: the text ``format_rational`` gives each entry's rational."""
    text = {}
    for v in {v for row in N for v in row}:
        g = math.gcd(v, D)
        text[v] = f"{v // g}/{D // g}"
    return [[text[v] for v in row] for row in N]


def _vector_text(N, D: int) -> list[str]:
    return _matrix_text((N,), D)[0]


def _map_dict(mmap: MobiusMap) -> dict:
    """The map's report text: a, b and A from their integers, k as a rational."""
    return {
        "a": _vector_text(*mmap.a_integers),
        "b": _vector_text(*mmap.b_integers),
        "k": format_rational(mmap.k),
        "A": _matrix_text(*mmap.A_integers),
        "epsilon": mmap.epsilon,
    }


def _point_list(x: IntegerPoint) -> list[str]:
    return _vector_text(x.N, x.den)


def _coordinates(x, mode: str):
    """The point the evaluators read: x itself in exact mode, its floats in
    float mode, n / den per coordinate of an integer point.  Reports print
    x, the rational point, in either mode."""
    if mode != FLOAT:
        return x
    return x.floats() if isinstance(x, IntegerPoint) else tuple(float(v) for v in x)


# -- verdicts ------------------------------------------------------------------


def _verdict(evals: list[residuals.ConformalGeometry]) -> tuple[str, list[str]]:
    """Classify one instance from its ``evaluate_residuals`` results."""
    warnings: list[str] = []
    if not all(e["CL"].exact_zero for e in evals):
        return "factor-constraint-violated", ["conformal factor constraint failed"]
    if all(e["harmonic"] for e in evals):
        return "harmonic", warnings
    sdl_zero = [e["SDL"].exact_zero for e in evals]
    if all(sdl_zero):
        return "proper-biharmonic", warnings
    zeros = sum(sdl_zero)
    if zeros >= 2:
        warnings.append(
            f"{zeros}/{len(sdl_zero)} sample points hit the residual's zero locus; "
            "possible degenerate sampling"
        )
    return "not-biharmonic", warnings


def _progress(msg: str, *args) -> None:
    """A sweep cell's or a checked instance's INFO line on the "polyharm"
    logger.  Until something imports logging, no level or handler can let an
    INFO record out, so the line goes through logging only once it is loaded,
    and no command loads it for this: the CLI under -v and pytest's ``caplog``
    import it before any cell runs."""
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger("polyharm").info(msg, *args)


# -- biharmonic sweep ------------------------------------------------------------


def expected_proper_biharmonic(m: int, c1: int, c2: int, epsilon: int) -> bool:
    """Truth table of the classification: m = 4, flat domain, and for a flat
    target only the inversive branch is proper."""
    if m != 4 or c1 != 0:
        return False
    return epsilon == 2 if c2 == 0 else True


def _sweep_instance(
    rng_tag: str, m: int, c1: int, c2: int, epsilon: int, style: int, points: int
) -> tuple[ConformalInstance, list[IntegerPoint]]:
    domain = SpaceFormModel(m, c1)
    target = SpaceFormModel(m, c2)
    rng = random.Random(rng_tag)
    mmap = random_mobius(rng, m, target, epsilon, style)
    instance = ConformalInstance(domain=domain, target=target, map=mmap)
    plan = SamplePlan(seed=_randint(rng, 0, 2**31), count=points)
    try:
        return instance, sample_points(plan, instance)
    except AdmissibleRegionError as exc:
        # one map per trial: no measured first draw has failed here, and a
        # count the region cannot hold only fails again with every redraw
        raise AdmissibleRegionError(f"cell m={m} c1={c1} c2={c2} eps={epsilon}: {exc}") from None


def sweep_biharmonic(
    m_values: Iterable[int] = range(3, 9),
    pairs: Sequence[tuple[int, int]] = CURVATURE_PAIRS,
    eps_values: Sequence[int] = (0, 2),
    trials: int = 3,
    seed: int = 0,
    points: int = 5,
    mode: str = EXACT,
    tol: float = DEFAULT_FLOAT_TOL,
) -> dict:
    """Verdict table over dimension, curvature pair, and map branch.

    A cell matches only when every trial's properness agrees with the truth
    table; exact arithmetic admits no majority voting.
    """
    require_mode(mode, tol)
    m_values = _window("m", m_values)
    pairs = _window("curvature pair", pairs, _require_pair)
    eps_values = _window("eps", eps_values, among=(0, 2))
    _require_dimensions(m_values)
    _require_int("seed", seed)
    _require_samples(trials=trials, points=points)
    require_lattice(points, min(m_values))
    cells = []
    for m in m_values:
        for c1, c2 in pairs:
            for epsilon in eps_values:
                start = time.perf_counter()
                expected = expected_proper_biharmonic(m, c1, c2, epsilon)
                trial_out = []
                for t in range(trials):
                    tag = f"polyharm:bh:{seed}:{m}:{c1}:{c2}:{epsilon}:{t}"
                    instance, pts = _sweep_instance(tag, m, c1, c2, epsilon, t, points)
                    verdict, _ = _verdict(
                        [
                            residuals.evaluate_residuals(instance, _coordinates(x, mode), tol)
                            for x in pts
                        ]
                    )
                    trial_out.append(
                        {
                            "map": _map_dict(instance.map),
                            "verdict": verdict,
                            "proper": verdict == "proper-biharmonic",
                        }
                    )
                verdicts = sorted({t["verdict"] for t in trial_out})
                cells.append(
                    {
                        "m": m,
                        "c1": c1,
                        "c2": c2,
                        "epsilon": epsilon,
                        "expected_proper": expected,
                        "verdict": verdicts[0] if len(verdicts) == 1 else "mixed",
                        "trials": trial_out,
                        "match": all(t["proper"] == expected for t in trial_out),
                    }
                )
                _progress(
                    "biharmonic cell m=%d c1=%d c2=%d eps=%d: %s, match=%s (%.3fs)",
                    m, c1, c2, epsilon, cells[-1]["verdict"], cells[-1]["match"], time.perf_counter() - start,
                )
    return {
        "cells": cells,
        "all_match": all(c["match"] for c in cells),
        "trials": trials,
        "points": points,
    }


# -- polyharmonic sweep -----------------------------------------------------------


def expected_polyharmonic_zero(m: int, order: int) -> bool:
    return m % 2 == 0 and m <= 2 * order


def _polyharmonic_trial(rng_tag: str, m: int, style: int, points: int) -> tuple[MobiusMap, list[IntegerPoint]]:
    """One trial's flat-to-flat inversive map and its sample points, drawn
    on the stream ``rng_tag``: the polyharmonic twin of ``_sweep_instance``."""
    rng = random.Random(rng_tag)
    mmap = random_mobius(rng, m, SpaceFormModel.flat(m), 2, style=style)
    return mmap, [_flat_sample_point(rng, mmap) for _ in range(points)]


def sweep_polyharmonic(
    orders: Iterable[int] = range(1, 6),
    m_values: Iterable[int] = range(3, 13),
    trials: int = 1,
    seed: int = 0,
    points: int = 1,
    mode: str = EXACT,
    tol: float = DEFAULT_FLOAT_TOL,
) -> dict:
    """(order, dimension) table of iterated-Laplacian vanishing for the
    inversive family, with the closed form as a per-cell cross-check.

    One point per trial is the default: the verdict is exact and the closed
    form is an independent route at the same point.
    """
    require_mode(mode, tol)
    orders = _window("order", orders)
    m_values = _window("m", m_values)
    if min(orders) < 1:
        raise ConfigError(f"orders must be >= 1, got {min(orders)}")
    _require_dimensions(m_values)
    _require_int("seed", seed)
    _require_samples(trials=trials, points=points)
    cells = []
    for order in orders:
        for m in m_values:
            start = time.perf_counter()
            expected_zero = expected_polyharmonic_zero(m, order)
            expected_proper = m == 2 * order
            trial_out = []
            for t in range(trials):
                mmap, pts = _polyharmonic_trial(f"polyharm:ph:{seed}:{order}:{m}:{t}", m, t, points)
                try:
                    flags = zip(*(_polyharmonic_point(mmap, order, x, mode, tol) for x in pts))
                except DoubleRangeError as exc:
                    raise DoubleRangeError(f"cell k={order} m={m}: {exc}") from None
                zero_k, zero_prev, closed_match = map(all, flags)
                trial_out.append(
                    {
                        "map": _map_dict(mmap),
                        "point": _point_list(pts[0]),
                        "zero": zero_k,
                        "proper": zero_k and not zero_prev,
                        "closed_form_match": closed_match,
                    }
                )
            cells.append(
                {
                    "order": order,
                    "m": m,
                    "expected_zero": expected_zero,
                    "expected_proper": expected_proper,
                    "trials": trial_out,
                    "match": all(
                        t["zero"] == expected_zero
                        and t["proper"] == expected_proper
                        and t["closed_form_match"]
                        for t in trial_out
                    ),
                }
            )
            _progress(
                "polyharmonic cell k=%d m=%d: match=%s (%.3fs)",
                order, m, cells[-1]["match"], time.perf_counter() - start,
            )
    return {
        "cells": cells,
        "all_match": all(c["match"] for c in cells),
        "trials": trials,
    }


def _polyharmonic_point(mmap: MobiusMap, order: int, x, mode: str, tol: float) -> tuple:
    """(Delta^k phi = 0, Delta^(k-1) phi = 0, Delta^k phi = closed form) at x,
    each by ``residuals.vanishes`` on the terms of the value: the closed form
    is one integer term over Delta^k phi's denominator, joined negated, or in
    float mode as its values, int/int doubles that round as float() does."""
    value = residuals.polyharmonic_orders(mmap, (order - 1, order), _coordinates(x, mode))
    closed = residuals.polyharmonic_closed_form(mmap, order, x)
    (c,) = closed.terms
    neg = tuple(-v for v in c) if mode == EXACT else tuple(-v / closed.den for v in c)
    return (
        residuals.vanishes(value[order].terms, tol),
        residuals.vanishes(value[order - 1].terms, tol),
        residuals.vanishes(value[order].terms + [neg], tol),
    )


def _require_int(name: str, value) -> int:
    """The one integer check of plans' and sweeps' seeds, counts and axes."""
    if type(value) is not int:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def _window(name: str, values, entry=_require_int, among=None) -> tuple:
    """A sweep axis as a tuple, each entry checked by ``entry(name, v)``, an
    integer by default, and refused outside ``among`` when that is given, so
    before any draw; an empty one would make the sweep pass vacuously."""
    try:
        values = tuple(values)
    except TypeError:
        raise ConfigError(f"the {name} window must be a sequence, got {values!r}") from None
    if not values:
        raise ConfigError(f"empty {name} window")
    for v in values:
        entry(name, v)
        if among is not None and v not in among:
            raise ConfigError(f"{name} must be one of {', '.join(map(str, among))}, got {v}")
    return values


def _require_pair(name: str, pair) -> None:
    if len(_window("curvature", pair, among=(-1, 0, 1))) != 2:
        raise ConfigError(f"a {name} is (c1, c2), got {pair!r}")


def require_mode(mode: str, tol: float) -> None:
    """Refuse an unknown mode, which would run exact under another name, and
    a tol that is not an int or float in (0, 1): a residual's norm never
    exceeds its scale, so from tol = 1 on every float residual counts as
    zero."""
    if mode not in (EXACT, FLOAT):
        raise ConfigError(f"unknown mode {mode!r}, expected {EXACT!r} or {FLOAT!r}")
    if not (isinstance(tol, (int, float)) and 0 < tol < 1):
        raise ConfigError(f"tol must lie strictly between 0 and 1, got {tol!r}")


def _require_dimensions(m_values: tuple) -> None:
    # both classifications are stated for m >= 3; in the plane every
    # conformal map is harmonic, which the residual equations do not see
    if min(m_values) < 3:
        raise ConfigError(f"the classifications need m >= 3, got {min(m_values)}")


def _require_samples(**counts: int) -> None:
    # a verdict over no trials or no points would pass vacuously
    for name, n in counts.items():
        if _require_int(name, n) < 1:
            raise ConfigError(f"{name} must be >= 1, got {n}")
