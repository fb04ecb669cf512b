"""Instance loading, verdicts, sweeps, and reports; the draws of maps and
points are :mod:`polyharm.sampling`'s.

Verdicts from finitely many points are sound because every residual here is a
real-analytic function of the sample point on the chart: an exact nonzero at
one admissible rational point rules out vanishing on any open subset, and
exact zeros on a sample grid paired with the closed-form cross-checks certify
identities.  Reports record this caveat in their ``method`` field.

Everything is deterministic: random draws come from stream-named seeds, and
reports are byte-stable for a fixed (config, seed, mode).  Timing is logged,
never serialized.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import logging
import math
import random
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

from . import mobius, residuals
from .errors import (
    AdmissibleRegionError,
    ConfigError,
    PolyharmError,
)
from .mobius import ConformalInstance, MobiusMap
from .rationals import EXACT, FLOAT, IntegerPoint, format_rational, rational
from .residuals import DEFAULT_FLOAT_TOL
from .sampling import _flat_sample_point, _randint, random_mobius, sample_points
from .spaceform import SpaceFormModel

log = logging.getLogger("polyharm")

REPORT_SCHEMA_ID = "polyharm-report/1"
METHOD_NOTE = (
    "verdicts are certified at finitely many exact rational sample points; "
    "residuals of this map family are real-analytic on the chart, so one exact "
    "nonzero value rules out vanishing on any open set, and exact zeros across "
    "the grid together with closed-form cross-checks certify identities"
)

_MAP_RETRIES = 10

CURVATURE_PAIRS = tuple((c1, c2) for c1 in (-1, 0, 1) for c2 in (-1, 0, 1))


# -- plans and configuration --------------------------------------------------


class _Plan(NamedTuple):
    seed: int = 0
    count: int = 20
    radius: object | None = None  # rational; per-domain default when None
    exclusion: object = Fraction(1, 8)
    points: tuple | None = None  # explicit rational points override sampling


class SamplePlan(_Plan):
    """Either explicit points or a seeded rejection-sampling recipe: an
    immutable named tuple that construction validates, ``_make`` (so
    ``_replace``), copies and pickles included."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _require_samples(points=self.count)
        # a zero radius maps every draw to the origin, a negative one is no radius
        if self.radius is not None and rational(self.radius) <= 0:
            raise ConfigError(f"sample radius must be > 0, got {self.radius}")
        if rational(self.exclusion) < 0:
            raise ConfigError(f"sample exclusion must be >= 0, got {self.exclusion}")
        if self.points is not None:
            _require_samples(points=len(self.points))
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))

    def with_overrides(self, seed=None, count=None) -> "SamplePlan":
        return self._replace(
            seed=self.seed if seed is None else seed,
            count=self.count if count is None else count,
        )


class ConfiguredInstance(NamedTuple):
    instance: ConformalInstance
    expect: str | None = None


@contextlib.contextmanager
def _parsing(where: str):
    """Turn a malformed entry met inside into a ConfigError naming ``where``:
    a wrong type, value or length is a usage error, never a traceback."""
    try:
        yield
    except ConfigError:
        raise
    except (PolyharmError, KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _json_int(value, where: str) -> int:
    """A JSON integer; a bool, a float or a numeric string is not one."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return value


def _json_rational(value):
    """An integer or a ``"p/q"`` string read exactly; a bool or float is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"expected an integer or a 'p/q' string, got {value!r}")
    return rational(value)


def _parse_model(obj, where: str) -> SpaceFormModel:
    if not isinstance(obj, dict) or "model" not in obj or "dim" not in obj:
        raise ConfigError(f"{where}: expected {{'model': ..., 'dim': ...}}")
    dim = _json_int(obj["dim"], f"{where}.dim")
    with _parsing(where):
        return SpaceFormModel.named(str(obj["model"]), dim)


def _parse_rational_list(values, where: str) -> tuple:
    with _parsing(f"{where}: bad rational entry"):
        return tuple(_json_rational(v) for v in values)


def _parse_matrix(entry, dim: int, where: str) -> tuple[list, int]:
    """(N, D) of the configured orthogonal matrix A = N/D, every kind read
    to integers; the map's construction checks that it is orthogonal."""
    if entry is None:
        entry = {"kind": "identity"}
    if not isinstance(entry, dict) or "kind" not in entry:
        raise ConfigError(f"{where}: matrix entry needs a 'kind'")
    kind = entry["kind"]
    data = entry.get("data")
    with _parsing(where):
        if kind == "identity":
            return mobius.signed_permutation_integers(range(dim)), 1
        if kind == "permutation":
            perm, signs = (data["perm"], data.get("signs")) if isinstance(data, dict) else (data, None)
            # entries are JSON integers: True == 1 would pass as a sign
            perm = [_json_int(v, f"{where}.perm") for v in perm]
            if signs is not None:
                signs = [_json_int(v, f"{where}.signs") for v in signs]
            return mobius.signed_permutation_integers(perm, signs), 1
        if kind == "cayley":
            skew = tuple(_parse_rational_list(row, where) for row in data)
            return mobius.cayley_integers(skew)
        if kind == "matrix":
            return mobius.integer_matrix([_parse_rational_list(row, where) for row in data])
    raise ConfigError(f"{where}: unknown matrix kind {kind!r}")


def _parse_map(obj, where: str) -> MobiusMap:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: map must be an object")
    for key in ("a", "b", "k", "epsilon"):
        if key not in obj:
            raise ConfigError(f"{where}: map is missing {key!r}")
    a = _parse_rational_list(obj["a"], f"{where}.a")
    b = _parse_rational_list(obj["b"], f"{where}.b")
    k = _parse_rational_list([obj["k"]], f"{where}.k")[0]
    A_integers = _parse_matrix(obj.get("A"), len(a), f"{where}.A")
    epsilon = _json_int(obj["epsilon"], f"{where}.epsilon")
    with _parsing(where):
        return MobiusMap(a, b, k, A_integers, epsilon)


def _parse_plan(obj) -> SamplePlan:
    if obj is None:
        return SamplePlan()
    if not isinstance(obj, dict):
        raise ConfigError("sample: expected an object")
    with _parsing("sample"):
        points = None
        if "points" in obj:
            points = tuple(_parse_rational_list(p, "sample.points") for p in obj["points"])
        radius = None
        if "radius" in obj:
            radius = _parse_rational_list([obj["radius"]], "sample.radius")[0]
        exclusion = Fraction(1, 8)
        if "exclusion" in obj:
            exclusion = _parse_rational_list([obj["exclusion"]], "sample.exclusion")[0]
        return SamplePlan(
            seed=_json_int(obj.get("seed", 0), "sample.seed"),
            count=_json_int(obj.get("count", 20), "sample.count"),
            radius=radius,
            exclusion=exclusion,
            points=points,
        )


def _parse_instance(obj, where: str) -> ConfiguredInstance:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: instance must be an object")
    for key in ("domain", "target", "map"):
        if key not in obj:
            raise ConfigError(f"{where}: missing {key!r}")
    domain = _parse_model(obj["domain"], f"{where}.domain")
    target = _parse_model(obj["target"], f"{where}.target")
    mmap = _parse_map(obj["map"], f"{where}.map")
    with _parsing(where):
        instance = ConformalInstance(domain=domain, target=target, map=mmap)
    _require_dimensions((instance.dim,))
    expect = obj.get("expect")
    if expect is not None and expect not in (
        "harmonic",
        "proper-biharmonic",
        "not-biharmonic",
    ):
        raise ConfigError(f"{where}: unknown expected verdict {expect!r}")
    return ConfiguredInstance(instance=instance, expect=expect)


def load_config(path) -> tuple[list[ConfiguredInstance], SamplePlan]:
    """Parse and validate a JSON config; rationals are read exactly."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    plan = _parse_plan(doc.get("sample"))
    if "instances" in doc:
        entries = doc["instances"]
        if not isinstance(entries, list) or not entries:
            raise ConfigError("instances must be a nonempty list")
        configured = [_parse_instance(e, f"instances[{i}]") for i, e in enumerate(entries)]
    else:
        configured = [_parse_instance(doc, "config")]
    return configured, plan


# -- serialization helpers ----------------------------------------------------


def _model_dict(model: SpaceFormModel) -> dict:
    return {"model": model.name, "dim": model.dim}


def _matrix_text(N, D: int) -> list[list[str]]:
    """The rows of N / D as lowest-terms ``"p/q"`` strings, one gcd per
    distinct entry: the text ``format_rational`` gives each entry's rational."""
    text = {}
    for v in {v for row in N for v in row}:
        g = math.gcd(v, D)
        text[v] = f"{v // g}/{D // g}"
    return [[text[v] for v in row] for row in N]


def _map_dict(mmap: MobiusMap) -> dict:
    return {
        "a": [format_rational(v) for v in mmap.a],
        "b": [format_rational(v) for v in mmap.b],
        "k": format_rational(mmap.k),
        "A": _matrix_text(*mmap.A_integers),
        "epsilon": mmap.epsilon,
    }


def _point_list(x: IntegerPoint) -> list[str]:
    return [format_rational(v) for v in x.fractions()]


def _coordinates(x, mode: str):
    """The point the evaluators read: x itself in exact mode, its floats in
    float mode, n / den per coordinate of an integer point.  Reports print
    x, the rational point, in either mode."""
    if mode != FLOAT:
        return x
    return x.floats() if isinstance(x, IntegerPoint) else tuple(float(v) for v in x)


def _rv_dict(rv: residuals.ResidualVector, mode: str) -> dict:
    out = {
        "norm": rv.norm,
        "scale": rv.scale,
        "exact_zero": rv.exact_zero,
    }
    if mode == EXACT:
        out["values"] = [format_rational(v) for v in rv.values]
    return out


# -- check ---------------------------------------------------------------------


def _verdict(evals: list[dict]) -> tuple[str, list[str]]:
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


def run_check(
    instance: ConformalInstance,
    plan: SamplePlan,
    mode: str = EXACT,
    tol: float = DEFAULT_FLOAT_TOL,
    expect: str | None = None,
) -> dict:
    """Evaluate the full residual battery and classify one instance."""
    require_mode(mode, tol)
    pts = sample_points(plan, instance)
    evals = []
    points_out = []
    skipped: list[str] = []
    for x in pts:
        try:
            e = residuals.evaluate_residuals(instance, _coordinates(x, mode), tol)
        except PolyharmError as exc:
            # admissibility screening makes this unreachable for seeded plans,
            # but explicit plan points can graze singular sets in float mode
            log.warning("skipping point %s: %s", _point_list(x), exc)
            skipped.append(f"skipped {' '.join(_point_list(x))}: {exc}")
            continue
        evals.append(e)
        points_out.append(
            {
                "point": _point_list(x),
                "harmonic": e["harmonic"],
                "residuals": {
                    name: _rv_dict(e[name], mode)
                    for name in ("CL", "SDL", "ND", "ND2")
                },
            }
        )
    if not evals:
        raise AdmissibleRegionError("every sampled point was skipped")
    verdict, warnings = _verdict(evals)
    warnings = skipped + warnings
    out = {
        "domain": _model_dict(instance.domain),
        "target": _model_dict(instance.target),
        "map": _map_dict(instance.map),
        "points": points_out,
        "verdict": verdict,
        "warnings": warnings,
    }
    if expect is not None:
        out["expect"] = expect
        out["match"] = verdict == expect
    return out


def check_report_body(
    configured: Sequence[ConfiguredInstance],
    plan: SamplePlan,
    mode: str = EXACT,
    tol: float = DEFAULT_FLOAT_TOL,
) -> dict:
    require_mode(mode, tol)
    instances = []
    for i, ci in enumerate(configured):
        start = time.perf_counter()
        instances.append(run_check(ci.instance, plan, mode=mode, tol=tol, expect=ci.expect))
        log.info(
            "check instance %d: %s, match=%s (%.3fs)",
            i, instances[-1]["verdict"], instances[-1].get("match"), time.perf_counter() - start,
        )
    mismatches = [
        i for i, entry in enumerate(instances) if entry.get("match") is False
    ]
    return {
        "instances": instances,
        "mismatches": mismatches,
        "all_match": not mismatches,
    }


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
    for attempt in range(_MAP_RETRIES):
        mmap = random_mobius(rng, m, target, epsilon, style)
        instance = ConformalInstance(domain=domain, target=target, map=mmap)
        plan = SamplePlan(seed=_randint(rng, 0, 2**31), count=points)
        try:
            return instance, sample_points(plan, instance)
        except AdmissibleRegionError:
            continue
    raise AdmissibleRegionError(
        f"no admissible map after {_MAP_RETRIES} draws for cell m={m} c1={c1} c2={c2} eps={epsilon}"
    )


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
    pairs = _window("curvature pair", pairs)
    eps_values = _window("eps", eps_values)
    _require_dimensions(m_values)
    _require_samples(trials=trials, points=points)
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
                log.info(
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
    _require_samples(trials=trials, points=points)
    cells = []
    for order in orders:
        for m in m_values:
            start = time.perf_counter()
            expected_zero = expected_polyharmonic_zero(m, order)
            expected_proper = m == 2 * order
            trial_out = []
            for t in range(trials):
                rng = random.Random(f"polyharm:ph:{seed}:{order}:{m}:{t}")
                mmap = random_mobius(rng, m, SpaceFormModel.flat(m), 2, style=t)
                pts = [_flat_sample_point(rng, mmap) for _ in range(points)]
                zero_k = True
                zero_prev = True
                closed_match = True
                for x in pts:
                    z_k, z_prev, z_closed = _polyharmonic_point(mmap, order, x, mode, tol)
                    zero_k &= z_k
                    zero_prev &= z_prev
                    closed_match &= z_closed
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
            log.info(
                "polyharmonic cell k=%d m=%d: match=%s (%.3fs)",
                order, m, cells[-1]["match"], time.perf_counter() - start,
            )
    return {
        "cells": cells,
        "all_match": all(c["match"] for c in cells),
        "trials": trials,
    }


def _polyharmonic_point(mmap: MobiusMap, order: int, x, mode: str, tol: float) -> tuple:
    """(Delta^k phi = 0, Delta^(k-1) phi = 0, Delta^k phi = closed form) at x.

    Float mode judges each order, and the closed-form difference at order k,
    against the size of the terms that cancel in that order's Delta phi.
    """
    terms = residuals.polyharmonic_orders(mmap, (order - 1, order), _coordinates(x, mode))
    vals, scale = terms[order]
    prev, prev_scale = terms[order - 1]
    closed = residuals.polyharmonic_closed_form(mmap, order, x)
    diff = [v - c for v, c in zip(vals, closed)]
    return (
        residuals.vanishes(vals, scale, tol),
        residuals.vanishes(prev, prev_scale, tol),
        residuals.vanishes(diff, scale, tol),
    )


def _window(name: str, values: Iterable) -> tuple:
    """A sweep axis as a tuple; an empty one would make the sweep pass vacuously."""
    values = tuple(values)
    if not values:
        raise ConfigError(f"empty {name} window")
    return values


def require_mode(mode: str, tol: float, tol_name: str = "tol") -> None:
    """Refuse an unknown mode, which would run exact under another name, and
    a tol outside (0, 1): a residual's norm never exceeds its scale, so from
    tol = 1 on every float residual counts as zero.  ``tol_name`` is how the
    caller calls tol in its message."""
    if mode not in (EXACT, FLOAT):
        raise ConfigError(f"unknown mode {mode!r}, expected {EXACT!r} or {FLOAT!r}")
    if not 0 < tol < 1:
        raise ConfigError(f"{tol_name} must lie strictly between 0 and 1, got {tol}")


def _require_dimensions(m_values: tuple) -> None:
    # both classifications are stated for m >= 3; in the plane every
    # conformal map is harmonic, which the residual equations do not see
    if min(m_values) < 3:
        raise ConfigError(f"the classifications need m >= 3, got {min(m_values)}")


def _require_samples(**counts: int) -> None:
    # a verdict over no trials or no points would pass vacuously
    for name, n in counts.items():
        if n < 1:
            raise ConfigError(f"{name} must be >= 1, got {n}")


# -- radial classification spot checks --------------------------------------------


def radial_classification_check(kind: str, c_value, m: int) -> dict:
    """Extract the radial polynomial of the second necessary condition and
    compare its low-order coefficients with the classification values.

    kind 'sphere-sphere':      expect constant c^2(c^2-1)[-2c^2-(m-4)],
                               s-coefficient (c^2-1)[(m-4)c^4-4(m-3)c^2+(m-4)]
    kind 'sphere-hyperbolic':  expect constant c^2(c^2+1)[2c^2-(m-4)],
                               s-coefficient -(c^2+1)[(m-4)c^4+4(m-3)c^2+(m-4)]
    kind 'hyperbolic-flat':    expect polynomial -(m-4)s - 2s^2 (zero constant)

    The normalization multiplies the radial coefficient of the residual by
    sigma^3 * den(lambda)^5 / (4 c^2) (or sigma^3 f^5 / k^2 for the last kind),
    the cleared denominator of the factor family.
    """
    c = rational(c_value)
    direction = (rational(1),) + tuple(rational(0) for _ in range(m - 1))
    zero = tuple(rational(0) for _ in range(m))
    if kind == "sphere-sphere":
        domain, target = SpaceFormModel.sphere(m), SpaceFormModel.sphere(m)
        sign = 1
        expected = [
            c * c * (c * c - 1) * (-2 * c * c - (m - 4)),
            (c * c - 1) * ((m - 4) * c**4 - 4 * (m - 3) * c * c + (m - 4)),
        ]
        ts = None
    elif kind == "sphere-hyperbolic":
        domain, target = SpaceFormModel.sphere(m), SpaceFormModel.hyperbolic(m)
        sign = -1
        expected = [
            c * c * (c * c + 1) * (2 * c * c - (m - 4)),
            -(c * c + 1) * ((m - 4) * c**4 + 4 * (m - 3) * c * c + (m - 4)),
        ]
        # factor positivity needs |x| > c along the ray
        ts = [c + Fraction(j, j + 1) for j in range(1, 12)]
    elif kind == "hyperbolic-flat":
        domain, target = SpaceFormModel.hyperbolic(m), SpaceFormModel.flat(m)
        sign = 0
        expected = [rational(0), rational(-(m - 4)), rational(-2)]
        ts = None
    else:
        raise ConfigError(f"unknown radial check kind {kind!r}")
    mmap = MobiusMap.build(a=zero, b=zero, k=c, epsilon=2)
    instance = ConformalInstance(domain=domain, target=target, map=mmap)

    def evaluator(point):
        rv = residuals.evaluate_residuals(instance, point)["ND2"]
        radial = rv.values[0] / point[0]  # component along e_1 over t
        s = sum(v * v for v in point)
        if kind == "hyperbolic-flat":
            sigma = rational(2) / (1 - s)
            return radial * sigma**3 * s**5 / (c * c)
        sigma = rational(2) / (1 + s)
        den = s - c * c if sign == -1 else c * c + s
        return radial * sigma**3 * den**5 / (4 * c * c)

    coeffs = residuals.radial_coefficients(evaluator, direction, max_degree=2, ts=ts)
    ok = list(coeffs[: len(expected)]) == list(expected)
    return {
        "kind": kind,
        "m": m,
        "c": format_rational(c),
        "coefficients": [format_rational(v) for v in coeffs],
        "expected": [format_rational(v) for v in expected],
        "ok": ok,
    }


# -- selftest ----------------------------------------------------------------------


def _chain_identity_battery(mode: str, tol: float) -> tuple[bool, str]:
    """ND = SDL, ND2 = -SDL, ND - ND2 = 2 SDL across all curvature pairs."""
    failures = []
    for c1, c2 in CURVATURE_PAIRS:
        for epsilon in (0, 2):
            tag = f"polyharm:selftest:chain:{c1}:{c2}:{epsilon}"
            instance, pts = _sweep_instance(tag, 5, c1, c2, epsilon, 2, 2)
            for x in pts:
                evals = residuals.evaluate_residuals(instance, _coordinates(x, mode), tol)
                sdl, nd, nd2 = evals["SDL"], evals["ND"], evals["ND2"]
                chain = [
                    ([a - b for a, b in zip(nd.values, sdl.values)], nd.scale + sdl.scale),
                    ([a + b for a, b in zip(nd2.values, sdl.values)], nd2.scale + sdl.scale),
                    (
                        [a - b - 2 * s for a, b, s in zip(nd.values, nd2.values, sdl.values)],
                        nd.scale + nd2.scale + 2 * sdl.scale,
                    ),
                ]
                if not all(residuals.vanishes(v, scale, tol) for v, scale in chain):
                    failures.append(f"(c1={c1}, c2={c2}, eps={epsilon})")
    if failures:
        return False, "failed at " + ", ".join(sorted(set(failures)))
    return True, "18 instances, exact identity chain holds"


def _conservation_battery(mode: str, tol: float) -> tuple[bool, str]:
    bad = []
    for c1, c2 in CURVATURE_PAIRS:
        for epsilon in (0, 2):
            tag = f"polyharm:selftest:cl:{c1}:{c2}:{epsilon}"
            instance, pts = _sweep_instance(tag, 5, c1, c2, epsilon, 1, 3)
            for x in pts:
                rv = residuals.evaluate_residuals(instance, _coordinates(x, mode), tol)["CL"]
                if not rv.exact_zero:
                    bad.append(f"(c1={c1}, c2={c2}, eps={epsilon})")
    if bad:
        return False, "nonzero factor constraint at " + ", ".join(sorted(set(bad)))
    return True, "constraint vanishes on all 18 instance families"


def _jet_oracle_battery(mode: str, tol: float) -> tuple[bool, str]:
    from . import jets  # off the verdict path: loaded on first use

    x, y = jets.seed(_coordinates((0, 0), mode), 2)
    prod = (1 + x) * (1 + y)
    checks = [
        prod.value() == 1 and prod.coefficient((1, 1)) == 1,
        jets.seed(_coordinates((3,), mode), 1)[0].value() == 3,
    ]
    t = jets.seed(_coordinates((0,), mode), 2)[0]
    geom = t.constant_like(1) / (1 - t)
    checks.append(list(geom.coeffs) == [1, 1, 1])
    xj = jets.seed(_coordinates((1, 0, 0), mode), 4)
    r4 = jets.norm_sq(xj) * jets.norm_sq(xj)
    checks.append(jets.iterated_laplacian(r4, 2) == 120)
    a = 1 + x + x * y
    b = 2 + y
    roundtrip = (a * b) / b
    pairs = list(zip(roundtrip.coeffs, a.coeffs))
    checks.append(
        residuals.vanishes(
            [u - v for u, v in pairs], sum(abs(u) + abs(v) for u, v in pairs), tol
        )
    )
    return all(checks), "ring, division, and iterated-Laplacian oracles"


def _polyharmonic_battery(mode: str, tol: float) -> tuple[bool, str]:
    bad = []
    for m in (3, 4, 6):
        for order in (1, 2):
            rng = random.Random(f"polyharm:selftest:ph:{m}:{order}")
            mmap = random_mobius(rng, m, SpaceFormModel.flat(m), 2, style=order)
            x = _flat_sample_point(rng, mmap)
            if not _polyharmonic_point(mmap, order, x, mode, tol)[2]:
                bad.append(f"(m={m}, k={order})")
    if bad:
        return False, "closed form mismatch at " + ", ".join(bad)
    return True, "iterated Laplacians match the closed form"


def _radial_battery(mode: str, tol: float) -> tuple[bool, str]:
    results = [
        radial_classification_check("sphere-sphere", Fraction(1, 2), 5),
        radial_classification_check("sphere-hyperbolic", Fraction(1, 2), 5),
        radial_classification_check("hyperbolic-flat", Fraction(2, 3), 5),
    ]
    bad = [r["kind"] for r in results if not r["ok"]]
    if bad:
        return False, "coefficient mismatch for " + ", ".join(bad)
    return True, "classification polynomials reproduced"


def _float_separation_battery(mode: str, tol: float) -> tuple[bool, str]:
    # zero cases must clear tol with 100x headroom, so a tol near rounding
    # fails by its margin, not by the one point that happens to round worst;
    # the flat inversive family at m = 4 has every term exactly 0.0, so its
    # norm and scale are both 0.0 and it clears the same test
    zero_bound = min(1e-9, tol / 100)
    zero_cases = [(4, 0, 1, 2), (4, 0, -1, 0), (4, 0, 1, 0), (4, 0, 0, 2)]
    nonzero_cases = [(5, 0, 0, 2), (6, 0, 1, 2), (5, 1, 1, 2)]
    bad = []
    for m, c1, c2, epsilon in zero_cases:
        tag = f"polyharm:selftest:sepz:{m}:{c1}:{c2}:{epsilon}"
        instance, pts = _sweep_instance(tag, m, c1, c2, epsilon, 0, 3)
        for x in pts:
            rv = residuals.evaluate_residuals(instance, _coordinates(x, FLOAT), tol)["SDL"]
            if not rv.exact_zero or rv.norm > zero_bound * rv.scale:
                bad.append(f"zero case (m={m}, c1={c1}, c2={c2}) norm={rv.norm:.2e}")
    for m, c1, c2, epsilon in nonzero_cases:
        tag = f"polyharm:selftest:sepn:{m}:{c1}:{c2}:{epsilon}"
        instance, pts = _sweep_instance(tag, m, c1, c2, epsilon, 0, 2)
        for x in pts:
            rv = residuals.evaluate_residuals(instance, _coordinates(x, FLOAT), tol)["SDL"]
            if rv.exact_zero or rv.norm < 1e-3 * rv.scale:
                bad.append(f"nonzero case (m={m}, c1={c1}, c2={c2}) norm={rv.norm:.2e}")
    if bad:
        return False, "; ".join(bad)
    return True, f"zero cases <= {zero_bound:.0e}*S, generic nonzero cases >= 1e-3*S"


def selftest(mode: str = EXACT, tol: float = DEFAULT_FLOAT_TOL) -> dict:
    """Run the invariant suites; the CLI turns failures into a nonzero exit."""
    require_mode(mode, tol)
    batteries: list[tuple[str, Callable]] = [
        ("jet-oracles", _jet_oracle_battery),
        ("factor-constraint-conservation", _conservation_battery),
        ("residual-identity-chain", _chain_identity_battery),
        ("polyharmonic-closed-form", _polyharmonic_battery),
        ("radial-classification-polynomials", _radial_battery),
    ]
    if mode == FLOAT:
        batteries.append(("float-separation", _float_separation_battery))
    checks = []
    for name, fn in batteries:
        try:
            ok, detail = fn(mode, tol)
        except PolyharmError as exc:
            ok, detail = False, f"error: {exc}"
        checks.append({"name": name, "ok": ok, "detail": detail})
    return {"checks": checks, "all_ok": all(c["ok"] for c in checks)}


# -- reports -------------------------------------------------------------------


class ResidualReport:
    """A finished run: payload is serialized, timing is logged only."""

    def __init__(
        self,
        kind: str,
        mode: str,
        seed: int | None,
        body: dict,
        exit_code: int,
        timing: float = 0.0,
        tol: float | None = None,
    ):
        self.kind, self.mode, self.seed, self.body = kind, mode, seed, body
        self.exit_code, self.timing, self.tol = exit_code, timing, tol

    def payload(self) -> dict:
        doc = {
            "schema": REPORT_SCHEMA_ID,
            "kind": self.kind,
            "mode": self.mode,
            "method": METHOD_NOTE,
        }
        if self.seed is not None:
            doc["seed"] = self.seed
        if self.tol is not None:
            doc["tol"] = self.tol
        doc.update(self.body)
        return doc


def _csv_rows(report: ResidualReport) -> tuple[list[str], list[list]]:
    body = report.body
    if report.kind == "check":
        header = [
            "instance", "point", "verdict",
            "CL_norm", "CL_zero", "SDL_norm", "SDL_zero",
            "ND_norm", "ND_zero", "ND2_norm", "ND2_zero", "harmonic",
        ]
        rows = []
        for i, inst in enumerate(body["instances"]):
            for p in inst["points"]:
                r = p["residuals"]
                rows.append(
                    [
                        i, " ".join(p["point"]), inst["verdict"],
                        r["CL"]["norm"], r["CL"]["exact_zero"],
                        r["SDL"]["norm"], r["SDL"]["exact_zero"],
                        r["ND"]["norm"], r["ND"]["exact_zero"],
                        r["ND2"]["norm"], r["ND2"]["exact_zero"],
                        p["harmonic"],
                    ]
                )
        return header, rows
    if report.kind == "sweep-biharmonic":
        header = ["m", "c1", "c2", "epsilon", "expected_proper", "verdict", "match"]
        rows = [
            [c["m"], c["c1"], c["c2"], c["epsilon"], c["expected_proper"], c["verdict"], c["match"]]
            for c in body["cells"]
        ]
        return header, rows
    if report.kind == "sweep-polyharmonic":
        header = ["order", "m", "expected_zero", "zero", "expected_proper", "proper", "closed_form_match", "match"]
        rows = []
        for c in body["cells"]:
            t = c["trials"][0]
            rows.append(
                [c["order"], c["m"], c["expected_zero"], t["zero"], c["expected_proper"], t["proper"], t["closed_form_match"], c["match"]]
            )
        return header, rows
    if report.kind == "selftest":
        header = ["name", "ok", "detail"]
        return header, [[c["name"], c["ok"], c["detail"]] for c in body["checks"]]
    raise ConfigError(f"no CSV layout for report kind {report.kind!r}")


def _table_text(report: ResidualReport) -> str:
    header, rows = _csv_rows(report)
    cells = [header] + [[str(v) for v in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    lines = []
    for r in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())
    lines.append("")
    lines.append(f"kind={report.kind} mode={report.mode} exit={report.exit_code}")
    return "\n".join(lines) + "\n"


def render_report(report: ResidualReport, fmt: str = "json") -> str:
    if fmt == "json":
        return json.dumps(report.payload(), sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO(newline="")
        writer = csv.writer(buf, lineterminator="\n")
        header, rows = _csv_rows(report)
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()
    if fmt == "table":
        return _table_text(report)
    raise ConfigError(f"unknown report format {fmt!r}")


def emit_report(report: ResidualReport, fmt: str = "json", path=None) -> str:
    """Render the report; byte-stable for fixed config, seed, and mode."""
    text = render_report(report, fmt)
    if path is not None:
        Path(path).write_text(text)
        log.info("report written to %s (%.2fs)", path, report.timing)
    return text
