"""The ``check`` command: JSON configs read exactly into instances and a
plan, and one residual report per configured instance."""

from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path
from typing import NamedTuple, Sequence

from . import mobius, residuals
from .errors import AdmissibleRegionError, ConfigError, PolyharmError
from .mobius import ConformalInstance, MobiusMap
from .rationals import EXACT, format_rational, integer_vector, rational
from .residuals import DEFAULT_FLOAT_TOL
from .sampling import sample_points
from .spaceform import SpaceFormModel
from .verifier import (
    SamplePlan, _coordinates, _map_dict, _point_list, _progress, _require_dimensions, _verdict, require_mode,
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


def _parse_model(obj, where: str) -> SpaceFormModel:
    if not isinstance(obj, dict) or "model" not in obj or "dim" not in obj:
        raise ConfigError(f"{where}: expected {{'model': ..., 'dim': ...}}")
    with _parsing(where):
        return SpaceFormModel.named(str(obj["model"]), obj["dim"])


def _parse_rational_list(values, where: str) -> tuple:
    # a JSON string is iterable too, and would be read one character a value
    if not isinstance(values, list):
        raise ConfigError(f"{where}: expected a list of rationals, got {values!r}")
    with _parsing(f"{where}: bad rational entry"):
        return tuple(rational(v) for v in values)


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
    with _parsing(where):
        return MobiusMap(integer_vector(a), integer_vector(b), k, A_integers, obj["epsilon"])


def _parse_plan(obj) -> SamplePlan:
    """The plan reads and checks its fields itself; other keys are ignored."""
    if obj is None:
        return SamplePlan()
    if not isinstance(obj, dict):
        raise ConfigError("sample: expected an object")
    with _parsing("sample"):
        return SamplePlan(**{key: obj[key] for key in SamplePlan._fields if key in obj})


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
    if expect is not None and expect not in ("harmonic", "proper-biharmonic", "not-biharmonic"):
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


# -- check ---------------------------------------------------------------------


def _model_dict(model: SpaceFormModel) -> dict:
    return {"model": model.name, "dim": model.dim}


def _rv_dict(rv: residuals.ResidualVector, mode: str) -> dict:
    out = {"norm": rv.norm, "scale": rv.scale, "exact_zero": rv.exact_zero}
    if mode == EXACT:
        out["values"] = [format_rational(v) for v in rv.values]
    return out


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
            # but explicit plan points can graze singular sets in float mode;
            # logging loads here, so the warning reaches stderr without -v
            import logging
            logging.getLogger("polyharm").warning("skipping point %s: %s", _point_list(x), exc)
            skipped.append(f"skipped {' '.join(_point_list(x))}: {exc}")
            continue
        evals.append(e)
        points_out.append(
            {
                "point": _point_list(x),
                "harmonic": e["harmonic"],
                "residuals": {name: _rv_dict(e[name], mode) for name in ("CL", "SDL", "ND", "ND2")},
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
        _progress(
            "check instance %d: %s, match=%s (%.3fs)",
            i, instances[-1]["verdict"], instances[-1].get("match"), time.perf_counter() - start,
        )
    mismatches = [i for i, entry in enumerate(instances) if entry.get("match") is False]
    return {
        "instances": instances,
        "mismatches": mismatches,
        "all_match": not mismatches,
    }
