"""The ``selftest`` command: invariant batteries over the verdict path, and
the radial spot checks of the classification polynomials."""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from . import residuals
from .errors import ConfigError, InterpolationError, PolyharmError
from .mobius import ConformalInstance, MobiusMap
from .rationals import EXACT, FLOAT, format_rational, rational
from .residuals import DEFAULT_FLOAT_TOL
from .spaceform import SpaceFormModel
from .verifier import (
    CURVATURE_PAIRS, _coordinates, _polyharmonic_point, _polyharmonic_trial, _sweep_instance, require_mode,
)


# -- radial classification spot checks --------------------------------------------


def _quadratic_through(samples: list[tuple]) -> list:
    """Exact coefficients, constant first, of the quadratic in s through the
    first three (s, value) samples, by divided differences; every further
    sample must lie on it, which catches a degree above 2."""
    (s0, v0), (s1, v1), (s2, v2) = samples[:3]
    d01, d12 = (v1 - v0) / (s1 - s0), (v2 - v1) / (s2 - s1)
    c2 = (d12 - d01) / (s2 - s0)
    c1 = d01 - c2 * (s0 + s1)
    c0 = v0 - s0 * (c1 + c2 * s0)
    if any(c0 + s * (c1 + c2 * s) != v for s, v in samples[3:]):
        raise InterpolationError("extra sample inconsistent with the interpolant: degree underestimated")
    return [c0, c1, c2]


def radial_classification_check(kind: str, c_value, m: int) -> dict:
    """Read the radial polynomial of the second necessary condition off ND2
    at four exact points t e_1 (the quadratic through three, the fourth on
    it) and compare its low-order coefficients with the classification values.

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
    zero = tuple(rational(0) for _ in range(m))
    ts = [Fraction(j, j + 1) for j in range(1, 5)]
    if kind == "sphere-sphere":
        domain, target = SpaceFormModel.sphere(m), SpaceFormModel.sphere(m)
        expected = [
            c * c * (c * c - 1) * (-2 * c * c - (m - 4)),
            (c * c - 1) * ((m - 4) * c**4 - 4 * (m - 3) * c * c + (m - 4)),
        ]
    elif kind == "sphere-hyperbolic":
        domain, target = SpaceFormModel.sphere(m), SpaceFormModel.hyperbolic(m)
        expected = [
            c * c * (c * c + 1) * (2 * c * c - (m - 4)),
            -(c * c + 1) * ((m - 4) * c**4 + 4 * (m - 3) * c * c + (m - 4)),
        ]
        # factor positivity needs |x| > c along the ray
        ts = [c + t for t in ts]
    elif kind == "hyperbolic-flat":
        domain, target = SpaceFormModel.hyperbolic(m), SpaceFormModel.flat(m)
        expected = [rational(0), rational(-(m - 4)), rational(-2)]
    else:
        raise ConfigError(f"unknown radial check kind {kind!r}")
    mmap = MobiusMap.build(a=zero, b=zero, k=c, epsilon=2)
    instance = ConformalInstance(domain=domain, target=target, map=mmap)
    samples = []
    for t in ts:
        # ND2 at t e_1: its component along e_1 over t, normalised
        radial = residuals.evaluate_residuals(instance, (t,) + zero[1:])["ND2"].values[0] / t
        s = t * t
        if kind == "hyperbolic-flat":
            samples.append((s, radial * (2 / (1 - s)) ** 3 * s**5 / (c * c)))
        else:
            den = s - c * c if kind == "sphere-hyperbolic" else c * c + s
            samples.append((s, radial * (2 / (1 + s)) ** 3 * den**5 / (4 * c * c)))
    coeffs = _quadratic_through(samples)
    ok = coeffs[: len(expected)] == expected
    return {
        "kind": kind,
        "m": m,
        "c": format_rational(c),
        "coefficients": [format_rational(v) for v in coeffs],
        "expected": [format_rational(v) for v in expected],
        "ok": ok,
    }


# -- selftest ----------------------------------------------------------------------


# the 18 instance families of the chain and conservation batteries
_FAMILIES = [(5, c1, c2, e) for c1, c2 in CURVATURE_PAIRS for e in (0, 2)]


def _geometries(tag: str, families, style: int, points: int, mode: str, tol: float):
    """(family, geometry) at each sample point of each family (m, c1, c2,
    epsilon), drawn as the biharmonic sweep draws a trial, on the stream
    "polyharm:selftest:" + ``tag`` formatted with the family."""
    for family in families:
        instance, pts = _sweep_instance("polyharm:selftest:" + tag.format(*family), *family, style, points)
        for x in pts:
            yield family, residuals.evaluate_residuals(instance, _coordinates(x, mode), tol)


def _chain_identity_battery(mode: str, tol: float) -> tuple[bool, str]:
    """ND = SDL, ND2 = -SDL, ND - ND2 = 2 SDL across all curvature pairs."""
    failures = {
        f"(c1={c1}, c2={c2}, eps={e})"
        for (_, c1, c2, e), g in _geometries("chain:{1}:{2}:{3}", _FAMILIES, 2, 2, mode, tol)
        if not _chain_holds(g["SDL"], g["ND"], g["ND2"], tol)
    }
    if failures:
        return False, "failed at " + ", ".join(sorted(failures))
    return True, "18 instances, exact identity chain holds"


def _chain_holds(sdl, nd, nd2, tol: float) -> bool:
    """ND - SDL, ND2 + SDL and ND - ND2 - 2 SDL vanish, judged on the pair
    terms: the three share the numerator (Kn W)^2, and ND's and ND2's
    denominator is SDL's times Kd^2, so over it SDL's terms carry Kd^2."""
    kd2 = nd.den // sdl.den

    def times(c, rv):
        return [tuple(c * v for v in t) for t in rv.terms]

    chain = (
        nd.terms + times(-kd2, sdl),
        nd2.terms + times(kd2, sdl),
        nd.terms + times(-1, nd2) + times(-2 * kd2, sdl),
    )
    return all(residuals.vanishes(terms, tol, sdl.norm_sq) for terms in chain)


def _conservation_battery(mode: str, tol: float) -> tuple[bool, str]:
    bad = {
        f"(c1={c1}, c2={c2}, eps={e})"
        for (_, c1, c2, e), g in _geometries("cl:{1}:{2}:{3}", _FAMILIES, 1, 3, mode, tol)
        if not g["CL"].exact_zero
    }
    if bad:
        return False, "nonzero factor constraint at " + ", ".join(sorted(bad))
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
    checks.append(residuals.vanishes((roundtrip.coeffs, tuple(-v for v in a.coeffs)), tol))
    return all(checks), "ring, division, and iterated-Laplacian oracles"


def _polyharmonic_battery(mode: str, tol: float) -> tuple[bool, str]:
    bad = []
    for m in (3, 4, 6):
        for order in (1, 2):
            mmap, (x,) = _polyharmonic_trial(f"polyharm:selftest:ph:{m}:{order}", m, order, 1)
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
    for (m, c1, c2, _), g in _geometries("sepz:{0}:{1}:{2}:{3}", zero_cases, 0, 3, FLOAT, tol):
        rv = g["SDL"]
        if not residuals.vanishes(rv.terms, zero_bound, rv.norm_sq):
            bad.append(f"zero case (m={m}, c1={c1}, c2={c2}) norm={rv.norm:.2e}")
    for (m, c1, c2, _), g in _geometries("sepn:{0}:{1}:{2}:{3}", nonzero_cases, 0, 2, FLOAT, tol):
        rv = g["SDL"]
        if residuals.vanishes(rv.terms, max(tol, 1e-3), rv.norm_sq):
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
