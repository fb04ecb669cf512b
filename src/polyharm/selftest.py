"""The ``selftest`` command: invariant batteries over the verdict path, and
the radial spot checks of the classification polynomials."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Sequence

from . import residuals
from .errors import ConfigError, InterpolationError, PolyharmError
from .mobius import ConformalInstance, MobiusMap
from .rationals import EXACT, FLOAT, format_rational, rational
from .residuals import DEFAULT_FLOAT_TOL
from .sampling import _flat_sample_point, random_mobius
from .spaceform import SpaceFormModel
from .verifier import CURVATURE_PAIRS, _coordinates, _polyharmonic_point, _sweep_instance, require_mode


# -- radial coefficient extraction --------------------------------------------

_EXTRA_SAMPLES = 1  # samples past the max_degree + 1 nodes that must fit the interpolant


def radial_coefficients(
    evaluator: Callable[[tuple], object],
    direction: Sequence,
    max_degree: int,
    ts: Sequence | None = None,
) -> list:
    """Exact coefficients of a radial polynomial along a ray.

    ``evaluator`` receives the point t * direction and must return an exact
    rational that is a polynomial in s = t^2 of degree <= max_degree (the
    caller has already cleared the known denominators).  Samples that raise
    toolkit errors (singular set hits) are skipped.  ``_EXTRA_SAMPLES``
    additional samples must agree with the interpolant, which catches an
    underestimated degree.  Returns monomial coefficients in s, constant first.
    """
    direction = tuple(rational(v) for v in direction)
    if sum(v * v for v in direction) != 1:
        raise InterpolationError("direction must have exact unit length")
    if ts is None:
        ts = [Fraction(j, j + 1) for j in range(1, 4 * (max_degree + _EXTRA_SAMPLES) + 2)]
    samples: list[tuple] = []
    needed = max_degree + 1 + _EXTRA_SAMPLES
    for t in ts:
        tq = rational(t)
        point = tuple(tq * v for v in direction)
        try:
            val = evaluator(point)
        except PolyharmError:
            continue
        samples.append((tq * tq, val))
        if len(samples) == needed:
            break
    if len(samples) < needed:
        raise InterpolationError(
            f"only {len(samples)} usable samples for degree {max_degree} + {_EXTRA_SAMPLES} checks"
        )
    nodes = samples[: max_degree + 1]
    coeffs = _newton_to_monomial(nodes)
    for sv, val in samples[max_degree + 1 :]:
        acc = rational(0)
        power = rational(1)
        for cfr in coeffs:
            acc += cfr * power
            power *= sv
        if acc != val:
            raise InterpolationError(
                "extra sample inconsistent with the interpolant: degree underestimated"
            )
    return coeffs


def _newton_to_monomial(nodes: list[tuple]) -> list:
    """Exact interpolation through the nodes via Newton divided differences."""
    xs = [p for p, _ in nodes]
    divided = [v for _, v in nodes]
    n = len(nodes)
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            divided[i] = (divided[i] - divided[i - 1]) / (xs[i] - xs[i - level])
    # Horner expansion of the Newton form into ascending monomial coefficients
    coeffs = [divided[n - 1]]
    for i in range(n - 2, -1, -1):
        xi = xs[i]
        new = [rational(0)] * (len(coeffs) + 1)
        for j, cj in enumerate(coeffs):
            new[j] = new[j] - xi * cj
            new[j + 1] = new[j + 1] + cj
        new[0] = new[0] + divided[i]
        coeffs = new
    return coeffs


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

    coeffs = radial_coefficients(evaluator, direction, max_degree=2, ts=ts)
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
                if not _chain_holds(evals["SDL"], evals["ND"], evals["ND2"], tol):
                    failures.append(f"(c1={c1}, c2={c2}, eps={epsilon})")
    if failures:
        return False, "failed at " + ", ".join(sorted(set(failures)))
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
    checks.append(residuals.vanishes((roundtrip.coeffs, tuple(-v for v in a.coeffs)), tol))
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
            if not residuals.vanishes(rv.terms, zero_bound, rv.norm_sq):
                bad.append(f"zero case (m={m}, c1={c1}, c2={c2}) norm={rv.norm:.2e}")
    for m, c1, c2, epsilon in nonzero_cases:
        tag = f"polyharm:selftest:sepn:{m}:{c1}:{c2}:{epsilon}"
        instance, pts = _sweep_instance(tag, m, c1, c2, epsilon, 0, 2)
        for x in pts:
            rv = residuals.evaluate_residuals(instance, _coordinates(x, FLOAT), tol)["SDL"]
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
