"""Seeded draws of maps and sample points, on integers.

A sample point is an :class:`~polyharm.rationals.IntegerPoint`, integer
numerators over one positive denominator, from the draw to the residual
kernels: the sampler screens each draw on its integers and keeps them, and
no rational point is formed on the way.  A drawn map forms its orthogonal
matrix as integers (identity, signed permutation or Cayley transform) and
hands them to validation with ``MobiusMap.from_integers``.  Every draw comes
from a ``random.Random`` the caller seeds, so the same seed draws the same
maps and points.
"""

from __future__ import annotations

import math
import random

from .errors import AdmissibleRegionError, ConfigError
from .mobius import ConformalInstance, MobiusMap, cayley_integers, signed_permutation_integers
from .rationals import IntegerPoint, format_rational, integer_vector, rational
from .spaceform import SpaceFormModel

# small-rational knobs for random parameter draws; numerators and denominators
# stay <= 16 to bound integer growth in the exact residual kernels
_POINT_MAX_DEN = 16
_REJECTION_FACTOR = 400


def _default_radius(domain: SpaceFormModel):
    """Half-width r of the draw cube.  A draw has mean |x|^2 of about m r^2 / 3
    and the ball keeps only |x| < 1: with 3/4 that mean grows like 0.19 m, so
    beyond m = 8 the radius is 1/ceil(sqrt m), which holds it near 1/3."""
    if domain.curvature != -1:
        return rational(2)
    m = domain.dim
    return rational(3, 4) if m <= 8 else rational(1, math.isqrt(m - 1) + 1)


def _admissible(instance: ConformalInstance, N, den: int, exclusion) -> bool:
    """x = N/den (integers, den > 0) lies in the domain chart, off the
    exclusion ball round a (eps = 2), and lambda(x) > 0; decided on integers.

    With lambda = kappa * w * fq.den / Q(x - a), the chart weight w and
    ``fq.den`` are positive, so the sign is that of kappa * Q.  Over
    L = den * a_den, u = x - a = U/L and L^2 Q(u) is an integer.
    """
    if instance.domain.curvature < 0 and sum(v * v for v in N) >= den * den:
        return False  # outside the ball |x| < 1
    fq = instance.factor
    L = den * fq.a_den
    U = [v * fq.a_den - den * a for v, a in zip(N, fq.a_num)]
    u_sq = sum(v * v for v in U)
    if instance.map.epsilon == 2 and u_sq * exclusion.denominator**2 <= (exclusion.numerator * L) ** 2:
        return False
    q = fq.value * L * L + 2 * L * sum(g * v for g, v in zip(fq.linear, U)) + fq.square * u_sq
    return fq.kappa > 0 and q > 0


def sample_points(plan, instance: ConformalInstance) -> list[IntegerPoint]:
    """Deterministic admissible points for this instance, as integer points.

    Explicit plan points are configuration, validated as such: a point
    without m coordinates or off the admissible region is a ``ConfigError``;
    each becomes its integers over the lcm of its denominators.  Otherwise
    rejection sampling draws coordinates radius * n/16 with integers
    |n| <= 16 until ``count`` admissible distinct points are found or the
    retry budget is exhausted.  A draw is screened on its integers, and an
    accepted one is kept as those integers over the one denominator
    16 * den(radius); the radius is positive, so distinct n are distinct
    points.  No point is formed as rationals: reports print them.
    """
    exclusion = rational(plan.exclusion)
    if plan.points is not None:
        out = []
        for x in plan.points:
            if len(x) != instance.dim:
                point = " ".join(format_rational(v) for v in x)
                raise ConfigError(f"explicit point {point} has {len(x)} coordinates, not m = {instance.dim}")
            N, den = integer_vector([rational(v) for v in x])
            if not _admissible(instance, N, den, exclusion):
                point = " ".join(format_rational(v) for v in x)
                raise ConfigError(f"explicit point {point} is not admissible for this instance")
            out.append(IntegerPoint(N, den))
        return out
    radius = rational(plan.radius) if plan.radius is not None else _default_radius(instance.domain)
    r_num = radius.numerator
    den = _POINT_MAX_DEN * radius.denominator
    rng = random.Random(f"polyharm:points:{plan.seed}")
    m = instance.dim
    found: list[IntegerPoint] = []
    seen = set()
    budget = _REJECTION_FACTOR * plan.count
    for _ in range(budget):
        n = tuple(rng.randint(-_POINT_MAX_DEN, _POINT_MAX_DEN) for _ in range(m))
        if n in seen:
            continue
        seen.add(n)
        N = [r_num * v for v in n]
        if _admissible(instance, N, den, exclusion):
            found.append(IntegerPoint(N, den))
            if len(found) == plan.count:
                return found
    raise AdmissibleRegionError(
        f"found {len(found)}/{plan.count} admissible points within {budget} draws"
    )


def _flat_sample_point(rng: random.Random, mmap: MobiusMap) -> IntegerPoint:
    """One point n/4, |n_i| <= 8, with |x - a| > 1/4: off the singular set.
    With a = a_num / a_den, x - a = U / (4 a_den) and the test is |U| > a_den."""
    m = mmap.dim
    a_num, a_den = integer_vector(mmap.a)
    for _ in range(200):
        n = [rng.randint(-8, 8) for _ in range(m)]
        if sum((v * a_den - 4 * a) ** 2 for v, a in zip(n, a_num)) > a_den * a_den:
            return IntegerPoint(n, 4)
    raise AdmissibleRegionError("could not place a point away from the singular set")


def _rand_rational(rng: random.Random, max_num: int, den_lo: int, den_hi: int, nonzero=False):
    while True:
        num = rng.randint(-max_num, max_num)
        if nonzero and num == 0:
            continue
        return rational(num, rng.randint(den_lo, den_hi))


def _random_orthogonal(rng: random.Random, m: int, style: int) -> tuple[list, int]:
    """(N, D), D > 0, with N/D orthogonal: the identity, a signed permutation
    or the Cayley transform of a small skew matrix, by style mod 3."""
    style = style % 3
    if style == 0:
        return [[int(i == j) for j in range(m)] for i in range(m)], 1
    if style == 1:
        perm = list(range(m))
        rng.shuffle(perm)
        signs = [rng.choice((-1, 1)) for _ in range(m)]
        return signed_permutation_integers(perm, signs), 1
    rows = [[rational(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            v = _rand_rational(rng, 1, 2, 3)
            rows[i][j] = v
            rows[j][i] = -v
    return cayley_integers(rows)


def random_mobius(
    rng: random.Random,
    m: int,
    target: SpaceFormModel,
    epsilon: int,
    style: int = 0,
) -> MobiusMap:
    """Small-rational map draw, constrained so admissible points exist.

    k is kept positive (factors must be positive where sampled).  Hyperbolic
    targets additionally need |b| < 1 (reduced parameters defined) and a small
    k, otherwise the preimage of the unit ball is a negligible slice of the
    sampling box and rejection sampling starves: for the inversive branch the
    admissible shell is |x - a| > k/(1 - |b|), for the affine branch a ball of
    radius 1/k around the preimage of the origin.
    """
    a = tuple(_rand_rational(rng, 2, 2, 4) for _ in range(m))
    if target.curvature == -1:
        b = tuple(_rand_rational(rng, 1, 7, 8) for _ in range(m))
        if epsilon == 2:
            k = rational(rng.randint(1, 3), rng.randint(6, 8))
        else:
            # |phi(x)| <= |b| + k|x - a| and the box reaches |x - a| ~ 3 sqrt(m),
            # so k ~ 1/16 keeps the whole box inside the ball through m = 12
            k = rational(1, rng.randint(13, 16))
    else:
        b = tuple(_rand_rational(rng, 2, 2, 4) for _ in range(m))
        k = rational(rng.randint(1, 6), rng.randint(1, 6))
    # every entry is already rational and A comes as integers: construction
    # validates the map on them
    N, D = _random_orthogonal(rng, m, style)
    return MobiusMap.from_integers(a, b, k, N, D, epsilon)
