"""Seeded draws of maps and sample points, on integers.

A sample point is an :class:`~polyharm.rationals.IntegerPoint`, integer
numerators over one positive denominator, from the draw to the residual
kernels: the sampler screens each draw on its integers and keeps them, and
no rational point is formed on the way.  A drawn map forms a and b as
integers over the lcm of their entries' denominators, and its orthogonal
matrix as integers (identity, signed permutation or Cayley transform), and
hands them to the ``MobiusMap`` constructor, which validates them, reduces
each by its gcd and keeps them as the map's only a, b and A; only the scale
k is drawn as a rational.  Every draw comes from a ``random.Random`` the
caller seeds, so the same seed draws the same maps and points.

Every integer draw goes through :func:`_randint`, which consumes the
generator's stream exactly as ``random.Random.randint`` does (one
``getrandbits(k)`` per try, k the bit length of the range's size, redrawn
while the result is out of range) at a fraction of its call overhead, so
seeds keep drawing the maps and points they drew through ``randint``.
``shuffle`` and ``choice`` are used as they are.  Each entry n/d of a or b
draws n, then d.
"""

from __future__ import annotations

import math
import operator
import random

from .errors import AdmissibleRegionError, ConfigError
from .mobius import ConformalInstance, MobiusMap, cayley_bareiss, signed_permutation_integers
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


def _randint(rng: random.Random, lo: int, hi: int) -> int:
    """``rng.randint(lo, hi)``, drawn from the same stream: CPython's
    ``_randbelow_with_getrandbits`` on n = hi - lo + 1."""
    n = hi - lo + 1
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return lo + r


def _screen(instance: ConformalInstance, exclusion, den: int, r: int = 1):
    """The admissibility test of the points x = r v / den (v integers,
    den > 0) of this instance: x lies in the domain chart, off the exclusion
    ball round a (eps = 2), and lambda(x) > 0; decided on integers.

    With lambda = kappa * w * fq.den / Q(x - a), the chart weight w and
    ``fq.den`` are positive, so the sign is that of kappa * Q.  Over
    L = den * a_den, u = x - a = U/L with U = r a_den v - den a_num, and
    L^2 Q(u) is an integer.  Everything but U is formed once, here.
    """
    fq = instance.factor
    if fq.kappa <= 0:
        return lambda v: False
    L = den * fq.a_den
    ra = r * fq.a_den
    shift = [den * a for a in fq.a_num]
    # |x| < 1 on the ball: r^2 |v|^2 < den^2
    ball = den * den if instance.domain.curvature < 0 else None
    r2 = r * r
    # |u| > exclusion round a: |U|^2 e_den^2 > (e_num L)^2
    excl = (exclusion.numerator * L) ** 2 if instance.map.epsilon == 2 else None
    excl_den2 = exclusion.denominator**2
    q0 = fq.value * L * L
    lin = [2 * L * g for g in fq.linear]
    qs = fq.square

    def admissible(v) -> bool:
        if ball is not None and r2 * sum(map(operator.mul, v, v)) >= ball:
            return False
        U = [ra * x - s for x, s in zip(v, shift)]
        u_sq = sum(map(operator.mul, U, U))
        if excl is not None and u_sq * excl_den2 <= excl:
            return False
        return q0 + sum(map(operator.mul, lin, U)) + qs * u_sq > 0

    return admissible


def sample_points(plan, instance: ConformalInstance) -> list[IntegerPoint]:
    """Deterministic admissible points for this instance, as integer points.

    Explicit points, held by the plan as rationals, are configuration: a point
    without m coordinates or off the admissible region is a ``ConfigError``;
    each becomes its integers over the lcm of its denominators.  Otherwise
    rejection sampling draws coordinates radius * n/16 with integers
    |n| <= 16 until ``count`` admissible distinct points are found; it
    raises once the retry budget is spent or all 33^m lattice points n
    have been drawn, and a count above 33^m is a ``ConfigError`` before any
    draw.  A draw is screened on its integers n, and an accepted one is
    kept as r n over the one denominator 16 * den(radius), r = num(radius);
    the radius is positive, so distinct n are distinct points.  No point is
    formed as rationals: reports print them.  Both paths test admissibility
    with one :func:`_screen` per denominator.
    """
    if plan.points is not None:
        out = []
        for x in plan.points:
            if len(x) != instance.dim:
                point = " ".join(format_rational(v) for v in x)
                raise ConfigError(f"explicit point {point} has {len(x)} coordinates, not m = {instance.dim}")
            N, den = integer_vector(x)
            if not _screen(instance, plan.exclusion, den)(N):
                point = " ".join(format_rational(v) for v in x)
                raise ConfigError(f"explicit point {point} is not admissible for this instance")
            out.append(IntegerPoint(N, den))
        return out
    m = instance.dim
    lattice = require_lattice(plan.count, m)
    radius = plan.radius if plan.radius is not None else _default_radius(instance.domain)
    r_num = radius.numerator
    den = _POINT_MAX_DEN * radius.denominator
    admissible = _screen(instance, plan.exclusion, den, r_num)
    rng = random.Random(f"polyharm:points:{plan.seed}")
    found: list[IntegerPoint] = []
    seen = set()
    budget = _REJECTION_FACTOR * plan.count
    for _ in range(budget):
        n = tuple([_randint(rng, -_POINT_MAX_DEN, _POINT_MAX_DEN) for _ in range(m)])
        if n in seen:
            # once every lattice point is seen, every draw is a repeat
            if len(seen) == lattice:
                break
            continue
        seen.add(n)
        if admissible(n):
            found.append(IntegerPoint([r_num * v for v in n], den))
            if len(found) == plan.count:
                return found
    where = f"all {lattice} lattice points" if len(seen) == lattice else f"{budget} draws"
    raise AdmissibleRegionError(f"found {len(found)}/{plan.count} admissible points within {where}")


def require_lattice(count: int, m: int) -> int:
    """The 33^m points of the draw lattice at dimension m, refusing a count
    of random points above it: no budget of draws could find them."""
    lattice = (2 * _POINT_MAX_DEN + 1) ** m
    if count > lattice:
        raise ConfigError(f"{count} sample points asked for, but the m = {m} draw lattice holds {lattice}")
    return lattice


def _flat_sample_point(rng: random.Random, mmap: MobiusMap) -> IntegerPoint:
    """One point n/4, |n_i| <= 8, with |x - a| > 1/4: off the singular set.
    With a = a_num / a_den, x - a = U / (4 a_den) and the test is |U| > a_den."""
    m = mmap.dim
    a_num, a_den = mmap.a_integers
    for _ in range(200):
        n = [_randint(rng, -8, 8) for _ in range(m)]
        if sum((v * a_den - 4 * a) ** 2 for v, a in zip(n, a_num)) > a_den * a_den:
            return IntegerPoint(n, 4)
    raise AdmissibleRegionError("could not place a point away from the singular set")


def _rand_vector(rng: random.Random, m: int, max_num: int, den_lo: int, den_hi: int) -> tuple[list, int]:
    """m rationals n/d, |n| <= max_num and den_lo <= d <= den_hi, drawn n
    then d per entry, as integers over the lcm of the d: the constructor
    reduces them by their gcd."""
    nums, dens = [], []
    for _ in range(m):
        nums.append(_randint(rng, -max_num, max_num))
        dens.append(_randint(rng, den_lo, den_hi))
    L = math.lcm(*dens)
    return [n * (L // d) for n, d in zip(nums, dens)], L


def _random_orthogonal(rng: random.Random, m: int, style: int) -> tuple[list, int]:
    """(N, D), D > 0, with N/D orthogonal: the identity, a signed permutation
    or the Cayley transform of a small skew matrix, by style mod 3."""
    style = style % 3
    if style == 0:
        return signed_permutation_integers(range(m)), 1
    if style == 1:
        perm = list(range(m))
        rng.shuffle(perm)
        signs = [rng.choice((-1, 1)) for _ in range(m)]
        return signed_permutation_integers(perm, signs), 1
    # a skew S with entries n / d, |n| <= 1 and d in {2, 3}, as the
    # integers 6 S over 6
    N = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            v = _randint(rng, -1, 1) * (6 // _randint(rng, 2, 3))
            N[i][j] = v
            N[j][i] = -v
    return cayley_bareiss(N, 6)


def random_mobius(
    rng: random.Random,
    m: int,
    target: SpaceFormModel,
    epsilon: int,
    style: int = 0,
) -> MobiusMap:
    """Small-rational map draw, constrained so admissible points exist: a and
    b drawn as integers over one denominator, k one rational.

    k is kept positive (factors must be positive where sampled).  Hyperbolic
    targets additionally need |b| < 1 (reduced parameters defined) and a small
    k, otherwise the preimage of the unit ball is a negligible slice of the
    sampling box and rejection sampling starves: for the inversive branch the
    admissible shell is |x - a| > k/(1 - |b|), for the affine branch a ball of
    radius 1/k around the preimage of the origin.  Through m = 12 the draws
    are the fixed ones below; beyond it b and k are sized from m so that the
    image of the sampled region lies inside the ball by construction.
    """
    a = _rand_vector(rng, m, 2, 2, 4)
    if target.curvature == -1:
        # |b_i| <= 1/d: d >= 7 gives |b| < 1/2 through m = 12, d = 2 ceil(sqrt m)
        # beyond it
        c = math.isqrt(m - 1) + 1
        d = 7 if m <= 12 else 2 * c
        b = _rand_vector(rng, m, 1, d, d + 1)
        if epsilon == 2:
            # |phi(x)| <= |b| + k / |x - a|, and the sampler keeps |x - a| >
            # 1/8: beyond m = 12, k <= 1/16 holds it below 1
            k = rational(_randint(rng, 1, 3), _randint(rng, 6, 8) * (1 if m <= 12 else 8))
        elif m <= 12:
            # |phi(x)| <= |b| + k|x - a| and the box reaches |x - a| ~ 3 sqrt(m),
            # so k ~ 1/16 keeps the whole box inside the ball through m = 12
            k = rational(1, _randint(rng, 13, 16))
        else:
            # the draw box has |x_i| <= 2 and |a_i| <= 1, so |x - a| <= 3c:
            # k < 1/(6c) keeps |phi(x)| < 1/2 + 1/2
            k = rational(1, _randint(rng, 6 * c + 1, 6 * c + 4))
    else:
        b = _rand_vector(rng, m, 2, 2, 4)
        k = rational(_randint(rng, 1, 6), _randint(rng, 1, 6))
    # a, b and A come as integers and k as a rational: construction
    # validates the map on them
    return MobiusMap(a, b, k, _random_orthogonal(rng, m, style), epsilon)
