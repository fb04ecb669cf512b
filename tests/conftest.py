"""Shared helpers: seeded rational draws and independent oracles."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from polyharm import jets
from polyharm.mobius import ConformalInstance, MobiusMap
from polyharm.rationals import IntegerPoint, rational
from polyharm.spaceform import SpaceFormModel
from polyharm.verifier import SamplePlan, random_mobius, sample_points


def rng_for(tag: str) -> random.Random:
    return random.Random(f"polyharm-tests:{tag}")


def rand_rat(rng, max_num=3, max_den=4, nonzero=False):
    while True:
        num = rng.randint(-max_num, max_num)
        if nonzero and num == 0:
            continue
        return rational(num, rng.randint(1, max_den))


def rand_point(rng, m, max_num=5, max_den=4):
    return tuple(rand_rat(rng, max_num, max_den) for _ in range(m))


def floats(x) -> tuple:
    """The float point of a rational one: the biharmonic evaluator runs in float mode."""
    return x.floats() if isinstance(x, IntegerPoint) else tuple(float(v) for v in x)


def exact_norm_sq(values):
    return sum(v * v for v in values)


def make_instance(tag: str, m: int, c1: int, c2: int, epsilon: int, style: int = 0):
    """Deterministic random instance plus admissible points, as tuples of
    rationals: the oracles read coordinates, which the sampler's integer
    points do not offer."""
    rng = rng_for(tag)
    domain = SpaceFormModel(m, c1)
    target = SpaceFormModel(m, c2)
    for _ in range(10):
        mmap = random_mobius(rng, m, target, epsilon, style)
        instance = ConformalInstance(domain=domain, target=target, map=mmap)
        plan = SamplePlan(seed=rng.randint(0, 2**31), count=4)
        try:
            return instance, [x.fractions() for x in sample_points(plan, instance)]
        except Exception:
            continue
    raise RuntimeError(f"no admissible instance for {tag}")


def sympy_taylor_coefficients(expr, symbols, x0, degree):
    """Independent Taylor oracle: c_beta = d^beta f(x0) / beta! via sympy."""
    import sympy as sp

    subs = dict(zip(symbols, [sp.Rational(v.numerator, v.denominator) for v in x0]))
    out = {}
    for beta in jets.multi_indices(len(symbols), degree):
        d = expr
        fact = 1
        for sym, b in zip(symbols, beta):
            if b:
                d = sp.diff(d, sym, b)
                fact *= math.factorial(b)
        val = sp.Rational(sp.nsimplify(d.subs(subs)))
        out[beta] = Fraction(val.p, val.q) / fact
    return out


@pytest.fixture
def flat_inversion_m4():
    inv = MobiusMap.inversion(4)
    return ConformalInstance(
        domain=SpaceFormModel.flat(4), target=SpaceFormModel.flat(4), map=inv
    )
