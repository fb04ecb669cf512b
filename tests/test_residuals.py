"""Residual evaluators: conservation law, identity chain, closed forms."""

import gc
import itertools
import math
import operator
import weakref
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from polyharm import jets, residuals
from polyharm.errors import (
    ChartDomainError,
    InterpolationError,
    NonpositiveFactorError,
    PolyharmError,
    SingularDivisionError,
)
from polyharm.jets import seed
from polyharm.mobius import ConformalInstance, MobiusMap, integer_matrix
from polyharm.rationals import EXACT, FLOAT, IntegerPoint, exact_point, integer_vector, rational
from polyharm.residuals import (
    ConformalGeometry,
    _cl_from_geometry,
    _geometry_algebra,
    _nd2_from_geometry,
    _nd_from_geometry,
    _sdl_from_geometry,
    closed_form_coefficient,
    evaluate_residuals,
    polyharmonic_closed_form,
    polyharmonic_orders,
)
from polyharm.check import load_config
from polyharm.sampling import _flat_sample_point, _random_orthogonal
from polyharm.selftest import _chain_identity_battery, _jet_oracle_battery, _quadratic_through, radial_classification_check
from polyharm.spaceform import SpaceFormModel
from polyharm.verifier import (
    CURVATURE_PAIRS,
    _polyharmonic_point,
    _sweep_instance,
    _verdict,
    random_mobius,
    sample_points,
)

from conftest import floats, make_instance, rand_point, rand_rat, rng_for
from jet_oracles import conformal_factor, fraction_matrix, grad_norm_sq_bar, inv_sigma_jet, laplace_beltrami


def _zeros(m):
    return tuple(rational(0) for _ in range(m))


def _flat_pair(m):
    return SpaceFormModel.flat(m), SpaceFormModel.flat(m)


class TestFactorConstraint:
    def test_flat_inversive_identity_every_dimension(self):
        # lam*lap(lam) and ((m-4)/2)|grad lam|^2 cancel exactly for k/|x-a|^2
        rng = rng_for("cl-flat")
        for m in range(3, 9):
            domain, target = _flat_pair(m)
            mmap = MobiusMap.build(
                a=rand_point(rng, m), b=rand_point(rng, m), k=rational(3, 2), epsilon=2
            )
            inst = ConformalInstance(domain=domain, target=target, map=mmap)
            pt = tuple(ai + rational(1, 2) for ai in mmap.a)
            assert evaluate_residuals(inst, pt)["CL"].exact_zero

    def test_flat_to_hyperbolic_m4_cubic_law(self):
        # in dimension 4 the constraint collapses to lap(lam) = 2 lam^3
        inst, pts = make_instance("cl-rh", 4, 0, -1, 2)
        for pt in pts:
            x = seed(pt, 3)
            lam = conformal_factor(inst.domain, inst.target, inst.map, x)
            assert lam.laplacian().value() == 2 * lam.value() ** 3
            assert evaluate_residuals(inst, pt)["CL"].exact_zero

    def test_flat_to_sphere_m4_cubic_law(self):
        inst, pts = make_instance("cl-rs", 4, 0, 1, 2)
        for pt in pts:
            x = seed(pt, 3)
            lam = conformal_factor(inst.domain, inst.target, inst.map, x)
            assert lam.laplacian().value() == -2 * lam.value() ** 3

    @pytest.mark.parametrize("c1,c2", CURVATURE_PAIRS)
    @pytest.mark.parametrize("epsilon", [0, 2])
    def test_conservation_all_families(self, c1, c2, epsilon):
        inst, pts = make_instance(f"cl:{c1}:{c2}:{epsilon}", 5, c1, c2, epsilon)
        for pt in pts:
            assert evaluate_residuals(inst, pt)["CL"].exact_zero


class TestBiharmonicResidual:
    def test_flat_inversive_m4_zero(self, flat_inversion_m4):
        rng = rng_for("sdl4")
        for _ in range(6):
            pt = rand_point(rng, 4)
            if not any(pt):
                continue
            assert evaluate_residuals(flat_inversion_m4, pt)["SDL"].exact_zero

    def test_flat_inversive_m5_nonzero(self):
        inv = MobiusMap.inversion(5)
        inst = ConformalInstance(*_flat_pair(5), map=inv)
        pt = (1, 0, 0, 0, 0)
        rv = evaluate_residuals(inst, pt)["SDL"]
        assert not rv.exact_zero
        assert rv.values == (8, 0, 0, 0, 0)  # 8(m-4)k^2 (x-a)/|x-a|^8 at e1

    def test_flat_to_sphere_identity_map_m4_zero(self):
        mmap = MobiusMap.build(a=_zeros(4), b=_zeros(4), k=1, epsilon=0)
        inst = ConformalInstance(SpaceFormModel.flat(4), SpaceFormModel.sphere(4), mmap)
        rng = rng_for("b2ii-sdl")
        for _ in range(5):
            rv = evaluate_residuals(inst, rand_point(rng, 4))["SDL"]
            assert rv.exact_zero


class TestNecessaryConditions:
    def test_flat_inversive_symbolic_value(self):
        # ND equals twice the halved display -(2/k)(m-4) lam^2 grad lam
        rng = rng_for("nd-symbolic")
        for m in range(3, 9):
            k = rational(rng.randint(1, 5), rng.randint(1, 5))
            a = rand_point(rng, m)
            mmap = MobiusMap.build(a=a, b=rand_point(rng, m), k=k, epsilon=2)
            inst = ConformalInstance(*_flat_pair(m), map=mmap)
            pt = tuple(ai + rand_rat(rng, 2, 2, nonzero=True) for ai in a)
            x = seed(pt, 3)
            lam = conformal_factor(inst.domain, inst.target, inst.map, x)
            lam0 = lam.value()
            grad = lam.gradient()
            halved = tuple(-2 * (m - 4) * lam0 * lam0 * g / k for g in grad)
            rv = evaluate_residuals(inst, pt)["ND"]
            assert rv.values == tuple(2 * v for v in halved)

    def test_m4_flat_inversive_both_zero(self, flat_inversion_m4):
        pt = (rational(1), rational(1, 2), rational(-1, 3), rational(2))
        assert evaluate_residuals(flat_inversion_m4, pt)["ND"].exact_zero
        assert evaluate_residuals(flat_inversion_m4, pt)["ND2"].exact_zero

    def test_hyperbolic_to_flat_radial_quartic(self):
        # along a ray the normalized second condition is -(m-4)s - 2s^2
        out = radial_classification_check("hyperbolic-flat", Fraction(1, 2), 5)
        assert out["ok"]
        assert out["coefficients"][:3] == ["0/1", "-1/1", "-2/1"]


class TestIdentityChain:
    @pytest.mark.parametrize("c1,c2", CURVATURE_PAIRS)
    @pytest.mark.parametrize("epsilon", [0, 2])
    def test_locked_combinations(self, c1, c2, epsilon):
        """ND = SDL and ND2 = -SDL given the constraint; ND - ND2 = 2 SDL
        unconditionally.  All exact, every instance family."""
        inst, pts = make_instance(f"chain:{c1}:{c2}:{epsilon}", 5, c1, c2, epsilon, style=1)
        for pt in pts:
            ev = evaluate_residuals(inst, pt)
            sdl, nd, nd2 = ev["SDL"].values, ev["ND"].values, ev["ND2"].values
            assert nd == sdl
            assert tuple(-v for v in nd2) == sdl
            assert all(a - b == 2 * s for a, b, s in zip(nd, nd2, sdl))

    def test_expanded_product_rule_form(self):
        """The five-term expansion with grad(lam*lap lam) split by the product
        rule reproduces SDL exactly (jets satisfy the product rule exactly)."""
        inst, pts = make_instance("snd-form", 5, 1, -1, 2)
        dom = inst.domain
        m = inst.dim
        for pt in pts:
            x = seed(pt, 3)
            lam = conformal_factor(dom, inst.target, inst.map, x)
            w = inv_sigma_jet(dom, x)
            w0sq = w.value() * w.value()
            lapbar = laplace_beltrami(lam, dom, x)
            gnorm = grad_norm_sq_bar(lam, dom, x)
            c1 = dom.curvature
            grad_ll = (lam * lapbar).gradient()
            grad_l = lam.gradient()
            grad_g = gnorm.gradient()
            lam0, lap0 = lam.value(), lapbar.value()
            snd = tuple(
                w0sq * (gll - 4 * lap0 * gl)
                - rational(m - 4, 2) * w0sq * gg
                + 2 * (m - 1) * c1 * lam0 * w0sq * gl
                for gll, gl, gg in zip(grad_ll, grad_l, grad_g)
            )
            assert snd == evaluate_residuals(inst, pt)["SDL"].values


def _dense_geometry(instance, x) -> dict:
    """lambda, lapbar lambda, |gradbar lambda|^2 and their gradients the dense
    way: degree-3 jets of the composed factor and the curved operators of
    polyharm.spaceform, float when a coordinate of x is."""
    x_jets = seed(x, 3)
    dom = instance.domain
    lam = conformal_factor(dom, instance.target, instance.map, x_jets)
    w = inv_sigma_jet(dom, x_jets)
    lapbar = laplace_beltrami(lam, dom, x_jets)
    gnorm = grad_norm_sq_bar(lam.truncate(2), dom, x_jets)
    return {
        "lam0": lam.value(),
        "grad_lam": lam.gradient(),
        "w0_sq": w.value() * w.value(),
        "lapbar0": lapbar.value(),
        "grad_lapbar": lapbar.gradient(),
        "grad_lam_lapbar": (lam * lapbar).gradient(),
        "gnorm0": gnorm.value(),
        "grad_gnorm": gnorm.gradient(),
    }


def _raised(fn):
    try:
        fn()
    except PolyharmError as exc:
        return type(exc), str(exc)
    return None


GEOMETRY_FIELDS = (
    "lam0",
    "grad_lam",
    "w0_sq",
    "lapbar0",
    "grad_lapbar",
    "grad_lam_lapbar",
    "gnorm0",
    "grad_gnorm",
)


def _kernel_fields(g: ConformalGeometry) -> dict:
    """The fields of _dense_geometry from the kernel's integers alone: lambda
    = Kn W / (Kd F), its gradient over F^2, lapbar lambda from Lb and grad_Lb,
    |gradbar lambda|^2 from |g|^2 and Gamma (see the residuals docstring),
    the pairs on (X, G) formed as m-vectors by the kernel's ``vector``."""
    q = rational if g.exact else operator.truediv
    Kn, Kd, W, F, D4 = g.Kn, g.Kd, g.W, g.F, g.D4
    grad, grad_Lb, Gamma = g.vector(g.g), g.vector(g.grad_Lb), g.vector(g.Gamma)
    return {
        "lam0": q(Kn * W, Kd * F),
        "grad_lam": tuple(q(Kn * v, Kd * F * F) for v in grad),
        "w0_sq": q(W * W, 4 * D4),
        "lapbar0": q(Kn * g.Lb, Kd * 4 * D4 * F**3),
        "grad_lapbar": tuple(q(Kn * v, Kd * 4 * D4 * F**4) for v in grad_Lb),
        "grad_lam_lapbar": tuple(
            q(Kn**2 * (g.Lb * gj + W * v), Kd**2 * 4 * D4 * F**5) for gj, v in zip(grad, grad_Lb)
        ),
        "gnorm0": q(Kn**2 * W * W * g.gg, Kd**2 * 4 * D4 * F**4),
        "grad_gnorm": tuple(q(Kn**2 * W * v, Kd**2 * 2 * D4 * F**5) for v in Gamma),
    }


class TestGeometryKernelOracle:
    """The integer kernel of ConformalGeometry against the dense jet route:
    the fields formed from its integers, and its refusals."""

    @pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8])
    def test_exact_equal(self, m):
        checked = 0
        for c1, c2 in CURVATURE_PAIRS:
            for eps in (0, 2):
                for style in (0, 1, 2):
                    tag = f"kernel-oracle:{m}:{c1}:{c2}:{eps}:{style}"
                    inst, pts = make_instance(tag, m, c1, c2, eps, style)
                    got = _kernel_fields(ConformalGeometry(inst, pts[0]))
                    assert got == _dense_geometry(inst, pts[0])
                    checked += 1
        assert checked == 9 * 2 * 3

    @pytest.mark.parametrize("m,c1,c2,eps", [(5, 1, -1, 2), (6, -1, 1, 0), (7, 1, 0, 2), (8, -1, -1, 2)])
    def test_float_within_relative_tolerance(self, m, c1, c2, eps):
        inst, pts = make_instance(f"kernel-oracle-float:{m}:{c1}:{c2}:{eps}", m, c1, c2, eps, style=2)
        pt = floats(pts[0])
        got = _kernel_fields(ConformalGeometry(inst, pt))
        want = _dense_geometry(inst, pt)
        for f in GEOMETRY_FIELDS:
            a, b = got[f], want[f]
            a, b = (a, b) if isinstance(b, tuple) else ((a,), (b,))
            assert all(type(v) is float for v in a), f
            scale = max(abs(v) for v in b)
            assert scale > 0
            assert max(abs(u - v) for u, v in zip(a, b)) <= 1e-12 * scale, f

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    @pytest.mark.parametrize(
        "c1,c2,k,eps,pt,error",
        [
            (0, 0, 1, 2, (0, 0, 0, 0), SingularDivisionError),  # x = a
            (0, -1, 1, 0, (1, 0, 0, 0), ChartDomainError),  # |phi| = 1: target boundary
            (0, -1, 1, 0, (2, 0, 0, 0), ChartDomainError),  # |phi| > 1: outside the ball
            (-1, 0, 1, 2, (1, 0, 0, 0), ChartDomainError),  # on the domain chart boundary
            (-1, 0, 1, 2, (1, 1, 0, 0), ChartDomainError),  # outside the domain chart
            (1, 1, -1, 0, (1, 0, 0, 0), NonpositiveFactorError),  # k < 0
        ],
    )
    def test_error_parity(self, mode, c1, c2, k, eps, pt, error):
        mmap = MobiusMap.build(a=_zeros(4), b=_zeros(4), k=k, epsilon=eps)
        inst = ConformalInstance(SpaceFormModel(4, c1), SpaceFormModel(4, c2), mmap)
        if mode == FLOAT:
            pt = floats(pt)
        raised = _raised(lambda: ConformalGeometry(inst, pt))
        assert raised is not None and raised[0] is error
        assert raised == _raised(lambda: _dense_geometry(inst, pt))


def _field_residuals(instance, geo, tol=residuals.DEFAULT_FLOAT_TOL) -> dict:
    """CL, SDL, ND and ND2 as products and sums of the dense geometry's
    fields, each term vector normed on its own as the scale."""
    m, c1, c2 = instance.dim, instance.domain.curvature, instance.target.curvature
    lam0, lapbar0 = geo["lam0"], geo["lapbar0"]

    def gradbar(grads):
        return tuple(geo["w0_sq"] * v for v in grads)

    gb_lam = gradbar(geo["grad_lam"])
    gb_gnorm = gradbar(geo["grad_gnorm"])
    half = rational(m - 4, 2)
    scal_m, scal_n = m * (m - 1) * c1, m * (m - 1) * c2
    cl = [
        (lapbar0,),
        (-rational(1, 2 * (m - 1)) * lam0 * scal_m,),
        (rational(1, 2 * (m - 1)) * lam0**3 * scal_n,),
        (half * geo["gnorm0"] / lam0,),
    ]
    sdl = [
        tuple(lam0 * v for v in gradbar(geo["grad_lapbar"])),
        tuple(-3 * lapbar0 * v for v in gb_lam),
        tuple(-half * v for v in gb_gnorm),
        tuple(2 * (m - 1) * c1 * lam0 * v for v in gb_lam),
    ]
    nd_coef = (2 * m * c2 * lam0 * lam0 + (m - 2) * c1) * lam0
    nd = [
        tuple(2 * v for v in gradbar(geo["grad_lam_lapbar"])),
        tuple(-4 * lapbar0 * v for v in gb_lam),
        tuple(nd_coef * v for v in gb_lam),
    ]
    nd2_coef = (2 - 3 * m) * c1 * lam0 + 2 * m * c2 * lam0**3
    nd2 = [
        tuple((m - 4) * v for v in gb_gnorm),
        tuple(4 * lapbar0 * v for v in gb_lam),
        tuple(nd2_coef * v for v in gb_lam),
    ]
    out = {}
    for name, terms in {"CL": cl, "SDL": sdl, "ND": nd, "ND2": nd2}.items():
        values = tuple(sum(t[i] for t in terms) for i in range(len(terms[0])))
        scale = residuals._left_sum(residuals._norm(t) for t in terms)
        zero = residuals.vanishes(terms, tol)
        out[name] = SimpleNamespace(values=values, exact_zero=zero, norm=residuals._norm(values), scale=scale)
    return out


class TestResidualAssemblyOracle:
    """The integer kernel and assembly of CL, SDL, ND and ND2 against the
    same residuals formed from the dense jet route's lambda, lapbar lambda,
    |gradbar lambda|^2 and their gradients."""

    @staticmethod
    def _instances(m):
        for c1, c2 in CURVATURE_PAIRS:
            for eps in (0, 2):
                for style in (0, 1, 2):
                    yield make_instance(f"assembly-oracle:{m}:{c1}:{c2}:{eps}:{style}", m, c1, c2, eps, style)

    @pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8])
    def test_exact_equal(self, m):
        checked = 0
        for inst, pts in self._instances(m):
            got = evaluate_residuals(inst, pts[0])
            want = _field_residuals(inst, _dense_geometry(inst, pts[0]))
            for name, rv in want.items():
                assert got[name].values == rv.values, name
                assert got[name].exact_zero == rv.exact_zero, name
                assert repr(got[name].norm) == repr(rv.norm), name
                assert repr(got[name].scale) == repr(rv.scale), name
            checked += 1
        assert checked == 9 * 2 * 3

    @pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8])
    def test_exact_zero_read_on_integer_numerators(self, m):
        # exact_zero is read first, from the integer sums alone, and must be
        # the zero test of the rationals formed afterwards
        zeros = 0
        for inst, pts in self._instances(m):
            got = evaluate_residuals(inst, pts[0])
            for name in ("CL", "SDL", "ND", "ND2"):
                zero = got[name].exact_zero
                assert zero == all(v == 0 for v in got[name].values), name
                zeros += zero
        assert zeros > 0

    @pytest.mark.parametrize("m,c1,c2,eps", [(5, 1, -1, 2), (6, -1, 1, 0), (7, 1, 0, 2), (8, -1, -1, 2)])
    def test_float_within_relative_tolerance(self, m, c1, c2, eps):
        inst, pts = make_instance(f"assembly-oracle-float:{m}:{c1}:{c2}:{eps}", m, c1, c2, eps, style=2)
        pt = floats(pts[0])
        got = evaluate_residuals(inst, pt)
        want = _field_residuals(inst, _dense_geometry(inst, pt))
        for name, rv in want.items():
            assert rv.scale > 0
            bound = 1e-12 * rv.scale
            assert max(abs(a - b) for a, b in zip(got[name].values, rv.values)) <= bound, name
            assert abs(got[name].norm - rv.norm) <= bound, name
            assert abs(got[name].scale - rv.scale) <= bound, name
            assert got[name].exact_zero == rv.exact_zero, name


class TestFloatZeroRule:
    """One zero rule: exact values are all 0, float norms are at most
    tol * scale.  Float mode must then flag what exact mode flags."""

    def test_float_flags_match_exact_on_odd_denominators(self):
        # 18 families at m 3..8, ten points each with denominators 3..13; two
        # of these points, both at m = 3 on a hyperbolic target, have a nonzero
        # SDL below an absolute noise floor sized by the Taylor coefficients
        rng = rng_for("float-flags:0")
        checked = 0
        for m in range(3, 9):
            for c1, c2 in CURVATURE_PAIRS:
                for eps in (0, 2):
                    mmap = random_mobius(rng, m, SpaceFormModel(m, c2), eps, style=rng.randrange(3))
                    inst = ConformalInstance(SpaceFormModel(m, c1), SpaceFormModel(m, c2), mmap)
                    for _ in range(10):
                        q = rng.choice((3, 5, 7, 9, 11, 13))
                        x = tuple(rational(rng.randint(-q // 2, q // 2), q) for _ in range(m))
                        try:
                            exact = evaluate_residuals(inst, x)
                        except PolyharmError:
                            continue
                        flt = evaluate_residuals(inst, floats(x))
                        for name in ("CL", "SDL", "ND", "ND2"):
                            assert flt[name].exact_zero == exact[name].exact_zero, (name, m, c1, c2, eps, x)
                        assert _verdict([flt])[0] == _verdict([exact])[0], (m, c1, c2, eps, x)
                        checked += 1
        assert checked > 900

    @pytest.mark.parametrize("c", [1, -1])
    def test_curved_isometry_is_harmonic_in_float(self, c):
        # a rotation of a curved space form has lam = 1: CL's c1 lam and
        # c2 lam^3 terms cancel and its other terms are rounding noise, so the
        # scale counts those two apart
        rng = rng_for(f"float-isometry:{c}")
        checked = 0
        for m in (3, 5, 8):
            zero = _zeros(m)
            A = fraction_matrix(*_random_orthogonal(rng, m, 2))
            mmap = MobiusMap.build(a=zero, b=zero, k=1, A=A, epsilon=0)
            inst = ConformalInstance(SpaceFormModel(m, c), SpaceFormModel(m, c), mmap)
            for _ in range(8):
                q = rng.choice((3, 5, 7, 9, 11, 13))
                x = tuple(rational(rng.randint(-q // 3, q // 3), q) for _ in range(m))
                exact, flt = evaluate_residuals(inst, x), evaluate_residuals(inst, floats(x))
                assert exact["CL"].exact_zero and flt["CL"].exact_zero, x
                assert _verdict([flt])[0] == _verdict([exact])[0] == "harmonic", x
                checked += 1
        assert checked == 24

    def test_hyperbolic_isometry_is_harmonic_in_float(self):
        # an isometry of the hyperbolic ball off the origin: lam is constant,
        # so g = P1 - 2 W G cancels to rounding noise in float mode, and the
        # flag must judge it against the size of its two terms
        m = 3
        centre = (rational(5, 4), rational(0), rational(0))
        mmap = MobiusMap.build(a=centre, b=centre, k=rational(9, 16), epsilon=2)
        inst = ConformalInstance(SpaceFormModel.hyperbolic(m), SpaceFormModel.hyperbolic(m), mmap)
        for x in ((rational(1, 3), rational(-1, 5), rational(1, 7)), (rational(-2, 9), rational(1, 11), rational(1, 13))):
            exact, flt = evaluate_residuals(inst, x), evaluate_residuals(inst, floats(x))
            assert exact["harmonic"] and flt["harmonic"], x
            assert _verdict([flt])[0] == _verdict([exact])[0] == "harmonic", x

    def test_degenerate_nd2_is_decided_by_the_relative_test(self):
        # flat -> sphere at m = 4: ND2's (m-4) term is 0, and 4 lapbar lam and
        # the curvature part, which cancel, are two terms, so the scale is
        # their size and not the rounding noise of their sum
        configured, plan = load_config(Path(__file__).parent / "golden" / "curved_check.json")
        inst = configured[0].instance
        assert (inst.dim, inst.domain.curvature, inst.target.curvature) == (4, 0, 1)
        drawn = sample_points(plan, inst)
        explicit = [
            tuple(rational(v) for v in p)
            for p in (("1/3", "1/5", "-1/7", "2/9"), ("-2/11", "1/13", "1/3", "-1/5"), ("3/7", "-1/9", "1/11", "1/13"))
        ]
        for x in drawn + explicit:
            rv = evaluate_residuals(inst, floats(x))["ND2"]
            assert rv.exact_zero and rv.scale > 1e-3 and rv.norm <= 1e-9 * rv.scale, (x, rv.norm, rv.scale)


class TestScalarType:
    """The point's scalar type is the mode: the evaluators take no other, and
    Delta^k phi has the exact one alone."""

    def test_evaluators_follow_the_point(self):
        inst, pts = make_instance("scalar-type", 5, 1, -1, 2, style=1)
        exact, flt = evaluate_residuals(inst, pts[0]), evaluate_residuals(inst, floats(pts[0]))
        for name in ("CL", "SDL", "ND", "ND2"):
            assert all(type(v) is Fraction for v in exact[name].values), name
            assert all(type(v) is float for v in flt[name].values), name
        mmap = random_mobius(rng_for("scalar-type-ph"), 5, SpaceFormModel.flat(5), 2, style=2)
        pt = tuple(ai + rational(1, 2) for ai in mmap.a)
        for k, value in polyharmonic_orders(mmap, (0, 1, 2), pt).items():
            assert all(type(v) is Fraction for v in value.values), k
        with pytest.raises(TypeError):
            polyharmonic_orders(mmap, (0, 1, 2), floats(pt))

    def test_vanishes_is_exact_unless_a_value_is_a_float(self):
        # an exact value is zero only when it is 0, however small against
        # its terms; the same sizes as floats pass the relative test
        assert not residuals.vanishes([(1,), (-1,), (Fraction(1, 10**40),)], 1e-9)
        assert residuals.vanishes([(1.0,), (-1.0,), (1e-40,)], 1e-9)


class TestVanishesBoundary:
    """The float rule at its boundary, where the norm of the sum is exactly
    tol times the summed norms of the terms: every term's norm counts, and
    the boundary itself is zero."""

    @pytest.mark.parametrize(
        "terms, norm_sq",
        [
            # sum 2, term norms 5 + 2 + 1 = 8
            (((5.0,), (-2.0,), (-1.0,)), None),
            # sum (0, 4), term norms 5 + 3 = 8, on an orthonormal pair basis
            (((3.0, 4.0), (-3.0, 0.0)), lambda c: c[0] * c[0] + c[1] * c[1]),
        ],
        ids=["standard", "pairs"],
    )
    def test_boundary_is_zero_and_every_term_counts(self, terms, norm_sq):
        assert residuals.vanishes(terms, 0.25 if norm_sq is None else 0.5, norm_sq)
        assert not residuals.vanishes(terms, 0.2 if norm_sq is None else 0.45, norm_sq)

    def test_coefficients_are_scaled_before_squaring(self):
        # squared as they are, 1e-300 underflows to a zero norm on a zero
        # scale, 1e200 overflows, and on a pair basis reads inf <= tol * inf;
        # a subnormal largest coefficient is scaled as far as a double goes
        assert not residuals.vanishes([(0.0, 0.0), (0.0, 1e-300)], 1e-9)
        assert not residuals.vanishes([(1e200,), (0.0,)], 1e-9)
        assert not residuals.vanishes([(1e200, 0.0)], 1e-9, lambda c: c[0] * c[0] + c[1] * c[1])
        assert not residuals.vanishes([(5e-324,), (0.0,)], 1e-9)
        assert residuals.vanishes([(1e200, 1e-300), (-1e200, -1e-300)], 1e-9)

    def test_only_a_zero_sum_is_zero_without_cancellation(self):
        # terms that are 0.0 are a zero sum on a zero scale; a sum that is
        # its one nonzero term is never within tol < 1 of it
        assert residuals.vanishes([(0.0, 0.0), (0.0, 0.0)], 1e-9)
        assert not residuals.vanishes([(0.0, 0.0), (0.0, 1e-100)], 1e-9)


class TestEvaluatedPointLifetime:
    """A residual keeps its geometry's fields, not the geometry, which keeps
    the residual: an evaluated point is no reference cycle, and reference
    counting frees it with the cyclic collector off."""

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_freed_by_reference_counting(self, mode):
        inst, pts = make_instance("point-lifetime", 5, 1, -1, 2, style=1)
        e = evaluate_residuals(inst, floats(pts[0]) if mode == FLOAT else pts[0])
        gc.disable()
        try:
            e["harmonic"]
            for name in ("CL", "SDL", "ND", "ND2"):
                rv = e[name]
                rv.values, rv.norm, rv.scale, rv.exact_zero
            point = weakref.ref(e)
            del e, rv
            assert point() is None
        finally:
            gc.enable()


class TestIntegerPoints:
    """The evaluators read a sampled point as its integers; as a tuple of
    rationals, or of their floats, the same point gives the same bits."""

    @staticmethod
    def _same(a, b):
        for name in ("CL", "SDL", "ND", "ND2"):
            ra, rb = a[name], b[name]
            assert ra.values == rb.values and ra.exact_zero == rb.exact_zero, name
            assert ra.norm.hex() == rb.norm.hex() and ra.scale.hex() == rb.scale.hex(), name
        assert a["harmonic"] == b["harmonic"]

    @pytest.mark.parametrize("m", [3, 5, 8])
    def test_residuals_equal_at_the_rational_point(self, m):
        seen = 0
        for c1, c2 in CURVATURE_PAIRS:
            for eps in (0, 2):
                tag = f"polyharm-tests:integer-points:{m}:{c1}:{c2}:{eps}"
                inst, pts = _sweep_instance(tag, m, c1, c2, eps, m, 2)
                for x in pts:
                    assert type(x) is IntegerPoint and x.den > 0
                    rat = x.fractions()
                    assert all(a.hex() == float(b).hex() for a, b in zip(x.floats(), rat))
                    self._same(evaluate_residuals(inst, x), evaluate_residuals(inst, rat))
                    self._same(evaluate_residuals(inst, x.floats()), evaluate_residuals(inst, floats(rat)))
                    seen += 1
        assert seen == 36

    @pytest.mark.parametrize("m", [3, 4, 7, 10])
    def test_polyharmonic_equal_at_the_rational_point(self, m):
        rng = rng_for(f"integer-points-ph:{m}")
        for style in range(3):
            mmap = random_mobius(rng, m, SpaceFormModel.flat(m), 2, style=style)
            x = _flat_sample_point(rng, mmap)
            rat = x.fractions()
            got, want = polyharmonic_orders(mmap, (0, 1, 2, 3), x), polyharmonic_orders(mmap, (0, 1, 2, 3), rat)
            for k in got:
                assert got[k].values == want[k].values, k
            assert polyharmonic_closed_form(mmap, 3, x).values == polyharmonic_closed_form(mmap, 3, rat).values


class TestHarmonicity:
    def test_affine_flat_map_harmonic_everywhere(self):
        mmap = MobiusMap.build(a=_zeros(4), b=_zeros(4), k=3, epsilon=0)
        inst = ConformalInstance(*_flat_pair(4), map=mmap)
        rng = rng_for("harm-affine")
        for _ in range(5):
            assert evaluate_residuals(inst, rand_point(rng, 4))["harmonic"]

    def test_inversion_not_harmonic_generically(self, flat_inversion_m4):
        assert not evaluate_residuals(flat_inversion_m4, (1, 0, 0, 0))["harmonic"]

    def test_proper_third_order_at_m6(self):
        # inversion in dimension 6: third iterate vanishes, second does not
        mmap = MobiusMap.inversion(6)
        x = (1, rational(1, 2), 0, 0, 0, 0)
        vals = polyharmonic_orders(mmap, (2, 3), x)
        assert all(v == 0 for v in vals[3].values)
        assert any(v != 0 for v in vals[2].values)


class TestPolyharmonic:
    def test_inversion_vanishes_at_critical_dimension(self):
        for order in (2, 3):
            m = 2 * order
            mmap = MobiusMap.inversion(m)
            pt = tuple([1] + [rational(1, 3)] * (m - 1))
            assert all(v == 0 for v in polyharmonic_orders(mmap, (order,), pt)[order].values)

    def test_m6_order2_value_at_unit_point(self):
        mmap = MobiusMap.inversion(6)
        pt = (1, 0, 0, 0, 0, 0)
        assert polyharmonic_orders(mmap, (2,), pt)[2].values == (64, 0, 0, 0, 0, 0)

    def test_affine_maps_flat_harmonic_all_orders(self):
        rng = rng_for("ph-affine")
        mmap = MobiusMap.build(
            a=rand_point(rng, 5), b=rand_point(rng, 5), k=rational(2, 3), epsilon=0
        )
        pt = rand_point(rng, 5)
        for order in (1, 2, 3):
            assert all(v == 0 for v in polyharmonic_orders(mmap, (order,), pt)[order].values)

    @pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
    def test_closed_form_matches_jets(self, m):
        rng = rng_for(f"ph-closed-{m}")
        from polyharm.verifier import random_mobius

        mmap = random_mobius(rng, m, SpaceFormModel.flat(m), 2, style=m)
        pt = tuple(ai + rand_rat(rng, 2, 2, nonzero=True) for ai in mmap.a)
        for order in (1, 2, 3):
            got = polyharmonic_orders(mmap, (order,), pt)[order].values
            assert tuple(got) == tuple(polyharmonic_closed_form(mmap, order, pt).values)


    @pytest.mark.parametrize("m", [3, 6, 9])
    def test_closed_form_shares_the_denominator(self, m):
        # the sweep joins the two routes' terms without a rational: integers,
        # num 1, over the one denominator, whose int/int doubles are the
        # floats of the closed form's rationals
        rng = rng_for(f"ph-shared-den-{m}")
        mmap = random_mobius(rng, m, SpaceFormModel.flat(m), 2, style=m % 3)
        x = _flat_sample_point(rng, mmap)
        for order in (1, 2, 4):
            value, closed = polyharmonic_orders(mmap, (order,), x)[order], polyharmonic_closed_form(mmap, order, x)
            assert value.num == closed.num == 1 and value.den == closed.den > 0
            assert len(value.terms) == len(closed.terms) == 1
            assert all(type(v) is int for v in value.terms[0] + closed.terms[0])
            assert [v / closed.den for v in closed.terms[0]] == [float(q) for q in closed.values]


def _jet_route(mmap, orders, x):
    """Delta^k phi(x) the generic way: dense jets of degree 2K, 1/|u|^2 by jet
    division, and the iterated Laplacian of each component times it."""
    xs = seed(x, 2 * max(orders))
    u = [xi - ai for xi, ai in zip(xs, mmap.a)]
    recip = 1 / jets.norm_sq(u) if mmap.epsilon == 2 else xs[0].constant_like(1)
    comps = []
    for row in fraction_matrix(*mmap.A_integers):
        c = xs[0].zero_like()
        for aij, uj in zip(row, u):
            c = c + uj * (mmap.k * aij)
        comps.append(c)
    prods = [c * recip for c in comps]
    out = {}
    for k in orders:
        vals = [jets.iterated_laplacian(p, k) for p in prods]
        if k == 0:
            vals = [v + bi for v, bi in zip(vals, mmap.b)]
        out[k] = tuple(vals)
    return out


class TestPolyharmonicJetOracle:
    """The jet-free kernel against the dense jet route it replaced."""

    @pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
    @pytest.mark.parametrize("style", [0, 1, 2])
    @pytest.mark.parametrize("eps", [0, 2])
    def test_exact_equal(self, m, style, eps):
        rng = rng_for(f"ph-oracle-{m}-{style}-{eps}")
        mmap = random_mobius(rng, m, SpaceFormModel.flat(m), eps, style=style)
        pt = tuple(ai + rand_rat(rng, 2, 3, nonzero=True) for ai in mmap.a)
        orders = (0, 1, 2, 3)
        got = polyharmonic_orders(mmap, orders, pt)
        assert {k: value.values for k, value in got.items()} == _jet_route(mmap, orders, pt)


def _reciprocal_numerators(G, F, S, entries, pw) -> dict:
    """Numerators N_beta of the Taylor coefficients of 1/f over an index set.

    For f(x0 + t) = (F + 2 G.t + S |t|^2) / E the coefficients in t are
    E N_beta / F^(|beta|+1), where N_0 = 1 and

        N_beta = -2 sum_i G_i N_(beta - e_i) - S F sum_i N_(beta - 2 e_i),

    integers when G, F and S are (a float run over doubles is the same
    recurrence).  ``entries`` is an index set closed under beta - e_i and
    beta - 2 e_i, as :func:`_index_set` lists it, with
    keys sum_i beta_i pw_i; N is returned keyed the same way.
    """
    SF = S * F
    N = {0: 1}
    for key, ones, twos in entries[1:]:
        acc = 0
        for i in ones:
            acc += G[i] * N[key - pw[i]]
        acc2 = 0
        for i in twos:
            acc2 += N[key - 2 * pw[i]]
        N[key] = -2 * acc - SF * acc2
    return N


def _index_set(m: int, top: int, max_degree: int) -> tuple:
    """(key, {i : beta_i >= 1}, {i : beta_i >= 2}) in key order over
    {beta : sum_i ceil(beta_i/2) <= top, |beta| <= max_degree}.

    Keys use the place values (2 top + 1)^i.  Both bounds are kept by
    beta - e_i and beta - 2 e_i, so the set is closed under the shifts of
    :func:`_reciprocal_numerators`.
    """
    entries = [(0, top, max_degree, (), ())]
    for i in range(m):
        p = (2 * top + 1) ** i
        grown = []
        for b in range(2 * top + 1):
            cost = (b + 1) // 2
            one = (i,) if b >= 1 else ()
            two = (i,) if b >= 2 else ()
            for key, left, deg, ones, twos in entries:
                if left >= cost and deg >= b:
                    grown.append((key + b * p, left - cost, deg - b, ones + one, twos + two))
        entries = grown
    return tuple((key, ones, twos) for key, _, _, ones, twos in entries)


def _needed_set(m, top):
    """N_top = {beta : sum_i ceil(beta_i/2) <= top}: the Taylor coefficients
    of 1/|u|^2 in the m coordinates of h that Delta^top reads."""
    return _index_set(m, top, 2 * top)


def _iterlap_weights(m, k):
    """(gamma, k!/gamma! * (2 gamma)!) over |gamma| = k, as in jets.iterlap_targets."""
    out = []
    for combo in itertools.combinations_with_replacement(range(m), k):
        gamma = tuple(combo.count(i) for i in range(m))
        w = math.factorial(k)
        for g in gamma:
            w //= math.factorial(g)
        for g in gamma:
            w *= math.factorial(2 * g)
        out.append((gamma, w))
    return out


def _taylor_route(mmap, orders, x):
    """Delta^k phi(x) at an exact point through the m-variable Taylor set N_K.

    With q_beta the Taylor coefficients of 1/|u|^2 at x0 (1 on the affine
    branch), Delta^k phi(x0) = k A v with
    v_j = sum_{|gamma| = k} w_gamma (u0_j q_{2 gamma} + q_{2 gamma - e_j}), and
    over U = D u0 and F = |U|^2, q_beta = D^(|beta|+2) N_beta / F^(|beta|+1).
    N_K holds 85,305 coefficients at (k, m) = (5, 12), against the 36 pairs
    (a, b) the (s, q) recurrence reads.
    """
    m = mmap.dim
    U, D = integer_vector([rational(xi) - ai for xi, ai in zip(x, mmap.a)])
    A = fraction_matrix(*mmap.A_integers)
    num_A, den_A = integer_matrix([[mmap.k * v for v in row] for row in A])
    s = mmap.epsilon // 2
    F = s * sum(v * v for v in U) + (1 - s) * D * D
    top = max(orders)
    pw = [(2 * top + 1) ** i for i in range(m)]
    Q = _reciprocal_numerators([s * v for v in U], F, s, _needed_set(m, top), pw)
    out = {}
    for k in orders:
        N = [0] * m
        for gamma, w in _iterlap_weights(m, k):
            key = sum(2 * g * p for g, p in zip(gamma, pw))
            for j in range(m):
                N[j] += w * (U[j] * Q[key] + (F * Q[key - pw[j]] if gamma[j] else 0))
        c, den = D ** (2 * k + 1), F ** (2 * k + 1)
        vals = tuple(rational(c * sum(a * n for a, n in zip(row, N)), den_A * den) for row in num_A)
        if k == 0:
            vals = tuple(v + bi for v, bi in zip(vals, mmap.b))
        out[k] = vals
    return out


class TestPolyharmonicTaylorOracle:
    """The (s, q) recurrence against the m-variable Taylor kernel it replaced."""

    @pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
    @pytest.mark.parametrize("eps", [0, 2])
    def test_exact_equal(self, m, eps):
        rng = rng_for(f"ph-taylor-{m}-{eps}")
        mmap = random_mobius(rng, m, SpaceFormModel.flat(m), eps, style=m)
        pt = tuple(ai + rand_rat(rng, 2, 3, nonzero=True) for ai in mmap.a)
        orders = (0, 1, 2, 3)
        got = polyharmonic_orders(mmap, orders, pt)
        assert {k: value.values for k, value in got.items()} == _taylor_route(mmap, orders, pt)

    def test_numerators_are_the_closed_form(self):
        # Delta^k (u/|u|^2)(x0) = N_k u0 / R^(k+1) with N_k of (m, k) alone,
        # whatever top the recurrence runs to
        for m in range(3, 41):
            N = residuals._inversion_numerators.__wrapped__(m, 12)
            assert N[0] == 1
            for k in range(1, 13):
                assert N[k] == closed_form_coefficient(m, k), (m, k)
                assert residuals._inversion_numerators.__wrapped__(m, k) == N[: k + 1], (m, k)

    def test_numerators_on_a_symbolic_m(self):
        # the recurrence runs on any ring: on a sympy m it expands to the
        # closed form (-1)^k prod 2j (m - 2j), written out here because
        # closed_form_coefficient compares m with 3
        import sympy as sp

        m = sp.Symbol("m")
        N = residuals._inversion_numerators.__wrapped__(m, 8)
        assert N[0] == 1
        for k in range(1, 9):
            closed = sp.Integer(-1) ** k * sp.prod([2 * j * (m - 2 * j) for j in range(1, k + 1)])
            assert sp.expand(N[k] - closed) == 0, k


def _read_set_route(instance, x) -> dict:
    """g, Lb, grad_Lb, Gamma and |g|^2 the way the kernel formed them before
    its closed forms: L_beta by the recurrence over every beta of degree <= 2
    and every 2 e_i + e_j (_index_set(m, 2, 3), keys in base 5), then the
    m x m Hessian and third-order tables, contracted; at an exact point."""
    fq, m, c1 = instance.factor, instance.dim, instance.domain.curvature
    point = [rational(v) for v in x]
    D = math.lcm(fq.a_den, *(v.denominator for v in point))
    X = [v.numerator * (D // v.denominator) for v in point]
    U = [xi - D // fq.a_den * ai for xi, ai in zip(X, fq.a_num)]
    q0, qg, qs = fq.value, fq.linear, fq.square
    D2 = D * D
    W = (2 - c1 * c1) * D2 + c1 * sum(v * v for v in X)
    F = q0 * D2 + 2 * D * sum(a * u for a, u in zip(qg, U)) + qs * sum(u * u for u in U)
    entries = _index_set(m, 2, 3)
    pw = [5**i for i in range(m)]
    G = [D * (D * a + qs * u) for a, u in zip(qg, U)]
    N = _reciprocal_numerators(G, F, qs * D2, entries, pw)
    P1 = [2 * c1 * D * F * v for v in X]
    P2 = c1 * D2 * F * F
    L = {}
    for key, ones, twos in entries:
        acc = W * N[key]
        for i in ones:
            acc += P1[i] * N[key - pw[i]]
        for i in twos:
            acc += P2 * N[key - 2 * pw[i]]
        L[key] = acc
    g = [L[p] for p in pw]
    H = [[L[p + q] * (2 if p == q else 1) for q in pw] for p in pw]
    lap = sum(H[i][i] for i in range(m))
    cube = [[L[2 * p + q] for q in pw] for p in pw]
    t = [2 * sum(row[j] for row in cube) + 4 * cube[j][j] for j in range(m)]
    xH = [sum(X[i] * H[i][j] for i in range(m)) for j in range(m)]
    gH = [sum(g[i] * H[i][j] for i in range(m)) for j in range(m)]
    gg = sum(v * v for v in g)
    xg = sum(a * b for a, b in zip(X, g))
    F2, r = F * F, (m - 2) * c1
    return {
        "g": g,
        "gg": gg,
        "Lb": W * (W * lap - 2 * r * D * F * xg),
        "grad_Lb": [
            4 * c1 * D * F * W * X[j] * lap
            + W * W * t[j]
            - r * (4 * c1 * D2 * F2 * X[j] * xg + 2 * D2 * F2 * W * g[j] + 2 * D * F * W * xH[j])
            for j in range(m)
        ],
        "Gamma": [2 * c1 * D * F * X[j] * gg + W * gH[j] for j in range(m)],
    }


class TestGeometryClosedForms:
    """The closed forms of ConformalGeometry on span(X, G) against the
    recurrence over the multi-index read set they replaced, at dimensions
    beyond those of the dense jet oracle."""

    FIELDS = ("g", "gg", "Lb", "grad_Lb", "Gamma")

    @pytest.mark.parametrize("m", [12, 16])
    def test_exact_equal(self, m):
        checked = 0
        for c1, c2 in CURVATURE_PAIRS:
            for eps in (0, 2):
                inst, pts = make_instance(f"closed-forms:{m}:{c1}:{c2}:{eps}", m, c1, c2, eps, style=2)
                geo = ConformalGeometry(inst, pts[0])
                want = _read_set_route(inst, pts[0])
                assert _geometry_vectors(geo) == {f: want[f] for f in self.FIELDS}
                checked += 1
        assert checked == 9 * 2


def _geometry_vectors(geo) -> dict:
    """g, |g|^2, Lb, grad_Lb and Gamma of the kernel, the pairs on (X, G)
    formed as m-vectors by its ``vector``."""
    return {
        "g": geo.vector(geo.g),
        "gg": geo.gg,
        "Lb": geo.Lb,
        "grad_Lb": geo.vector(geo.grad_Lb),
        "Gamma": geo.vector(geo.Gamma),
    }


def _vector_kernel(instance, x) -> dict:
    """The biharmonic kernel on m-vectors, as it ran before the Gram basis:
    g, t, H X, H g, grad_Lb and Gamma formed component by component.  At an
    exact point, the fields of ``_geometry_vectors`` and the four residuals'
    integer column sums by their term formulas."""
    point = exact_point(x)
    fq, m = instance.factor, instance.dim
    c1, c2 = instance.domain.curvature, instance.target.curvature
    D = math.lcm(fq.a_den, point.den)
    X = [v * (D // point.den) for v in point.N]
    U = [xi - D // fq.a_den * ai for xi, ai in zip(X, fq.a_num)]
    q0, qg, qs = fq.value, fq.linear, fq.square
    Kn, Kd = fq.den * fq.kappa.numerator, 2 * fq.kappa.denominator
    h = math.gcd(Kn, Kd)
    Kn, Kd = Kn // h, Kd // h
    D2 = D * D
    W = (2 - c1 * c1) * D2 + c1 * sum(v * v for v in X)
    F = q0 * D2 + 2 * D * sum(g * u for g, u in zip(qg, U)) + qs * sum(u * u for u in U)
    G = [D * (D * v + qs * u) for v, u in zip(qg, U)]
    SF = qs * D2 * F
    P1 = [2 * c1 * D * F * v for v in X]
    P2 = c1 * D2 * F * F
    c0 = 2 * P2 - 2 * W * SF
    gamma = sum(v * v for v in G)
    pi = sum(p * v for p, v in zip(P1, G))
    g = [p - 2 * W * v for p, v in zip(P1, G)]
    lap = 8 * W * gamma - 4 * pi + m * c0
    tG = W * ((8 * m + 16) * SF - 48 * gamma) + 16 * pi - (4 * m + 8) * P2
    tP = 8 * gamma - (2 * m + 4) * SF
    t = [tG * v + tP * p for v, p in zip(G, P1)]

    def apply_H(v):
        Gv = sum(a * b for a, b in zip(G, v))
        Pv = sum(a * b for a, b in zip(P1, v))
        return [(8 * W * Gv - 2 * Pv) * a - 2 * Gv * p + c0 * b for a, p, b in zip(G, P1, v)]

    xH, gH = apply_H(X), apply_H(g)
    gg = sum(v * v for v in g)
    xg = sum(a * b for a, b in zip(X, g))
    F2, D4 = F * F, D2 * D2
    r = (m - 2) * c1
    Lb = W * (W * lap - 2 * r * D * F * xg)
    grad_Lb = [
        4 * c1 * D * F * W * X[j] * lap
        + W * W * t[j]
        - r * (4 * c1 * D2 * F2 * X[j] * xg + 2 * D2 * F2 * W * g[j] + 2 * D * F * W * xH[j])
        for j in range(m)
    ]
    Gamma = [2 * c1 * D * F * X[j] * gg + W * gH[j] for j in range(m)]
    Kd2 = Kd * Kd
    terms = {
        "CL": [
            (2 * Kd2 * Lb,),
            (-4 * m * D4 * c1 * Kd2 * W * F2,),
            (4 * m * D4 * c2 * Kn * Kn * W**3,),
            ((m - 4) * Kd2 * W * gg,),
        ],
        "SDL": [
            [W * v for v in grad_Lb],
            [-3 * Lb * v for v in g],
            [-(m - 4) * W * v for v in Gamma],
            [8 * (m - 1) * c1 * D4 * F2 * W * v for v in g],
        ],
        "ND": [
            [2 * Kd2 * (Lb * gj + W * v) for gj, v in zip(g, grad_Lb)],
            [-4 * Kd2 * Lb * v for v in g],
            [4 * D4 * W * (2 * m * c2 * Kn * Kn * W * W + (m - 2) * c1 * Kd2 * F2) * v for v in g],
        ],
        "ND2": [
            [2 * (m - 4) * Kd2 * W * v for v in Gamma],
            [4 * Kd2 * Lb * v for v in g],
            [4 * D4 * W * ((2 - 3 * m) * c1 * Kd2 * F2 + 2 * m * c2 * Kn * Kn * W * W) * v for v in g],
        ],
    }
    fields = {"g": g, "gg": gg, "Lb": Lb, "grad_Lb": grad_Lb, "Gamma": Gamma}
    return fields, {name: [sum(col) for col in zip(*ts)] for name, ts in terms.items()}


def _residual_sums(instance, x) -> dict:
    e = evaluate_residuals(instance, x)
    return {name: e[name].sums for name in ("CL", "SDL", "ND", "ND2")}


class TestGramKernelOracle:
    """The kernel on the Gram basis (X, G) against the m-vector kernel it
    replaced: every vector formed from its pair, every scalar and every
    residual's integer sums equal."""

    @pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8, 12, 16])
    def test_exact_equal(self, m):
        checked = 0
        for c1, c2 in CURVATURE_PAIRS:
            for eps in (0, 2):
                for style in (0, 1, 2):
                    inst, pts = make_instance(f"gram-oracle:{m}:{c1}:{c2}:{eps}:{style}", m, c1, c2, eps, style)
                    for x in pts[:2]:
                        fields, sums = _vector_kernel(inst, x)
                        assert _geometry_vectors(ConformalGeometry(inst, x)) == fields
                        assert _residual_sums(inst, x) == sums
                    checked += 1
        assert checked == 9 * 2 * 3


def _degenerate_cases():
    """(kind, instance, point) where the basis degenerates: X = 0 at the
    origin, G = 0 on a flat target with eps = 0 (Q is constant), and X
    parallel to G when a = b = 0 (Q is a function of |x|^2 alone), the last
    with rotations and isometries of the curved charts among the maps."""
    rng = rng_for("gram-degenerate")
    for m in (3, 4, 5):
        zero = (0,) * m
        for c1, c2 in CURVATURE_PAIRS:
            domain, target = SpaceFormModel(m, c1), SpaceFormModel(m, c2)
            for eps, style in itertools.product((0, 2), (0, 1, 2)):
                A = fraction_matrix(*_random_orthogonal(rng, m, style))
                k = rational(1, 3) if c2 == -1 else rational(1)
                maps = {
                    "X=0": MobiusMap.build((rational(1, 2),) + zero[1:], zero, k, A, eps),
                    "X||G": MobiusMap.build(zero, zero, k, A, eps),
                }
                if c2 == 0 and eps == 0:
                    maps["G=0"] = MobiusMap.build(rand_point(rng, m, 2, 3), zero, k, A, eps)
                for kind, mmap in maps.items():
                    inst = ConformalInstance(domain, target, mmap)
                    if kind == "X=0":
                        points = [zero]
                    else:
                        points = [rand_point(rng, m, 1, 3) for _ in range(3)]
                    for x in points:
                        try:
                            ConformalGeometry(inst, x)
                        except PolyharmError:
                            continue
                        yield kind, inst, x


class TestGramDegenerateBases:
    """Where X = 0, G = 0 or X is parallel to G a pair (a, b) need not be 0
    for a X + b G to be: the zero tests read |a X + b G|^2 off the Gram
    scalars, and must agree with the formed vectors."""

    def test_pair_zero_test_agrees_with_components(self):
        seen = dict.fromkeys(("X=0", "G=0", "X||G"), 0)
        # a nonzero pair whose vector is 0, per kind: only X || G needs the
        # cross term 2 a b <X, G> of the zero test
        hidden = dict.fromkeys(seen, 0)
        for kind, inst, x in _degenerate_cases():
            geo = ConformalGeometry(inst, x)
            X, G = geo.basis[0]
            xx, xG, GG = (sum(a * b for a, b in zip(u, v)) for u, v in ((X, X), (X, G), (G, G)))
            assert {"X=0": xx == 0, "G=0": GG == 0, "X||G": xG * xG == xx * GG}[kind]
            e = evaluate_residuals(inst, x)
            grad = geo.vector(geo.g)
            assert e["harmonic"] == (not any(grad))
            hidden[kind] += any(geo.g) and not any(grad)
            for name in ("CL", "SDL", "ND", "ND2"):
                rv = e[name]
                assert rv.exact_zero == (not any(rv.sums)), (kind, name, x)
                coef = tuple(map(sum, zip(*rv.terms)))
                hidden[kind] += any(coef) and not any(rv.sums)
            fields, sums = _vector_kernel(inst, x)
            assert _geometry_vectors(geo) == fields
            assert _residual_sums(inst, x) == sums
            seen[kind] += 1
        assert all(seen.values()), seen
        assert all(hidden.values()), hidden

    def test_float_pairs_agree_with_formed_vectors(self):
        # the float norm, scale and flags read off X and G - mu X against
        # the float definition they replaced, which formed every vector, and
        # the flags against exact mode; at X || G the Gram form would cancel
        seen = dict.fromkeys(("X=0", "G=0", "X||G"), 0)
        hidden = dict.fromkeys(seen, 0)
        tol = residuals.DEFAULT_FLOAT_TOL
        for kind, inst, x in _degenerate_cases():
            exact, flt = evaluate_residuals(inst, x), evaluate_residuals(inst, floats(x))
            geo = ConformalGeometry(inst, floats(x))
            X, G = geo.basis[0]
            terms = ([geo.g[0] * v for v in X], [geo.g[1] * v for v in G])
            assert residuals.vanishes(terms, tol) == flt["harmonic"] == exact["harmonic"], (kind, x)
            hidden[kind] += exact["harmonic"] and any(geo.g)
            for name in ("CL", "SDL", "ND", "ND2"):
                rv, want = flt[name], _formed_float_residual(flt[name])
                assert rv.exact_zero == want.exact_zero, (kind, name, x)
                if want.scale and not exact[name].scale:
                    # every exact term is 0 (lambda is constant on a curved
                    # space form) and every float term rounding noise, the
                    # scale too, which no relative test decides: both
                    # definitions call SDL and ND nonzero at some such points
                    continue
                assert abs(rv.norm - want.norm) <= 1e-12 * want.scale, (kind, name, x)
                assert abs(rv.scale - want.scale) <= 1e-12 * want.scale, (kind, name, x)
                assert rv.exact_zero == exact[name].exact_zero, (kind, name, x)
                if name != "CL":
                    hidden[kind] += rv.exact_zero and any(map(sum, zip(*rv.terms)))
            seen[kind] += 1
        assert all(seen.values()), seen
        assert all(hidden.values()), hidden


def _formed_float_residual(rv) -> SimpleNamespace:
    """The float definition of norm, scale and zero flag that formed the
    m-vector of every term: the oracle of the pair-based ones."""
    terms = rv.terms if rv._vectors is None else [residuals._combine(t, rv._vectors) for t in rv.terms]
    values = [rv.num * sum(col) / rv.den for col in zip(*terms)]
    scale = sum(residuals._norm([rv.num * v / rv.den for v in t]) for t in terms)
    norm = residuals._norm(values)
    return SimpleNamespace(norm=norm, scale=scale, exact_zero=norm <= rv._tol * scale)


class _Judged(Exception):
    pass


class TestOneZeroRule:
    """Every zero flag is ``residuals.vanishes``: with it replaced by one
    that raises, each reader of a flag raises, in both modes."""

    @pytest.fixture
    def judged(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise _Judged

        return lambda: monkeypatch.setattr(residuals, "vanishes", refuse)

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_every_flag_calls_vanishes(self, judged, mode):
        inst, pts = _sweep_instance("one-zero-rule", 5, 1, -1, 2, 1, 1)
        x = floats(pts[0].fractions()) if mode == FLOAT else pts[0]
        geo, evals = ConformalGeometry(inst, x), evaluate_residuals(inst, x)
        rng = rng_for("one-zero-rule-ph")
        mmap = random_mobius(rng, 6, SpaceFormModel.flat(6), 2, style=1)
        y = _flat_sample_point(rng, mmap)
        judged()
        readers = {
            "harmonic": lambda: geo["harmonic"],
            **{name: lambda rv=evals[name]: rv.exact_zero for name in ("CL", "SDL", "ND", "ND2")},
            "polyharmonic": lambda: _polyharmonic_point(mmap, 2, y),
            "chain": lambda: _chain_identity_battery(mode, residuals.DEFAULT_FLOAT_TOL),
            "jets": lambda: _jet_oracle_battery(mode, residuals.DEFAULT_FLOAT_TOL),
        }
        for name, read in readers.items():
            with pytest.raises(_Judged):
                read()


class TestHarmonicFlagReadsGg:
    """The exact harmonic flag reads |g|^2 off the geometry's ``gg``, through
    ``vanishes``, and forms no squared norm again; a float flag reads its own
    orthogonalised norm, never a float ``sum_norm_sq``."""

    def test_exact_flag_forms_no_norm(self):
        def refuse(pair):
            raise AssertionError("the exact harmonic flag formed |g|^2 again")

        flags = []
        for c1, c2 in CURVATURE_PAIRS:
            for eps in (0, 2):
                inst, pts = _sweep_instance(f"flag-reads-gg:{c1}:{c2}:{eps}", 4, c1, c2, eps, 1, 2)
                for x in pts:
                    geo = ConformalGeometry(inst, x)
                    geo.basis = (geo.basis[0], refuse)
                    flags.append(geo["harmonic"])
                    assert flags[-1] == (not any(geo.vector(geo.g)))
        assert set(flags) == {True, False}

    def test_sum_norm_sq_read_in_exact_mode_only(self):
        assert residuals.vanishes([(1,), (0,)], 1e-9, None, 0)
        assert not residuals.vanishes([(0,), (0,)], 1e-9, None, 1)
        assert residuals.vanishes([(1.0,), (-1.0,)], 1e-9, None, 4.0)
        assert not residuals.vanishes([(1.0,), (0.0,)], 1e-9, None, 0.0)


class TestVerdictFormsNoVector:
    """A verdict, exact or float, reads CL, the harmonic flag and SDL off
    scalars and pairs: no vector beyond X, U and G is formed."""

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_verdict_forms_no_vector(self, monkeypatch, mode):
        def refuse(coef, vectors):
            raise AssertionError(f"an m-vector was formed on the {mode} verdict path")

        monkeypatch.setattr(residuals, "_combine", refuse)
        verdicts = set()
        for c1, c2 in CURVATURE_PAIRS:
            for eps in (0, 2):
                for m in (3, 4, 6):
                    inst, pts = _sweep_instance(f"no-vector:{m}:{c1}:{c2}:{eps}", m, c1, c2, eps, 2, 3)
                    if mode == FLOAT:
                        pts = [x.floats() for x in pts]
                    verdicts.add(_verdict([evaluate_residuals(inst, x) for x in pts])[0])
        assert verdicts == {"harmonic", "proper-biharmonic", "not-biharmonic"}


class TestGeometryAlgebraEveryM:
    """``_geometry_algebra`` on a symbolic m, its output fed to the unchanged
    residual builders: at sweep points of every curvature pair and branch
    the identity chain holds as polynomials in m, and SDL at m = 4 vanishes
    exactly where the domain is flat."""

    def test_identity_chain_for_every_m(self):
        import sympy as sp

        m = sp.Symbol("m")
        checked, nonharmonic, failed = 0, set(), []
        for c1, c2 in CURVATURE_PAIRS:
            for eps in (0, 2):
                inst, pts = _sweep_instance(f"every-m:{c1}:{c2}:{eps}", 5, c1, c2, eps, 2, 2)
                for x in pts:
                    geo = ConformalGeometry(inst, x)
                    (X, G), norm_sq = geo.basis
                    xx, xG, GG = (sum(a * b for a, b in zip(u, v)) for u, v in ((X, X), (X, G), (G, G)))
                    D = math.lcm(inst.factor.a_den, x.den)
                    fields = _geometry_algebra(m, c1, D, geo.W, geo.F, inst.factor.square, xx, xG, GG)
                    # at the point's own m the formulas are the geometry's
                    assert [sp.sympify(f).subs(m, 5) for f in fields] == [geo.g, geo.gg, geo.Lb, geo.grad_Lb, geo.Gamma]
                    sym = SimpleNamespace(**vars(geo))
                    sym.m = m
                    sym.g, sym.gg, sym.Lb, sym.grad_Lb, sym.Gamma = fields
                    sums = {
                        name: [sp.expand(sum(col)) for col in zip(*form(sym).terms)]
                        for name, form in (
                            ("CL", _cl_from_geometry),
                            ("SDL", _sdl_from_geometry),
                            ("ND", _nd_from_geometry),
                            ("ND2", _nd2_from_geometry),
                        )
                    }
                    Kd2 = geo.Kd**2
                    ok = sums["CL"] == [0]
                    ok &= all(sp.expand(n - Kd2 * s) == 0 for n, s in zip(sums["ND"], sums["SDL"]))
                    ok &= all(sp.expand(n + Kd2 * s) == 0 for n, s in zip(sums["ND2"], sums["SDL"]))
                    if geo.gg:
                        nonharmonic.add(c1)
                        ok &= (norm_sq([s.subs(m, 4) for s in sums["SDL"]]) == 0) == (c1 == 0)
                    if not ok:
                        failed.append((c1, c2, eps, x))
                    checked += 1
        assert checked == 9 * 2 * 2 and nonharmonic == {-1, 0, 1}
        assert not failed, f"{len(failed)} of {checked} points fail: {failed}"


class TestPolyharmonicExactOnly:
    """Delta^k phi is decided on integers alone: both evaluators refuse a
    float point, and the exact route decides the cells and points that the
    doubles could not hold."""

    @pytest.mark.parametrize(
        "x", [(0.5, 0.0, 0.0, 0.0, 0.0), (Fraction(1, 2), 0, 0, 0, 0.25)], ids=["floats", "one-float"]
    )
    @pytest.mark.parametrize("evaluator", ["orders", "closed-form"])
    def test_float_point_is_a_type_error(self, evaluator, x):
        mmap = MobiusMap.inversion(5)
        read = {
            "orders": lambda y: polyharmonic_orders(mmap, (0, 1), y)[1],
            "closed-form": lambda y: polyharmonic_closed_form(mmap, 1, y),
        }[evaluator]
        with pytest.raises(TypeError, match=r"^Delta\^k phi is evaluated at exact points alone"):
            read(x)
        assert read(tuple(map(rational, ("1/2", 0, 0, 0, "1/4")))).values[0] != 0

    @pytest.mark.parametrize("k, m, zero", [(4, 8, True), (8, 11, False)])
    def test_zero_and_deep_cells(self, k, m, zero):
        # a zero N_k makes every term 0; at (8, 11) the one term is nonzero
        # and equals the closed form
        rng = rng_for(f"ph-float-{k}-{m}")
        mmap = random_mobius(rng, m, SpaceFormModel.flat(m), 2, style=1)
        pt = tuple(ai + rand_rat(rng, 2, 3, nonzero=True) for ai in mmap.a)
        (vals,) = polyharmonic_orders(mmap, (k,), pt)[k].terms
        assert all(type(v) is int for v in vals) and (not any(vals)) == zero
        assert _polyharmonic_point(mmap, k, pt)[::2] == (zero, True)

    @pytest.mark.parametrize("distance, order", [(1e-60, 3), (1e-170, 1), (1e30, 5)])
    def test_points_past_the_doubles_are_decided(self, distance, order):
        # near the pole |x - a|^(2k+2) underflows a double and far out the
        # value overflows one; on integers Delta^k (x/|x|^2) at d e_1 is
        # N_k / d^(2k+1) e_1, nonzero, and equal to the closed form
        mmap = MobiusMap.inversion(5)
        d = Fraction(distance)
        x = (d, 0, 0, 0, 0)
        value = polyharmonic_orders(mmap, (order,), x)[order]
        (terms,) = value.terms
        want = closed_form_coefficient(5, order) / d ** (2 * order + 1)
        assert [Fraction(v, value.den) for v in terms] == [want, 0, 0, 0, 0]
        assert _polyharmonic_point(mmap, order, x) == (False, False, True)


class TestClosedFormCoefficient:
    def test_first_order_three_dims(self):
        assert closed_form_coefficient(3, 1) == -2

    def test_vanishes_at_critical_dimension(self):
        assert closed_form_coefficient(4, 2) == 0
        assert closed_form_coefficient(10, 5) == 0

    def test_second_order_six_dims(self):
        assert closed_form_coefficient(6, 2) == 64

    def test_recursion_in_order(self):
        # each extra iterate multiplies by -2(order)(m - 2*order)
        for m in (5, 8, 11):
            for order in (2, 3, 4):
                assert closed_form_coefficient(m, order) == closed_form_coefficient(
                    m, order - 1
                ) * (-2 * order) * (m - 2 * order)


class TestRadialCoefficients:
    @staticmethod
    def _ray(poly) -> list:
        """(s, poly(s)) at s = t^2 for the radial check's t = j/(j+1), j = 1..4."""
        return [(t * t, poly(t * t)) for t in (rational(j, j + 1) for j in range(1, 5))]

    def test_recovers_known_polynomial(self):
        samples = self._ray(lambda s: rational(3) - 2 * s + rational(5, 7) * s * s)
        assert _quadratic_through(samples) == [3, -2, rational(5, 7)]

    def test_degree_underestimate_detected(self):
        with pytest.raises(InterpolationError):
            _quadratic_through(self._ray(lambda s: s * s * s))

    def test_evaluation_error_propagates(self):
        # k = -1/2 makes the factor negative at every point of the ray: the
        # check raises the evaluator's error instead of skipping the sample
        with pytest.raises(NonpositiveFactorError):
            radial_classification_check("sphere-sphere", Fraction(-1, 2), 5)

    def test_sphere_sphere_classification_polynomial(self):
        out = radial_classification_check("sphere-sphere", Fraction(2, 3), 6)
        assert out["ok"]

    def test_sphere_hyperbolic_classification_polynomial(self):
        out = radial_classification_check("sphere-hyperbolic", Fraction(1, 3), 7)
        assert out["ok"]


class TestFloatSeparation:
    def test_zero_cases_tiny_nonzero_cases_large(self):
        zero_inst, zero_pts = make_instance("sep-zero", 4, 0, 1, 2)
        for pt in zero_pts:
            rv = evaluate_residuals(zero_inst, floats(pt))["SDL"]
            assert rv.norm <= 1e-9 * rv.scale
        nz_inst, nz_pts = make_instance("sep-nonzero", 6, 0, 1, 2)
        for pt in nz_pts:
            rv = evaluate_residuals(nz_inst, floats(pt))["SDL"]
            assert rv.norm >= 1e-3 * rv.scale
