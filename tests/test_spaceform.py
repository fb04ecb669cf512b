"""Chart models and curved operators, cross-checked against closed forms
and a finite-difference divergence-form oracle."""

import pytest

from polyharm import jets
from polyharm.errors import ChartDomainError, ShapeMismatchError
from polyharm.jets import seed
from polyharm.rationals import rational
from polyharm.spaceform import SpaceFormModel

from conftest import rand_point, rand_rat, rng_for
from jet_oracles import (
    grad_bar,
    grad_norm_sq_bar,
    in_domain,
    inv_sigma_jet,
    laplace_beltrami,
    ricci_scale,
    scal,
    sigma_jet,
)


class TestModel:
    def test_names(self):
        assert SpaceFormModel.flat(4).name == "flat"
        assert SpaceFormModel.sphere(4).name == "sphere"
        assert SpaceFormModel.hyperbolic(3).name == "hyperbolic"

    def test_named_roundtrip(self):
        for name in ("flat", "sphere", "hyperbolic"):
            assert SpaceFormModel.named(name, 5).name == name

    @pytest.mark.parametrize("dim, curvature", [(1, 0), (3, 2)], ids=["dim-1", "curvature-2"])
    def test_construction_validates(self, dim, curvature):
        with pytest.raises(ShapeMismatchError):
            SpaceFormModel(dim, curvature)

    def test_scalar_curvature(self):
        assert scal(SpaceFormModel.flat(4)) == 0
        assert scal(SpaceFormModel.sphere(4)) == 12
        assert scal(SpaceFormModel.hyperbolic(3)) == -6

    def test_ricci_scale(self):
        # Ric = (m-1) c g on a space form; the single scalar the residuals use
        assert ricci_scale(SpaceFormModel.sphere(5)) == 4
        assert ricci_scale(SpaceFormModel.hyperbolic(5)) == -4
        assert ricci_scale(SpaceFormModel.flat(9)) == 0


class TestDomain:
    def test_hyperbolic_interior(self):
        model = SpaceFormModel.hyperbolic(3)
        assert in_domain(model, (rational(1, 2), rational(0), rational(0)))

    def test_hyperbolic_boundary_excluded(self):
        model = SpaceFormModel.hyperbolic(3)
        assert not in_domain(model, (rational(1), rational(0), rational(0)))

    def test_sphere_chart_covers_everything_finite(self):
        model = SpaceFormModel.sphere(3)
        assert in_domain(model, (rational(100), rational(100), rational(100)))


class TestSigma:
    def test_flat_is_one(self):
        x = seed((rational(1, 3), rational(2)), 2)
        assert sigma_jet(SpaceFormModel.flat(2), x).constant_like(1) == sigma_jet(
            SpaceFormModel.flat(2), x
        )

    def test_sphere_at_origin(self):
        x = seed((0, 0, 0), 2)
        sig = sigma_jet(SpaceFormModel.sphere(3), x)
        assert sig.value() == 2
        assert sig.gradient() == (0, 0, 0)

    def test_hyperbolic_boundary_raises(self):
        x = seed((1, 0, 0), 2)
        with pytest.raises(ChartDomainError):
            sigma_jet(SpaceFormModel.hyperbolic(3), x)

    def test_sigma_times_inverse_is_one(self):
        rng = rng_for("sigma-inv")
        for model in (SpaceFormModel.sphere(3), SpaceFormModel.hyperbolic(3)):
            pt = tuple(rand_rat(rng, 1, 4) for _ in range(3))
            x = seed(pt, 3)
            assert sigma_jet(model, x) * inv_sigma_jet(model, x) == x[0].constant_like(1)


class TestLaplaceBeltrami:
    def test_flat_reduces_to_laplacian(self):
        rng = rng_for("lb-flat")
        model = SpaceFormModel.flat(3)
        for _ in range(5):
            x = seed(rand_point(rng, 3), 3)
            f = (1 + x[0] * x[1]) * (2 + x[2]) + jets.norm_sq(x)
            assert laplace_beltrami(f, model, x) == f.laplacian()

    def test_sphere_norm_squared_at_origin(self):
        # sigma(0) = 2 and grad sigma(0) = 0, so the value is 2m/4 = m/2
        for m in (3, 4, 6):
            x = seed((0,) * m, 2)
            got = laplace_beltrami(jets.norm_sq(x), SpaceFormModel.sphere(m), x)
            assert got.value() == rational(m, 2)

    @pytest.mark.parametrize("m", [3, 5, 6])
    def test_sphere_domain_factor_expansion(self, m):
        """Curved Laplacian of c(1+|x|^2)/(c^2+|x-d|^2) against its closed form:

        2c sig^-2 F^-3 {mF^2 - [(4+m)|x|^2 - 4<x,d> + m]F + 4(1+|x|^2)|x-d|^2}
        - 2c(m-2) sig^-1 F^-3 {|x|^2 F^2 - (1+|x|^2)(|x|^2 - <x,d>) F}.
        """
        rng = rng_for(f"lb-display-{m}")
        model = SpaceFormModel.sphere(m)
        for _ in range(4):
            c = rand_rat(rng, 3, 3, nonzero=True)
            d = rand_point(rng, m, max_num=2, max_den=3)
            pt = rand_point(rng, m, max_num=3, max_den=4)
            s = sum(v * v for v in pt)
            F = c * c + sum((xi - di) ** 2 for xi, di in zip(pt, d))
            if not F:
                continue
            x = seed(pt, 3)
            shifted = tuple(xi - di for xi, di in zip(x, d))
            lam = (1 + jets.norm_sq(x)).scale(c) / (jets.norm_sq(shifted) + c * c)
            got = laplace_beltrami(lam, model, x).value()
            xd = sum(xi * di for xi, di in zip(pt, d))
            dist = sum((xi - di) ** 2 for xi, di in zip(pt, d))
            sig_inv = (1 + s) / 2  # 1/sigma
            brace1 = m * F * F - ((4 + m) * s - 4 * xd + m) * F + 4 * (1 + s) * dist
            brace2 = s * F * F - (1 + s) * (s - xd) * F
            want = (
                2 * c * sig_inv**2 * brace1 - 2 * c * (m - 2) * sig_inv * brace2
            ) / F**3
            assert got == want

    def test_float_matches_divergence_form_finite_differences(self):
        """lapbar f == sigma^-m sum_i d_i(sigma^(m-2) d_i f) by nested central
        differences, within 1e-5 relative."""
        h = 1e-4
        m = 3

        def f(p):
            return (1.0 + p[0] * p[1]) / (2.0 + p[2] ** 2)

        for model, sig in (
            (SpaceFormModel.sphere(m), lambda p: 2.0 / (1.0 + sum(v * v for v in p))),
            (SpaceFormModel.hyperbolic(m), lambda p: 2.0 / (1.0 - sum(v * v for v in p))),
        ):
            x0 = (0.2, -0.1, 0.3)
            x = seed(x0, 2)
            jet = (1 + x[0] * x[1]) / (2 + x[2] * x[2])
            got = laplace_beltrami(jet, model, x).value()

            def flux(p, i):
                up = list(p)
                dn = list(p)
                up[i] += h
                dn[i] -= h
                df = (f(up) - f(dn)) / (2 * h)
                return sig(p) ** (m - 2) * df

            fd = 0.0
            for i in range(m):
                up = list(x0)
                dn = list(x0)
                up[i] += h
                dn[i] -= h
                fd += (flux(up, i) - flux(dn, i)) / (2 * h)
            fd /= sig(x0) ** m
            assert abs(got - fd) <= 1e-5 * max(1.0, abs(got), abs(fd))


class TestGradients:
    def test_flat_gradient_unchanged(self):
        rng = rng_for("grad-flat")
        model = SpaceFormModel.flat(3)
        x = seed(rand_point(rng, 3), 2)
        f = x[0] * x[1] + x[2]
        got = grad_bar(f, model, x)
        assert tuple(g.value() for g in got) == tuple(f.gradient())

    def test_sphere_coordinate_at_origin(self):
        x = seed((0, 0, 0), 2)
        got = grad_bar(x[0], SpaceFormModel.sphere(3), x)
        assert tuple(g.value() for g in got) == (rational(1, 4), 0, 0)

    @pytest.mark.parametrize("m", [3, 5])
    def test_hyperbolic_domain_energy_density_expansion(self, m):
        """|gradbar lam|^2 for lam = k(1-|x|^2)/(2|x-a|^2) against

        k^2 sig^-2 f^-4 {(1+f-|x|^2)^2 |x|^2 + (1-|x|^2)^2 |a|^2
                         - 2 <x,a> (1-|x|^2)(1+f-|x|^2)}.
        """
        rng = rng_for(f"gn-display-{m}")
        model = SpaceFormModel.hyperbolic(m)
        for _ in range(4):
            k = rand_rat(rng, 3, 3, nonzero=True)
            a = rand_point(rng, m, max_num=2, max_den=2)
            pt = tuple(rand_rat(rng, 2, 4) for _ in range(m))
            s = sum(v * v for v in pt)
            if s >= 1:
                continue
            f_val = sum((xi - ai) ** 2 for xi, ai in zip(pt, a))
            if not f_val:
                continue
            x = seed(pt, 3)
            shifted = tuple(xi - ai for xi, ai in zip(x, a))
            lam = (1 - jets.norm_sq(x)).scale(k) / jets.norm_sq(shifted).scale(2)
            got = grad_norm_sq_bar(lam, model, x).value()
            xa = sum(xi * ai for xi, ai in zip(pt, a))
            a_sq = sum(v * v for v in a)
            sig_inv_sq = ((1 - s) / 2) ** 2  # sigma^-2
            brace = (
                (1 + f_val - s) ** 2 * s
                + (1 - s) ** 2 * a_sq
                - 2 * xa * (1 - s) * (1 + f_val - s)
            )
            assert got == k * k * sig_inv_sq * brace / f_val**4

    def test_norm_is_curved_inner_product_of_curved_gradient(self):
        # |gradbar f|^2 = gbar(gradbar f, gradbar f) = sigma^2 sum (w^2 df)^2
        rng = rng_for("gn-consistency")
        for model in (SpaceFormModel.sphere(3), SpaceFormModel.hyperbolic(3)):
            pt = tuple(rand_rat(rng, 1, 3) for _ in range(3))
            x = seed(pt, 3)
            f = (1 + x[0] * x[1]) * (1 + x[2])
            gb = grad_bar(f, model, x)
            sig = sigma_jet(model, x)
            inner = sig * sig * jets.norm_sq(gb)
            assert grad_norm_sq_bar(f, model, x) == inner.truncate(
                grad_norm_sq_bar(f, model, x).degree
            )
