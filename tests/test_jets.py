"""Jet algebra: ring laws, division, differential operators, and oracles."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyharm import jets
from polyharm.errors import DegreeError, ShapeMismatchError, SingularDivisionError
from polyharm.jets import iterated_laplacian, multi_indices, seed
from polyharm.rationals import rational

from conftest import rand_point, rng_for, sympy_taylor_coefficients


def binomial(n, k):
    import math

    return math.comb(n, k)


class TestSeed:
    def test_coordinates_at_origin(self):
        x, y = seed((0, 0), 2)
        assert x.value() == 0 and y.value() == 0
        assert x.gradient() == (1, 0)
        assert y.gradient() == (0, 1)

    def test_one_dimensional(self):
        (j,) = seed((3,), 1)
        assert list(j.coeffs) == [3, 1]

    def test_table_size(self):
        js = seed((1, 2, 3), 4)
        assert len(js) == 3
        assert all(len(j.coeffs) == binomial(3 + 4, 4) == 35 for j in js)

    def test_rejects_negative_degree(self):
        with pytest.raises(DegreeError):
            seed((0,), -1)


class TestRingOps:
    def test_product_of_affine(self):
        x, y = seed((0, 0), 2)
        p = (1 + x) * (1 + y)
        assert p.value() == 1
        assert p.coefficient((1, 0)) == 1
        assert p.coefficient((0, 1)) == 1
        assert p.coefficient((1, 1)) == 1
        assert p.coefficient((2, 0)) == 0

    def test_truncation_drops_high_degree(self):
        (x,) = seed((0,), 1)
        assert (x * x).is_zero()

    def test_subtraction_cancels(self):
        (x,) = seed((0,), 3)
        assert ((2 + x) - (2 + x)).is_zero()

    def test_mismatched_base_points_rejected(self):
        (a,) = seed((0,), 2)
        (b,) = seed((1,), 2)
        with pytest.raises(ShapeMismatchError):
            a + b

    def test_mismatched_modes_rejected(self):
        # the base points are equal numbers; an exact and a float jet still
        # never mix
        (a,) = seed((0,), 2)
        (b,) = seed((0.0,), 2)
        with pytest.raises(ShapeMismatchError):
            a * b

    def test_degree_alignment_truncates(self):
        (x3,) = seed((2,), 3)
        (x1,) = seed((2,), 1)
        prod = x3 * x1
        assert prod.degree == 1
        assert prod.value() == 4


class TestDivision:
    def test_geometric_series(self):
        (x,) = seed((0,), 2)
        g = x.constant_like(1) / (1 - x)
        assert list(g.coeffs) == [1, 1, 1]

    def test_zero_constant_term_rejected(self):
        (x,) = seed((0,), 2)
        with pytest.raises(SingularDivisionError):
            x / x

    def test_inverse_square_distance(self):
        # hand-differentiated: f = |x|^-2 at (1,0,0,0) has value 1, d1 = -2
        x = seed((1, 0, 0, 0), 1)
        lam = x[0].constant_like(1) / jets.norm_sq(x)
        assert lam.value() == 1
        assert lam.gradient() == (-2, 0, 0, 0)

    def test_div_mul_roundtrip_exact(self):
        rng = rng_for("roundtrip")
        for _ in range(25):
            x, y = seed(rand_point(rng, 2), 3)
            a = 1 + x + x * y - y * y.scale(rational(2, 3))
            b = 2 + y + x * x
            assert (a * b) / b == a

    @settings(max_examples=60, deadline=None)
    @given(
        coeffs=st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=6),
            min_size=6,
            max_size=6,
        ),
        c0=st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=5),
    )
    def test_quotient_times_divisor_recovers_dividend(self, coeffs, c0):
        x, y = seed((0, 0), 2)
        space_idx = multi_indices(2, 2)
        a = jets.polynomial({b: c for b, c in zip(space_idx, coeffs)}, like=x)
        divisor_map = {b_: c for b_, c in zip(space_idx, coeffs[::-1])}
        divisor_map[(0, 0)] = c0  # unit constant term keeps the quotient defined
        b = jets.polynomial(divisor_map, like=x)
        q = a / b
        assert q * b == a


class TestPartial:
    def test_square(self):
        (x,) = seed((0,), 2)
        d = (x * x).partial(0)
        assert list(d.coeffs) == [0, 2]

    def test_constant(self):
        (x,) = seed((0,), 2)
        assert x.constant_like(7).partial(0).is_zero()

    def test_geometric_series_derivative(self):
        (x,) = seed((0,), 3)
        g = x.constant_like(1) / (1 - x)
        d = g.partial(0)
        assert d.degree == 2
        assert list(d.coeffs) == [1, 2, 3]

    def test_degree_zero_rejected(self):
        (x,) = seed((0,), 0)
        with pytest.raises(DegreeError):
            x.partial(0)


class TestLaplacian:
    def test_sum_of_squares(self):
        x, y = seed((0, 0), 2)
        lap = (x * x + y * y).laplacian()
        assert lap.value() == 4
        assert lap.is_zero() is False and all(c == 0 for c in lap.coeffs[1:])

    def test_inverse_square_harmonic_in_four_dims(self):
        # |x - a|^-2 scaled by k is flat-harmonic exactly when m = 4
        rng = rng_for("harm4")
        for _ in range(5):
            x = seed(rand_point(rng, 4), 3)
            f = jets.norm_sq(tuple(xi - rand_rat_nonzero(rng) for xi in x))
            if not f.value():
                continue
            lam = x[0].constant_like(rational(5, 3)) / f
            assert lam.laplacian().is_zero()

    def test_fourth_power_in_three_dims(self):
        # Delta |x|^4 = (4m + 8)|x|^2, so 20 at a unit point for m = 3
        x = seed((1, 0, 0), 2)
        r2 = jets.norm_sq(x)
        assert (r2 * r2).laplacian().value() == 20

    def test_matches_summed_second_partials(self):
        rng = rng_for("lap-vs-partials")
        for _ in range(10):
            x = seed(rand_point(rng, 3), 3)
            f = (1 + x[0] * x[1] - x[2]) * (2 + x[0]) + jets.norm_sq(x)
            expect = f.partial(0).partial(0)
            for i in (1, 2):
                expect = expect + f.partial(i).partial(i)
            assert f.laplacian() == expect

    def test_degree_one_rejected(self):
        (x,) = seed((0,), 1)
        with pytest.raises(DegreeError):
            x.laplacian()


def rand_rat_nonzero(rng):
    from conftest import rand_rat

    return rand_rat(rng, 2, 3, nonzero=True)


class TestIteratedLaplacian:
    def test_order_one_sum_of_squares(self):
        x = seed((0, 0, 0), 2)
        assert iterated_laplacian(jets.norm_sq(x), 1) == 6

    def test_biharmonic_of_fourth_power(self):
        # two symbolic Laplacians: Delta^2 |x|^4 = 8m(m+2) = 120 for m = 3
        x = seed((1, rational(1, 2), rational(-1, 3)), 4)
        r2 = jets.norm_sq(x)
        assert iterated_laplacian(r2 * r2, 2) == 120

    def test_inversion_component_order_two(self):
        # closed form at m = 6: 2*4*(m-2)(m-4) * x1/|x|^6 = 64 at e1
        x = seed((1, 0, 0, 0, 0, 0), 4)
        f = jets.norm_sq(x)
        comp = x[0] / f
        assert iterated_laplacian(comp, 2) == 64

    def test_order_one_equals_laplacian_constant(self):
        rng = rng_for("iterlap1")
        for _ in range(10):
            x = seed(rand_point(rng, 3), 4)
            f = (1 + x[0] + x[1] * x[2]) * (1 + x[2] * x[2])
            assert iterated_laplacian(f, 1) == f.laplacian().value()

    def test_insufficient_degree_rejected(self):
        x = seed((0, 0), 3)
        with pytest.raises(DegreeError):
            iterated_laplacian(x[0] * x[1], 2)


class TestValueAndGradient:
    def test_polynomial(self):
        (x,) = seed((2,), 2)
        f = x * x + 1
        v, g = f.value(), f.gradient()
        assert v == 5 and g == (4,)

    def test_constant(self):
        x = seed((1, 2), 2)
        f = x[0].constant_like(9)
        v, g = f.value(), f.gradient()
        assert v == 9 and g == (0, 0)

    def test_inverse_square(self):
        x = seed((1, 0, 0, 0), 1)
        f = x[0].constant_like(1) / jets.norm_sq(x)
        v, g = f.value(), f.gradient()
        assert v == 1 and g == (-2, 0, 0, 0)


class TestTaylorOracle:
    """Jet coefficients against independent symbolic differentiation."""

    @pytest.mark.parametrize(
        "build, expr_str",
        [
            (lambda x, y: (1 + x) * (1 + y) * (1 + x), "(1 + u)*(1 + v)*(1 + u)"),
            (lambda x, y: (x * x + y) / (3 - x), "(u*u + v) / (3 - u)"),
            (
                lambda x, y: (1 + x * y) / (1 + x * x + y * y),
                "(1 + u*v) / (1 + u*u + v*v)",
            ),
        ],
    )
    def test_rational_functions(self, build, expr_str):
        import sympy as sp

        u, v = sp.symbols("u v")
        expr = sp.sympify(expr_str)
        rng = rng_for(f"oracle:{expr_str}")
        for _ in range(3):
            x0 = rand_point(rng, 2, max_num=2, max_den=3)
            x, y = seed(x0, 3)
            jet = build(x, y)
            expected = sympy_taylor_coefficients(expr, (u, v), x0, 3)
            for beta, want in expected.items():
                assert jet.coefficient(beta) == want, (beta, x0)


class TestFloatMode:
    def test_laplacian_matches_finite_differences(self):
        # second-order central differences of the closed form, step 1e-4
        h = 1e-4

        def f(p):
            return (1.0 + p[0] * p[1]) / (1.0 + p[0] ** 2 + p[1] ** 2 + p[2] ** 2)

        x0 = (0.3, -0.2, 0.5)
        x = seed(x0, 2)
        jet = (1 + x[0] * x[1]) / (1 + jets.norm_sq(x))
        got = jet.laplacian().value()
        fd = 0.0
        for i in range(3):
            up = list(x0)
            dn = list(x0)
            up[i] += h
            dn[i] -= h
            fd += (f(up) - 2.0 * f(x0) + f(dn)) / h**2
        assert abs(got - fd) <= 1e-6 * max(1.0, abs(got), abs(fd))

    def test_division_by_float_zero_constant_rejected(self):
        (x,) = seed((0.0,), 2)
        with pytest.raises(SingularDivisionError):
            x.constant_like(1.0) / x


class TestMultiIndices:
    def test_graded_lex_order(self):
        idx = multi_indices(2, 2)
        assert idx == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]

    def test_counts(self):
        assert len(multi_indices(3, 4)) == 35
        assert len(multi_indices(12, 4)) == binomial(16, 4)
