"""Map family validation, conformal factors, and closed-form cross-checks."""

import copy
import math
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyharm import jets
from polyharm.errors import (
    MapValidationError,
    NonpositiveFactorError,
    SingularDivisionError,
)
from polyharm.jets import seed
from polyharm.mobius import (
    ConformalInstance,
    FactorQuadratic,
    MobiusMap,
    cayley_integers,
    factor_quadratic,
    integer_matrix,
    is_orthogonal_integers,
    signed_permutation_integers,
    validate,
)
from polyharm.rationals import integer_vector, rational
from polyharm.spaceform import SpaceFormModel
from polyharm.verifier import CURVATURE_PAIRS, random_mobius

from conftest import exact_norm_sq, make_instance, rand_point, rand_rat, rng_for
from jet_oracles import (
    apply_jet,
    apply_point,
    closed_form_factor,
    conformal_factor,
    conformal_factor_value,
    conformality_check,
    euclidean_factor,
    fraction_matrix,
    inv_sigma_jet,
    laplace_beltrami,
    mat_mul,
    mat_vec,
    reduced_parameters,
    transpose,
)


def _zeros(m):
    return tuple(rational(0) for _ in range(m))


def _zero_integers(m):
    """The integers (numerators, denominator) of the zero vector."""
    return (0,) * m, 1


class TestValidate:
    def test_identity_map_valid(self):
        m = MobiusMap.build(a=_zeros(3), b=_zeros(3), k=1, epsilon=2)
        assert validate(m) is m

    def test_scaled_matrix_rejected(self):
        two_i = tuple(tuple(rational(2 if i == j else 0) for j in range(3)) for i in range(3))
        with pytest.raises(MapValidationError):
            MobiusMap.build(a=_zeros(3), b=_zeros(3), k=1, A=two_i, epsilon=2)

    def test_raw_construction_validates(self):
        # every MobiusMap is valid by construction, not only those from build
        two_i = [[2 if i == j else 0 for j in range(3)] for i in range(3)]
        with pytest.raises(MapValidationError):
            MobiusMap(_zero_integers(3), _zero_integers(3), rational(1), (two_i, 1), 2)

    def test_epsilon_one_rejected(self):
        with pytest.raises(MapValidationError):
            MobiusMap.build(a=_zeros(3), b=_zeros(3), k=1, epsilon=1)

    def test_zero_scale_rejected(self):
        with pytest.raises(MapValidationError):
            MobiusMap.build(a=_zeros(3), b=_zeros(3), k=0, epsilon=0)

    @pytest.mark.parametrize(
        "N, D",
        [
            ([[3, 4], [4, 3]], 5),  # unit columns that are not orthogonal
            ([[1, 0], [0, 2]], 2),  # orthogonal columns that are not unit
            ([[2, 0], [0, 2]], 1),  # 2 I
            ([[1, 0], [0, 1]], -1),  # N^T N = D^2 I, but D is not positive
        ],
    )
    def test_drawn_integers_that_are_not_orthogonal_rejected(self, N, D):
        # the integers a draw hands over pass the same check as a configured A
        with pytest.raises(MapValidationError):
            MobiusMap(_zero_integers(2), _zero_integers(2), rational(1), (N, D), 2)

    def test_drawn_integers_form_the_matrix(self):
        mmap = MobiusMap(_zero_integers(2), _zero_integers(2), rational(1), ([[3, -4], [4, 3]], 5), 2)
        assert mmap.A_integers == (((3, -4), (4, 3)), 5)
        rows = ((rational(3, 5), rational(-4, 5)), (rational(4, 5), rational(3, 5)))
        assert fraction_matrix(*mmap.A_integers) == rows
        assert integer_matrix(rows) == ([[3, -4], [4, 3]], 5)
        assert mmap == MobiusMap.build(_zeros(2), _zeros(2), 1, rows, 2)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("A_integers", ([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]], 1)),
            ("A_integers", ([[1, 0], [0, 1]], Fraction(1))),
            ("A_integers", ([[True, False], [False, True]], 1)),
            ("epsilon", False),
            ("epsilon", 2.0),
            ("k", 1.5),
            ("k", True),
            ("a_integers", ((0, 0.5), 1)),
            ("b_integers", ((0, "1/2"), 1)),
            ("a_integers", ((Fraction(1), 0), 1)),
            ("b_integers", ((0, 1), Fraction(2))),
            ("a_integers", ((0, 1), 0)),
            ("b_integers", ((0, 1), -2)),
            ("a_integers", (Fraction(0), Fraction(0))),
            ("b_integers", ((0, 0, 0), 1)),
        ],
        ids=[
            "N-fraction", "D-fraction", "N-bool", "eps-false", "eps-float", "k-float", "k-bool", "a-float", "b-str",
            "a-fraction", "b-den-fraction", "a-den-zero", "b-den-negative", "a-rationals", "b-length",
        ],
    )
    def test_entry_types_rejected(self, field, value):
        # a wrong type is a validation error, never a TypeError or a stored value
        fields = {
            "a_integers": _zero_integers(2),
            "b_integers": _zero_integers(2),
            "k": rational(1),
            "A_integers": ([[1, 0], [0, 1]], 1),
            "epsilon": 2,
        }
        MobiusMap(**fields)
        with pytest.raises(MapValidationError):
            MobiusMap(**{**fields, field: value})

    def test_copy_and_pickle_keep_the_map(self):
        mmap = MobiusMap(_zero_integers(2), _zero_integers(2), rational(1), ([[3, -4], [4, 3]], 5), 2)
        for twin in (copy.deepcopy(mmap), pickle.loads(pickle.dumps(mmap))):
            assert twin == mmap and twin.A_integers == mmap.A_integers


class TestEquality:
    """A map is its (a_integers, b_integers, k, A_integers, epsilon), each
    integer pair reduced by its one gcd: the same rationals give the same map."""

    def test_scaled_integers_are_the_same_map(self):
        rng = rng_for("map-equality")
        for m, eps, style in ((3, 2, 0), (4, 0, 1), (5, 2, 2), (8, 0, 2)):
            drawn = random_mobius(rng, m, SpaceFormModel.flat(m), eps, style)
            N, D = drawn.A_integers
            for s in (2, 3, 6):
                a, b = ((tuple(s * v for v in V), s * d) for V, d in (drawn.a_integers, drawn.b_integers))
                scaled = MobiusMap(a, b, drawn.k, ([[s * v for v in row] for row in N], s * D), eps)
                assert scaled == drawn and hash(scaled) == hash(drawn)
                assert scaled.A_integers == drawn.A_integers and scaled.a_integers == drawn.a_integers
            assert MobiusMap(drawn.a_integers, drawn.b_integers, -drawn.k, (N, D), eps) != drawn

    def test_build_is_the_constructor_on_integer_matrix(self):
        rows = [
            [rational(3, 5), rational(0), rational(-4, 5)],
            [rational(0), rational(-1), rational(0)],
            [rational(4, 5), rational(0), rational(3, 5)],
        ]
        a, b, k = _zeros(3), (rational(1, 2), rational(0), rational(-1, 3)), rational(2, 3)
        built = MobiusMap.build(a, b, k, A=rows, epsilon=0)
        identity = MobiusMap.build(a, b, k, epsilon=2)
        a, b = integer_vector(a), integer_vector(b)
        assert a == ([0, 0, 0], 1) and b == ([3, 0, -2], 6)
        assert built == MobiusMap(a, b, k, integer_matrix(rows), 0)
        assert hash(built) == hash(MobiusMap(a, b, k, integer_matrix(rows), 0))
        assert identity == MobiusMap(a, b, k, ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 1), 2)
        assert (built.a, built.b) == (_zeros(3), (rational(1, 2), rational(0), rational(-1, 3)))

    def test_copy_and_pickle_round_trip(self):
        rng = rng_for("map-round-trip")
        for style in range(3):
            mmap = random_mobius(rng, 5, SpaceFormModel.sphere(5), 2, style)
            for twin in (copy.copy(mmap), copy.deepcopy(mmap), pickle.loads(pickle.dumps(mmap))):
                assert twin == mmap and hash(twin) == hash(mmap)
                assert twin.A_integers == mmap.A_integers and repr(twin) == repr(mmap)


def _gauss_jordan_inverse(A):
    """Exact inverse by Gauss-Jordan elimination on rationals: the oracle of
    the fraction-free solve in cayley_integers."""
    m = len(A)
    aug = [list(A[i]) + [rational(1 if i == j else 0) for j in range(m)] for i in range(m)]
    for col in range(m):
        pivot = next(r for r in range(col, m) if aug[r][col])
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pc = aug[col][col]
        aug[col] = [v / pc for v in aug[col]]
        for r in range(m):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return tuple(tuple(row[m:]) for row in aug)


def _random_skew(rng, m, density=0.7):
    rows = [[rational(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            if rng.random() < density:
                v = rand_rat(rng, 20, 12)
                rows[i][j], rows[j][i] = v, -v
    return tuple(tuple(r) for r in rows)


def _identity(m):
    return fraction_matrix(signed_permutation_integers(range(m)), 1)


def _cayley(S):
    return fraction_matrix(*cayley_integers(S))


class TestCayley:
    def test_zero_skew_gives_identity(self):
        S = tuple(tuple(rational(0) for _ in range(3)) for _ in range(3))
        assert _cayley(S) == _identity(3)

    def test_two_by_two(self):
        S = ((rational(0), rational(1)), (rational(-1), rational(0)))
        got = _cayley(S)
        assert got == ((rational(0), rational(1)), (rational(-1), rational(0)))

    def test_symmetric_input_rejected(self):
        S = ((rational(0), rational(1)), (rational(1), rational(0)))
        with pytest.raises(MapValidationError):
            cayley_integers(S)

    @settings(max_examples=40, deadline=None)
    @given(
        entries=st.lists(
            st.fractions(min_value=-2, max_value=2, max_denominator=4),
            min_size=6,
            max_size=6,
        )
    )
    def test_always_exactly_orthogonal(self, entries):
        m = 4
        rows = [[rational(0)] * m for _ in range(m)]
        it = iter(entries)
        for i in range(m):
            for j in range(i + 1, m):
                v = next(it)
                vq = rational(v.numerator, v.denominator)
                rows[i][j] = vq
                rows[j][i] = -vq
        A = _cayley(tuple(tuple(r) for r in rows))
        assert is_orthogonal_integers(*integer_matrix(A))

    def test_matches_gauss_jordan_route(self):
        # the fraction-free solve against (I - S)^-1 (I + S) on rationals
        rng = rng_for("cayley-gauss-jordan")
        for m in range(1, 9):
            for density in (0.0, 0.3, 1.0):
                S = _random_skew(rng, m, density)
                one = _identity(m)
                i_minus = tuple(tuple(one[i][j] - S[i][j] for j in range(m)) for i in range(m))
                i_plus = tuple(tuple(one[i][j] + S[i][j] for j in range(m)) for i in range(m))
                assert _cayley(S) == mat_mul(_gauss_jordan_inverse(i_minus), i_plus)

    def test_signed_permutation_orthogonal(self):
        A = fraction_matrix(signed_permutation_integers([2, 0, 1], [1, -1, 1]), 1)
        assert is_orthogonal_integers(*integer_matrix(A))

    @pytest.mark.parametrize(
        "rows",
        [
            # unit columns that are not orthogonal
            ((rational(3, 5), rational(4, 5)), (rational(4, 5), rational(3, 5))),
            # orthogonal columns that are not unit
            ((rational(1), rational(0)), (rational(0), rational(1, 2))),
            # a rotation with one entry changed
            ((rational(3, 5), rational(-4, 5)), (rational(4, 5), rational(1, 2))),
        ],
    )
    def test_non_orthogonal_rejected(self, rows):
        assert not is_orthogonal_integers(*integer_matrix(rows))


class TestApply:
    def test_inversion_point(self):
        m = MobiusMap.inversion(4)
        x = seed((1, 1, 0, 0), 1)
        got = apply_jet(m, x)
        assert tuple(j.value() for j in got) == (
            rational(1, 2),
            rational(1, 2),
            0,
            0,
        )

    def test_affine_value(self):
        rng = rng_for("affine")
        a = rand_point(rng, 3)
        b = rand_point(rng, 3)
        k = rand_rat(rng, 3, 3, nonzero=True)
        m = MobiusMap.build(a=a, b=b, k=k, epsilon=0)
        pt = rand_point(rng, 3)
        got = apply_point(m, pt)
        want = tuple(bi + k * (xi - ai) for bi, xi, ai in zip(b, pt, a))
        assert got == want

    def test_singular_at_center(self):
        m = MobiusMap.inversion(3)
        with pytest.raises(SingularDivisionError):
            apply_point(m, _zeros(3))
        with pytest.raises(SingularDivisionError):
            apply_jet(m, seed((0, 0, 0), 2))


class TestEuclideanFactor:
    def test_inversion_value(self):
        m = MobiusMap.inversion(4)
        x = seed((1, 0, 0, 0), 2)
        assert euclidean_factor(m, x).value() == 1

    def test_affine_constant(self):
        m = MobiusMap.build(a=_zeros(3), b=_zeros(3), k=3, epsilon=0)
        x = seed((1, 2, 3), 2)
        fac = euclidean_factor(m, x)
        assert fac.value() == 3 and all(c == 0 for c in fac.coeffs[1:])

    def test_gradient_of_inverse_square(self):
        m = MobiusMap.inversion(4)
        x = seed((1, 0, 0, 0), 2)
        assert euclidean_factor(m, x).gradient() == (-2, 0, 0, 0)


class TestConformalFactor:
    def test_flat_to_sphere_identity_map(self):
        # the identity into the round chart carries factor 2/(1+|x|^2)
        rng = rng_for("b2ii")
        m = MobiusMap.build(a=_zeros(4), b=_zeros(4), k=1, epsilon=0)
        for _ in range(5):
            pt = rand_point(rng, 4)
            x = seed(pt, 3)
            lam = conformal_factor(SpaceFormModel.flat(4), SpaceFormModel.sphere(4), m, x)
            want = x[0].constant_like(2) / (1 + jets.norm_sq(x))
            assert lam == want

    def test_flat_to_flat_inversive(self):
        rng = rng_for("rr-factor")
        a = rand_point(rng, 4)
        k = rational(3, 2)
        m = MobiusMap.build(a=a, b=rand_point(rng, 4), k=k, epsilon=2)
        pt = tuple(ai + rational(1) for ai in a)
        x = seed(pt, 3)
        lam = conformal_factor(SpaceFormModel.flat(4), SpaceFormModel.flat(4), m, x)
        shifted = tuple(xi - ai for xi, ai in zip(x, a))
        assert lam == x[0].constant_like(k) / jets.norm_sq(shifted)

    def test_sphere_to_flat_inversive(self):
        # sphere domain picks up the reciprocal chart weight (1+|x|^2)/2
        rng = rng_for("sphere-flat")
        a = rand_point(rng, 4)
        k = rational(2, 3)
        m = MobiusMap.build(a=a, b=_zeros(4), k=k, epsilon=2)
        pt = tuple(ai + rational(1, 2) for ai in a)
        x = seed(pt, 3)
        lam = conformal_factor(SpaceFormModel.sphere(4), SpaceFormModel.flat(4), m, x)
        shifted = tuple(xi - ai for xi, ai in zip(x, a))
        want = (1 + jets.norm_sq(x)).scale(k) / jets.norm_sq(shifted).scale(2)
        assert lam == want

    def test_nonpositive_factor_rejected(self):
        m = MobiusMap.build(a=_zeros(4), b=_zeros(4), k=-1, epsilon=2)
        x = seed((1, 0, 0, 0), 2)
        with pytest.raises(NonpositiveFactorError):
            conformal_factor(SpaceFormModel.flat(4), SpaceFormModel.flat(4), m, x)


class TestFactorQuadratic:
    @pytest.mark.parametrize("c1,c2", CURVATURE_PAIRS)
    @pytest.mark.parametrize("eps", [0, 2])
    def test_pointwise_factor(self, c1, c2, eps):
        """kappa w(x) den / Q(x - a) is the factor at every admissible point."""
        inst, pts = make_instance(f"factor-quadratic:{c1}:{c2}:{eps}", 5, c1, c2, eps, style=2)
        fq = factor_quadratic(inst.target, inst.map)
        assert fq == inst.factor
        for x in pts:
            u = tuple(xi - rational(ai, fq.a_den) for xi, ai in zip(x, fq.a_num))
            q = fq.value + 2 * sum(g * v for g, v in zip(fq.linear, u)) + fq.square * exact_norm_sq(u)
            w = (1 + c1 * exact_norm_sq(x)) / 2 if c1 else 1
            lam = fq.kappa * w * fq.den / q
            assert lam == conformal_factor_value(inst.domain, inst.target, inst.map, x)


    def test_fields_match_the_rational_route(self):
        # c2 k A^T b formed on integers against the same vector on rationals
        rng = rng_for("factor-quadratic-route")
        for m in range(3, 9):
            for c2 in (-1, 0, 1):
                for eps in (0, 2):
                    target = SpaceFormModel(m, c2)
                    mmap = random_mobius(rng, m, target, eps, style=rng.randint(0, 2))
                    k = mmap.k
                    A = fraction_matrix(*mmap.A_integers)
                    g = tuple(c2 * k * v for v in mat_vec(transpose(A), mmap.b))
                    alpha = 1 + c2 * exact_norm_sq(mmap.b)
                    q0, s = (c2 * k * k, alpha) if eps == 2 else (alpha, c2 * k * k)
                    den = math.lcm(q0.denominator, s.denominator, *(v.denominator for v in g))
                    fq = factor_quadratic(target, mmap)
                    assert fq.den == den
                    assert (fq.value, fq.square) == (q0 * den, s * den)
                    assert tuple(rational(v, den) for v in fq.linear) == g


def _fraction_factor_quadratic(target, mmap) -> FactorQuadratic:
    """The factor formed on Fractions, as ``factor_quadratic`` did before it
    moved to integer numerators: alpha, c2 k^2 and c2 k A^T b as rationals,
    cleared over the lcm of their denominators.  A's integers are read off
    A as rationals."""
    c2 = target.curvature
    k = mmap.k
    kappa = 2 * k if c2 else k
    alpha = 1 + c2 * sum(v * v for v in mmap.b)
    N, D = integer_matrix(fraction_matrix(*mmap.A_integers))
    B, d_b = integer_vector(mmap.b)
    g_num = c2 * k.numerator
    g_den = k.denominator * D * d_b
    g = [rational(g_num * sum(row[j] * v for row, v in zip(N, B)), g_den) for j in range(len(B))]
    q0, s = (c2 * k * k, alpha) if mmap.epsilon == 2 else (alpha, c2 * k * k)
    (value, square, *linear), den = integer_vector([q0, s, *g])
    a_num, a_den = integer_vector(mmap.a)
    return FactorQuadratic(kappa, tuple(a_num), a_den, value, tuple(linear), square, den)


class TestFactorIntegerOracle:
    """The factor on integer numerators against the Fraction route, and a
    drawn map against the one ``build`` makes from its matrix as rationals."""

    @pytest.mark.parametrize("m", [3, 5, 8, 12])
    def test_exact_equal(self, m):
        rng = rng_for(f"factor-integer-oracle:{m}")
        checked = 0
        for c1, c2 in CURVATURE_PAIRS:
            for eps in (0, 2):
                target = SpaceFormModel(m, c2)
                for style in range(3):
                    drawn = random_mobius(rng, m, target, eps, style)
                    A = fraction_matrix(*drawn.A_integers)
                    assert MobiusMap.build(drawn.a, drawn.b, drawn.k, A, eps) == drawn, (c1, c2, eps, style)
                    # a configured map with either sign of k takes the integer_matrix route
                    for k in (drawn.k, -drawn.k):
                        mmap = MobiusMap.build(drawn.a, drawn.b, k, A, eps)
                        assert mmap.A_integers == drawn.A_integers
                        got = factor_quadratic(target, mmap)
                        want = _fraction_factor_quadratic(target, mmap)
                        assert got == want and got._asdict() == want._asdict(), (c1, c2, eps, style, k)
                        assert math.gcd(got.den, got.value, got.square, *got.linear) == 1
                        checked += 1
                    assert factor_quadratic(target, drawn) == _fraction_factor_quadratic(target, drawn)
        assert checked == 18 * 3 * 2


class TestReducedParameters:
    def test_flat_to_sphere_basic(self):
        m = MobiusMap.build(a=_zeros(4), b=_zeros(4), k=1, epsilon=2)
        params = reduced_parameters(m, SpaceFormModel.sphere(4))
        assert params.c == 1 and params.d == _zeros(4) and params.sign == 1
        # the closed form evaluates to 2/(1+|x|^2): lambda = 1 at a unit point
        assert conformal_factor_value(
            SpaceFormModel.flat(4), SpaceFormModel.sphere(4), m, (1, 0, 0, 0)
        ) == 1

    def test_flat_to_hyperbolic_basic(self):
        rng = rng_for("rh-params")
        a = rand_point(rng, 4)
        m = MobiusMap.build(a=a, b=_zeros(4), k=1, epsilon=2)
        params = reduced_parameters(m, SpaceFormModel.hyperbolic(4))
        assert params.c == 1 and params.d == a and params.sign == -1

    def test_sphere_to_sphere_b_zero(self):
        rng = rng_for("ss-params")
        a = rand_point(rng, 4)
        k = rational(5, 3)
        m = MobiusMap.build(a=a, b=_zeros(4), k=k, epsilon=2)
        params = reduced_parameters(m, SpaceFormModel.sphere(4))
        assert params.c == k and params.d == a

    def test_unit_b_hyperbolic_target_rejected(self):
        b = (rational(1), rational(0), rational(0))
        m = MobiusMap.build(a=_zeros(3), b=b, k=1, epsilon=2)
        with pytest.raises(MapValidationError):
            reduced_parameters(m, SpaceFormModel.hyperbolic(3))

    @pytest.mark.parametrize("epsilon", [0, 2])
    def test_unit_b_hyperbolic_factor_rejected(self, epsilon):
        # alpha = 1 - |b|^2 = 0: the factor refuses, and so every instance
        b = (rational(3, 5), rational(0), rational(-4, 5))
        m = MobiusMap.build(a=_zeros(3), b=b, k=1, epsilon=epsilon)
        hyperbolic = SpaceFormModel.hyperbolic(3)
        message = "|b| = 1 with a hyperbolic target leaves the reduced factor undefined"
        for build in (
            lambda: factor_quadratic(hyperbolic, m),
            lambda: ConformalInstance(SpaceFormModel.flat(3), hyperbolic, m),
        ):
            with pytest.raises(MapValidationError, match=re.escape(message)):
                build()
        for c2 in (0, 1):
            assert ConformalInstance(SpaceFormModel.flat(3), SpaceFormModel(3, c2), m).map is m

    @pytest.mark.parametrize("domain_c", [-1, 0, 1])
    @pytest.mark.parametrize("target_c", [-1, 1])
    @pytest.mark.parametrize("epsilon", [0, 2])
    def test_closed_form_matches_composed_factor(self, domain_c, target_c, epsilon):
        """The reduced-parameter closed form and the composed factor agree as
        jets at 20 random rational points per combination."""
        from polyharm.verifier import SamplePlan, random_mobius, sample_points

        rng = rng_for(f"dual-route:{domain_c}:{target_c}:{epsilon}")
        domain = SpaceFormModel(4, domain_c)
        target = SpaceFormModel(4, target_c)
        checked = 0
        for attempt in range(12):
            mmap = random_mobius(rng, 4, target, epsilon, style=attempt)
            instance = ConformalInstance(domain=domain, target=target, map=mmap)
            try:
                pts = sample_points(SamplePlan(seed=attempt, count=20), instance)
            except Exception:
                continue
            params = reduced_parameters(mmap, target)
            for pt in pts:
                x = seed(pt.fractions(), 3)
                assert conformal_factor(domain, target, mmap, x) == closed_form_factor(
                    params, domain, x
                )
            checked += len(pts)
            break
        assert checked == 20


class TestConformality:
    def test_validated_map_is_conformal(self):
        rng = rng_for("conf-check")
        for style in range(3):
            from polyharm.verifier import random_mobius

            target = SpaceFormModel.sphere(4)
            mmap = random_mobius(rng, 4, target, 2, style)
            pt = rand_point(rng, 4)
            if apply_point(mmap, pt):  # off the singular set
                assert conformality_check(SpaceFormModel.flat(4), target, mmap, pt)

    @pytest.mark.parametrize("m", [3, 5])
    @pytest.mark.parametrize("c1,c2", CURVATURE_PAIRS)
    @pytest.mark.parametrize("eps", [0, 2])
    def test_every_curvature_pair_and_branch(self, m, c1, c2, eps):
        # the verdict's factor P/Q against the closed Jacobian, at every
        # sampled point; flat and curved charts on both sides
        inst, pts = make_instance(f"conformality:{m}:{c1}:{c2}:{eps}", m, c1, c2, eps, style=2)
        for x in pts:
            assert conformality_check(inst.domain, inst.target, inst.map, x)

    def test_non_orthogonal_matrix_detected(self):
        # smuggle a non-orthogonal A past construction, which validates
        bad = tuple(tuple(1 if i == j or (i, j) == (0, 1) else 0 for j in range(4)) for i in range(4))
        inv = MobiusMap.inversion(4)
        m = tuple.__new__(MobiusMap, (inv.a_integers, inv.b_integers, inv.k, (bad, 1), inv.epsilon))
        assert not conformality_check(
            SpaceFormModel.flat(4), SpaceFormModel.flat(4), m, (1, 1, 0, 0)
        )

    def test_inversion_value_in_four_dims(self):
        m = MobiusMap.inversion(4)
        pt = (rational(1), rational(1), rational(0), rational(0))
        assert conformality_check(SpaceFormModel.flat(4), SpaceFormModel.flat(4), m, pt)
        assert conformal_factor_value(
            SpaceFormModel.flat(4), SpaceFormModel.flat(4), m, pt
        ) == rational(1, 2)


class TestRotationInvariance:
    def test_target_rotation_preserves_factor_and_residuals(self):
        # replacing A by QA with b = 0 post-rotates the image; the factor and
        # residual norms are unchanged at the same points
        from jet_oracles import mat_mul
        from polyharm.residuals import evaluate_residuals

        rng = rng_for("rot-target")
        Q = fraction_matrix(signed_permutation_integers([1, 2, 0, 3], [1, -1, 1, -1]), 1)
        a = rand_point(rng, 4)
        k = rational(4, 3)
        base = MobiusMap.build(a=a, b=_zeros(4), k=k, epsilon=2)
        A = fraction_matrix(*base.A_integers)
        rotated = MobiusMap.build(a=a, b=_zeros(4), k=k, A=mat_mul(Q, A), epsilon=2)
        domain, target = SpaceFormModel.flat(4), SpaceFormModel.sphere(4)
        inst1 = ConformalInstance(domain=domain, target=target, map=base)
        inst2 = ConformalInstance(domain=domain, target=target, map=rotated)
        for _ in range(5):
            pt = rand_point(rng, 4)
            try:
                x = seed(pt, 3)
                lam1 = conformal_factor(domain, target, base, x)
            except Exception:
                continue
            assert lam1 == conformal_factor(domain, target, rotated, x)
            r1 = evaluate_residuals(inst1, pt)["SDL"]
            r2 = evaluate_residuals(inst2, pt)["SDL"]
            assert exact_norm_sq(r1.values) == exact_norm_sq(r2.values)

    def test_domain_rotation_moves_sample_points(self):
        # with a = 0, replacing A by A Q evaluates the original map at Qx, so
        # residual norms agree at correspondingly rotated points
        from jet_oracles import mat_mul
        from polyharm.residuals import evaluate_residuals

        rng = rng_for("rot-domain")
        Q = fraction_matrix(signed_permutation_integers([3, 0, 2, 1], [-1, 1, 1, 1]), 1)
        b = rand_point(rng, 4, max_num=1, max_den=4)
        k = rational(3, 4)
        base = MobiusMap.build(a=_zeros(4), b=b, k=k, epsilon=2)
        A = fraction_matrix(*base.A_integers)
        rotated = MobiusMap.build(a=_zeros(4), b=b, k=k, A=mat_mul(A, Q), epsilon=2)
        domain, target = SpaceFormModel.flat(4), SpaceFormModel.sphere(4)
        inst1 = ConformalInstance(domain=domain, target=target, map=base)
        inst2 = ConformalInstance(domain=domain, target=target, map=rotated)
        for _ in range(5):
            pt = rand_point(rng, 4)
            if not any(pt):
                continue
            qpt = mat_vec(Q, pt)
            r1 = evaluate_residuals(inst1, qpt)["SDL"]
            r2 = evaluate_residuals(inst2, pt)["SDL"]
            assert exact_norm_sq(r1.values) == exact_norm_sq(r2.values)


def _w_old(c, x):
    """The chart weight as it used to be built: (c |x|^2 + 1)/2 from products."""
    if c == 0:
        return x[0].constant_like(1)
    return (jets.norm_sq(x).scale(c) + 1).scale(rational(1, 2))


def _dense_factor(domain, target, mmap, x):
    """lambda_E * rho(phi) * w with rho read off the composed map jets."""
    lam = euclidean_factor(mmap, x)
    if target.curvature:
        phi_sq = jets.norm_sq(apply_jet(mmap, x))
        lam = lam * (x[0].constant_like(2) / (phi_sq.scale(target.curvature) + 1))
    return lam * _w_old(domain.curvature, x)


class TestFactorRouteOracle:
    """conformal_factor and the chart weight against the dense routes they
    replaced: composed map jets, norm_sq products and untruncated operators."""

    @pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8])
    def test_exact_equal(self, m):
        checked = 0
        for c1, c2 in CURVATURE_PAIRS:
            for eps in (0, 2):
                for style in (0, 1, 2):
                    tag = f"factor-oracle:{m}:{c1}:{c2}:{eps}:{style}"
                    inst, pts = make_instance(tag, m, c1, c2, eps, style)
                    dom, tgt = inst.domain, inst.target
                    x = seed(pts[0], 3)
                    lam = conformal_factor(dom, tgt, inst.map, x)
                    assert lam == _dense_factor(dom, tgt, inst.map, x)
                    w = _w_old(c1, x)
                    assert inv_sigma_jet(dom, x) == w
                    radial = jets.dot(x, tuple(lam.partial(i) for i in range(m)))
                    full = w * w * lam.laplacian() - w * radial.scale(c1 * (m - 2))
                    assert laplace_beltrami(lam, dom, x) == full
                    checked += 1
        assert checked == 9 * 2 * 3

    def test_float_within_relative_tolerance(self):
        inst, pts = make_instance("factor-oracle-float", 6, 1, -1, 2, style=2)
        dom, tgt = inst.domain, inst.target
        x = seed(tuple(float(v) for v in pts[0]), 3)
        got = conformal_factor(dom, tgt, inst.map, x).coeffs
        want = _dense_factor(dom, tgt, inst.map, x).coeffs
        scale = max(abs(v) for v in want)
        assert scale > 0
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12 * scale
