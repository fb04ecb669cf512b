"""Independent oracles: the conformal factor, the map and the curved
operators as truncated Taylor series of :mod:`polyharm.jets`, and the map on
exact points with its two closed-form cross-checks.

No verdict reads these routes.  The package computes the factor once, as
lambda = P/Q (``mobius.factor_quadratic``), and forms the curved operators on
integers (``residuals.ConformalGeometry``); the tests compare that route with
the jets built here, which compose the map and its factors in the textbook
way, with ``conformality_check`` (the pullback identity from the closed
Jacobian of phi and phi(x) from ``apply_point``) and with the factor rebuilt
from ``reduced_parameters``.  Import it as ``conftest`` is imported.

The curved operators are written through the reciprocal chart factor
w = 1/sigma, the quadratic (1 + c|x|^2)/2 for curvature c != 0 with gradient
grad w = c x:

    lapbar f  = sigma^-2 lap f + (m-2) sigma^-3 <grad sigma, grad f>
              = w^2 lap f - (m-2) c w <x, grad f>,
    gradbar f = sigma^-2 grad f = w^2 grad f,
    |gradbar f|^2_gbar = sigma^-2 |grad f|^2 = w^2 |grad f|^2,

where the second form of lapbar follows from grad sigma = -sigma^2 grad w.
Each operator forms w and its other factors at the degree of its result
(D - 2 for lapbar), since the coefficients above it are never read.
"""

from __future__ import annotations

import operator
from typing import NamedTuple

from polyharm import jets
from polyharm.errors import ChartDomainError, MapValidationError, NonpositiveFactorError, SingularDivisionError
from polyharm.jets import Jet
from polyharm.mobius import Matrix, MobiusMap, Vector, factor_quadratic
from polyharm.rationals import rational
from polyharm.spaceform import SpaceFormModel

# -- space-form scalars and curved operators ---------------------------------


def in_domain(model: SpaceFormModel, x) -> bool:
    """True when the point lies in the chart (|x| < 1 on the ball model)."""
    if model.curvature >= 0:
        return True
    s = sum(v * v for v in x)
    return s < 1


def scal(model: SpaceFormModel) -> int:
    """Scalar curvature m(m-1)c of the model."""
    return model.dim * (model.dim - 1) * model.curvature


def ricci_scale(model: SpaceFormModel) -> int:
    """Ric = (m-1)c * g on a space form; this is the single scalar used."""
    return (model.dim - 1) * model.curvature


def inv_sigma_jet(model: SpaceFormModel, x: tuple[Jet, ...]) -> Jet:
    """Jet of w = 1/sigma, a polynomial: 1, (1+|x|^2)/2, or (1-|x|^2)/2."""
    if model.curvature == 0:
        return x[0].constant_like(1)
    c = model.curvature
    base = tuple(j.value() for j in x)
    half = rational(1, 2)
    w0 = (c * sum(v * v for v in base) + 1) * half
    return jets.quadratic(x[0], w0, [c * v for v in base], c * half)


def sigma_jet(model: SpaceFormModel, x: tuple[Jet, ...]) -> Jet:
    """Jet of the chart factor sigma at the base point of x."""
    base = tuple(j.value() for j in x)
    if not in_domain(model, base):
        raise ChartDomainError(f"point outside the {model.name} chart")
    if model.curvature == 0:
        return x[0].constant_like(1)
    return x[0].constant_like(1) / inv_sigma_jet(model, x)


def laplace_beltrami(f: Jet, model: SpaceFormModel, x: tuple[Jet, ...]) -> Jet:
    """Jet of the curved Laplacian of f (degree drops by 2)."""
    lap = f.laplacian()
    if model.curvature == 0:
        return lap
    d = lap.degree
    w = inv_sigma_jet(model, x).truncate(d)
    radial = jets.dot(
        tuple(xi.truncate(d) for xi in x),
        tuple(f.partial(i).truncate(d) for i in range(model.dim)),
    )
    return w * (w * lap - radial.scale(model.curvature * (model.dim - 2)))


def grad_bar(f: Jet, model: SpaceFormModel, x: tuple[Jet, ...]) -> tuple[Jet, ...]:
    """Curved gradient, componentwise sigma^-2 * df/dx_i."""
    grads = tuple(f.partial(i) for i in range(model.dim))
    if model.curvature == 0:
        return grads
    w = inv_sigma_jet(model, x).truncate(grads[0].degree)
    w2 = w * w
    return tuple(w2 * g for g in grads)


def grad_norm_sq_bar(f: Jet, model: SpaceFormModel, x: tuple[Jet, ...]) -> Jet:
    """|gradbar f|^2 in the curved metric: one sigma^-2 against |grad f|^2."""
    g = jets.norm_sq(tuple(f.partial(i) for i in range(model.dim)))
    if model.curvature == 0:
        return g
    w = inv_sigma_jet(model, x).truncate(g.degree)
    return w * w * g


# -- the map and its factors as jets -----------------------------------------


def fraction_matrix(N, D: int) -> Matrix:
    """The matrix N / D as rationals: a map holds A only as its integers, and
    the oracles read it as ``fraction_matrix(*mmap.A_integers)``."""
    return tuple(tuple(rational(v, D) for v in row) for row in N)


def mat_vec(A: Matrix, v: Vector) -> Vector:
    return tuple(sum(Ai[j] * v[j] for j in range(len(v))) for Ai in A)


def transpose(A: Matrix) -> Matrix:
    m = len(A)
    return tuple(tuple(A[i][j] for i in range(m)) for j in range(m))


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    m = len(A)
    return tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(m)) for j in range(m)) for i in range(m)
    )


def apply_jet(mmap: MobiusMap, x: tuple[Jet, ...]) -> tuple[Jet, ...]:
    """Jets of the map components at the base point of x."""
    u = tuple(xi - ai for xi, ai in zip(x, mmap.a))
    A = fraction_matrix(*mmap.A_integers)
    rotated = []
    for i in range(mmap.dim):
        acc = None
        for j in range(mmap.dim):
            if A[i][j]:
                term = u[j].scale(A[i][j])
                acc = term if acc is None else acc + term
        rotated.append(acc if acc is not None else x[0].zero_like())
    if mmap.epsilon == 0:
        return tuple(r.scale(mmap.k) + bi for r, bi in zip(rotated, mmap.b))
    f = jets.norm_sq(u)
    if not f.value():
        raise SingularDivisionError("map is singular at x = a")
    inv_f = x[0].constant_like(1) / f
    return tuple(r.scale(mmap.k) * inv_f + bi for r, bi in zip(rotated, mmap.b))


def euclidean_factor(mmap: MobiusMap, x: tuple[Jet, ...]) -> Jet:
    """Flat-to-flat conformal factor: k for eps = 0, k/|x-a|^2 for eps = 2."""
    if mmap.epsilon == 0:
        return x[0].constant_like(mmap.k)
    u = tuple(xi - ai for xi, ai in zip(x, mmap.a))
    f = jets.norm_sq(u)
    if not f.value():
        raise SingularDivisionError("factor is singular at x = a")
    return x[0].constant_like(mmap.k) / f


def conformal_factor(
    domain: SpaceFormModel,
    target: SpaceFormModel,
    mmap: MobiusMap,
    x: tuple[Jet, ...],
) -> Jet:
    """Jet of lambda with phi^* h = lambda^2 g_domain; must be positive at x0.

    Builds no map components: f = |x - a|^2 and the linear form <A^T b, u>
    are written as quadratics, one reciprocal 1/f serves lambda_E and
    |phi|^2, and |phi|^2 comes from the identity of the ``mobius`` docstring,
    which needs A exactly orthogonal (``validate`` certifies it).
    """
    base = tuple(j.value() for j in x)
    if not in_domain(domain, base):
        raise ChartDomainError(f"base point outside the {domain.name} chart")
    k = mmap.k
    u0 = tuple(xi - ai for xi, ai in zip(base, mmap.a))
    f0 = sum(v * v for v in u0)
    if mmap.epsilon == 2:
        if not f0:
            raise SingularDivisionError("factor is singular at x = a")
        recip = x[0].constant_like(1) / jets.quadratic(x[0], f0, [2 * v for v in u0], 1)
        lam = recip.scale(k)
    else:
        lam = x[0].constant_like(k)
    if target.curvature != 0:
        at_b = mat_vec(transpose(fraction_matrix(*mmap.A_integers)), mmap.b)
        b_sq = sum(v * v for v in mmap.b)
        lin0 = sum(v * w for v, w in zip(at_b, u0))
        if mmap.epsilon == 2:
            numer = jets.quadratic(x[0], 2 * k * lin0 + k * k, [2 * k * v for v in at_b])
            phi_sq = numer * recip + b_sq
        else:
            linear = [2 * k * (v + k * w) for v, w in zip(at_b, u0)]
            phi_sq = jets.quadratic(x[0], b_sq + 2 * k * lin0 + k * k * f0, linear, k * k)
        denom = phi_sq.scale(target.curvature) + 1
        d0 = denom.value()
        if not d0:
            raise ChartDomainError("image point on the target chart boundary")
        if d0 < 0:
            raise ChartDomainError("image point outside the target chart")
        lam = lam * (x[0].constant_like(2) / denom)
    if domain.curvature != 0:
        lam = lam * inv_sigma_jet(domain, x)
    if lam.value() <= 0:
        raise NonpositiveFactorError(f"conformal factor {lam.value()} <= 0 at {base}")
    return lam


def conformal_factor_value(
    domain: SpaceFormModel, target: SpaceFormModel, mmap: MobiusMap, x: Vector
):
    """lambda(x) on exact scalars; raises where the factor is undefined."""
    if not in_domain(domain, x):
        raise ChartDomainError(f"point outside the {domain.name} chart")
    if mmap.epsilon == 2:
        f = sum((xi - ai) ** 2 for xi, ai in zip(x, mmap.a))
        if not f:
            raise SingularDivisionError("map is singular at x = a")
        lam = mmap.k / f
    else:
        lam = mmap.k
    if target.curvature != 0:
        y = apply_point(mmap, x)
        denom = 1 + target.curvature * sum(v * v for v in y)
        if denom <= 0:
            raise ChartDomainError("image point outside the target chart")
        lam = lam * 2 / denom
    if domain.curvature != 0:
        lam = lam * (1 + domain.curvature * sum(v * v for v in x)) / 2
    return lam


def closed_form_factor(
    params: ReducedFactorParams, domain: SpaceFormModel, x: tuple[Jet, ...]
) -> Jet:
    """Jet of 2c * w(x) / (sign*c^2 + |x - d|^2) from reduced parameters."""
    shifted = tuple(xi - di for xi, di in zip(x, params.d))
    denom = jets.norm_sq(shifted) + params.sign * params.c * params.c
    if not denom.value():
        raise SingularDivisionError("closed-form factor singular at this point")
    w = inv_sigma_jet(domain, x)
    return w.scale(2 * params.c) / denom


# -- the map on exact points and its closed-form cross-checks ----------------


class ReducedFactorParams(NamedTuple):
    """Center d, scale c and denominator sign of a curved-target factor.

    The factor of the map into the sphere (sign +1) or ball (sign -1) chart is
    2c * w_domain(x) / (sign * c^2 + |x - d|^2).
    """

    c: object
    d: Vector
    sign: int


def apply_point(mmap: MobiusMap, x: Vector) -> Vector:
    """phi(x) on exact scalars, k A u = (k/D) N u with A = N/D."""
    N, D = mmap.A_integers
    u = tuple(xi - ai for xi, ai in zip(x, mmap.a))
    kD = rational(mmap.k, D)
    v = tuple(kD * sum(map(operator.mul, row, u)) for row in N)
    if mmap.epsilon == 0:
        return tuple(bi + vi for bi, vi in zip(mmap.b, v))
    f = sum(ui * ui for ui in u)
    if not f:
        raise SingularDivisionError("map is singular at x = a")
    return tuple(bi + vi / f for bi, vi in zip(mmap.b, v))


def reduced_parameters(mmap: MobiusMap, target: SpaceFormModel) -> ReducedFactorParams:
    """Closed-form (c, d, sign) of the curved-target factor for this map."""
    if target.curvature == 0:
        raise MapValidationError("reduced parameters exist for curved targets only")
    sign = target.curvature
    N, D = mmap.A_integers
    at_b = tuple(rational(sum(map(operator.mul, col, mmap.b)), D) for col in zip(*N))
    if mmap.epsilon == 2:
        den = 1 + sign * sum(v * v for v in mmap.b)
        if not den:
            raise MapValidationError("|b| = 1 leaves the hyperbolic-target factor undefined")
        c = mmap.k / den
        d = tuple(ai - sign * c * v for ai, v in zip(mmap.a, at_b))
    else:
        c = sign * 1 / mmap.k
        d = tuple(ai - v / mmap.k for ai, v in zip(mmap.a, at_b))
    return ReducedFactorParams(c=c, d=d, sign=sign)


def conformality_check(
    domain: SpaceFormModel, target: SpaceFormModel, mmap: MobiusMap, x: Vector
) -> bool:
    """Exact check of phi^* h = lambda^2 g at a point from the closed Jacobian.

    With u = x - a and f = |u|^2 the chart expression of the map has Jacobian
    J = k A (eps = 0) or J = (k/f) A (I - 2 u u^T/f) (eps = 2).  The pullback
    condition reads rho(phi(x))^2 J^T J = lambda(x)^2 sigma(x)^2 I, with
    lambda read off ``factor_quadratic`` (the verdict's own factor) and phi(x)
    from ``apply_point``.  It is verified cross-multiplied on exact scalars,
    so no square root appears.
    """
    if not in_domain(domain, x):
        raise ChartDomainError(f"point outside the {domain.name} chart")
    y = apply_point(mmap, x)  # raises on the singular set x = a
    m = mmap.dim
    # rho^2 and sigma^2 as exact quotients: rho = 2/(1 + c|y|^2), sigma likewise.
    rho_num, rho_den = (
        (rational(2), 1 + target.curvature * sum(v * v for v in y))
        if target.curvature
        else (rational(1), rational(1))
    )
    if rho_den <= 0:
        raise ChartDomainError("image point outside the target chart")
    sig_num, sig_den = (
        (rational(2), 1 + domain.curvature * sum(v * v for v in x))
        if domain.curvature
        else (rational(1), rational(1))
    )
    # lambda = kappa w den / Q(u), with w = 1/sigma the domain chart weight
    fq = factor_quadratic(target, mmap)
    u = [xi - ai for xi, ai in zip(x, mmap.a)]
    f = sum(v * v for v in u)
    Q = fq.value + 2 * sum(g * v for g, v in zip(fq.linear, u)) + fq.square * f
    lam = fq.kappa * fq.den * sig_den / (sig_num * Q)
    N, D = mmap.A_integers
    kD = rational(mmap.k, D)
    if mmap.epsilon == 0:
        jac = [[kD * v for v in row] for row in N]  # jac[i][j] = d phi_i / d x_j
    else:
        # (k/f) A (I - 2 u u^T/f) = (k/(D f^2)) N (f I - 2 u u^T), A = N/D
        Nu = [sum(map(operator.mul, row, u)) for row in N]
        c = kD / (f * f)
        jac = [[c * (f * N[i][j] - 2 * Nu[i] * u[j]) for j in range(m)] for i in range(m)]
    # rho^2 * (J^T J)_{pq} * sig_den^2 == lam^2 * sig_num^2 * rho_den^2 * delta_{pq}
    lhs_scale = rho_num * rho_num * sig_den * sig_den
    rhs_scale = lam * lam * sig_num * sig_num * rho_den * rho_den
    for p in range(m):
        for q in range(m):
            entry = sum(jac[i][p] * jac[i][q] for i in range(m))
            want = rhs_scale if p == q else 0
            if lhs_scale * entry != want:
                return False
    return True
