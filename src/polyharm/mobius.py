"""The conformal map family between space-form charts and its factors.

Maps have the inversive form

    phi(x) = b + k A (x - a) / |x - a|^eps,     eps in {0, 2},  A orthogonal,

which by Liouville's rigidity exhausts conformal maps between flat charts in
dimension >= 3.  Between curved charts the same formula is read through the
chart identifications; the conformal factor picks up the chart weights:

    lambda(x) = rho(phi(x)) * lambda_E(x) / sigma(x),

with lambda_E = k (eps = 0) or k/|x-a|^2 (eps = 2) the flat-to-flat factor,
sigma the domain chart factor and rho(y) = 2/(1 + c2 |y|^2) the target one.
Because |A u| = |u| for orthogonal A, the target weight needs no map
components: with u = x - a and f = |u|^2,

    |phi|^2 = |b|^2 + (2k <A^T b, u> + k^2) / f     (eps = 2),
    |phi|^2 = |b|^2 + 2k <A^T b, u> + k^2 f         (eps = 0),

where <A^T b, u> is linear and f a quadratic.  The identity holds only for
exactly orthogonal A, which ``validate`` certifies for every ``MobiusMap``
as it is constructed, on integers: a map holds A only as A = N/D, integer
rows N over one positive D (``A_integers``), and the check is
N^T N == D^2 I (``is_orthogonal_integers``).  Maps and instances are
validated named tuples: drawn and configured maps alike, and every
``_replace``, copy and pickle, reach the one constructor, so no map skips
the check.  It makes every factor of the family a quotient lambda = P/Q
of two isotropic quadratics, which ``factor_quadratic`` reads off the
integers of the map parameters once per instance
(``ConformalInstance.factor``); the residual kernel of
:mod:`polyharm.residuals` works from that quotient alone.  It is the one
route to the factor in the package.  ``conformality_check`` tests it
against the map itself: the closed Jacobian of phi and the target weight at
phi(x) from ``apply_point``, the one map-application route.
For curved targets lambda collapses to the closed forms

    2c * w(x) / (s*c^2 + |x - d|^2),    s = +1 sphere target, -1 hyperbolic,

with w = 1/sigma and (c, d) rational functions of the map parameters; those
reduced parameters are what the classification arguments manipulate, and
``reduced_parameters`` provides them as an independent cross-check of the
quotient.

Everything here is exact: A is integers over one denominator (drawn maps
take signed permutations and Cayley transforms of rational skew matrices),
so A^T A = I holds with no rounding and residuals downstream stay exactly
zero where they should.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import NamedTuple

from . import spaceform
from .errors import ChartDomainError, MapValidationError, SingularDivisionError
from .rationals import integer_vector, rational
from .spaceform import SpaceFormModel

Matrix = tuple  # tuple of row tuples
Vector = tuple


# -- exact integer matrix helpers --------------------------------------------


def signed_permutation_integers(perm, signs=None) -> list:
    """Integer rows of the orthogonal matrix sending e_j to signs[j] * e_perm[j];
    every entry is an int (``True == 1`` would pass as a sign)."""
    m = len(perm)
    signs = signs if signs is not None else [1] * m
    if {*map(type, perm), *map(type, signs)} - {int}:
        raise MapValidationError("permutation and sign entries must be integers")
    if sorted(perm) != list(range(m)):
        raise MapValidationError(f"{perm!r} is not a permutation of 0..{m - 1}")
    if len(signs) != m or any(s not in (-1, 1) for s in signs):
        raise MapValidationError(f"signs must be {m} entries +1 or -1")
    rows = [[0] * m for _ in range(m)]
    for j in range(m):
        rows[perm[j]][j] = signs[j]
    return rows


def integer_matrix(A: Matrix) -> tuple[list, int]:
    """(N, D) with A = N/D: D the lcm of the denominators, N integer."""
    flat, D = integer_vector([v for row in A for v in row])
    entries = iter(flat)
    return [[next(entries) for _ in row] for row in A], D


def is_orthogonal_integers(N, D: int) -> bool:
    """A = N/D is orthogonal: N^T N == D^2 I, decided on the integers in
    O(m^3).  The one orthogonality check every map passes."""
    cols = list(zip(*N))
    D2 = D * D
    return all(
        sum(map(operator.mul, ci, cols[j])) == (D2 if i == j else 0)
        for i, ci in enumerate(cols)
        for j in range(i, len(cols))
    )


def cayley_integers(S: Matrix) -> tuple[list, int]:
    """(N, D) with N/D = (I - S)^-1 (I + S) for rational skew-symmetric S,
    as ``integer_matrix`` gives it: exactly orthogonal.

    The transform covers rotations with no -1 eigenvalue (det = +1); signed
    permutations supply the det = -1 cases needed by the tests.
    """
    m = len(S)
    for i in range(m):
        for j in range(m):
            if S[i][j] != -S[j][i]:
                raise MapValidationError("Cayley input must be skew-symmetric")
    return cayley_bareiss(*integer_matrix(S))


def cayley_bareiss(N, d: int) -> tuple[list, int]:
    """The Cayley transform of the skew matrix S = N/d (N integer, d > 0) as
    (N', D): N'/D = (I - S)^-1 (I + S), D the lcm of its denominators, so the
    pair does not depend on which d represents S."""
    m = len(N)
    # Solve (dI - N) X = dI + N by fraction-free Gauss-Jordan
    # elimination (Bareiss): every division is exact, and at the end the left
    # block is det I and the right block det X, all integers.
    rows = [
        [(d if i == j else 0) - N[i][j] for j in range(m)]
        + [(d if i == j else 0) + N[i][j] for j in range(m)]
        for i in range(m)
    ]
    prev = 1
    for k in range(m):
        pivot = rows[k][k]
        if not pivot:
            # the leading minors of dI - N are those of d I minus a skew
            # matrix, all positive, so no pivot vanishes for valid input
            raise MapValidationError("matrix is singular")
        for i in range(m):
            if i != k:
                r, f = rows[i], rows[i][k]
                rows[i] = [(pivot * v - f * w) // prev for v, w in zip(r, rows[k])]
        prev = pivot
    # X = right block / det, det = prev = det(dI - N) > 0, the last leading
    # minor; one gcd brings det to the lcm of the denominators of X
    g = math.gcd(prev, *(v for row in rows for v in row[m:]))
    return [[v // g for v in row[m:]] for row in rows], prev // g


# -- the map family ----------------------------------------------------------


class _Map(NamedTuple):
    a: Vector
    b: Vector
    k: object
    A_integers: tuple
    epsilon: int


class MobiusMap(_Map):
    """Parameters (a, b, k, A, eps) of the inversive conformal family, with
    A held once, as integers: ``A_integers`` = (A_num, A_den), A = A_num /
    A_den, A_num a tuple of integer row tuples and A_den > 0, reduced by
    their one gcd.

    A named tuple of tuples whose every construction validates: the
    constructor, ``_make`` (so ``_replace``), and copies and pickles at every
    protocol, which ``__reduce_ex__`` sends through the constructor.  So the
    kernels can rely on A being the exactly orthogonal matrix ``validate``
    certified.  Equality and hash are by fields; the gcd reduction makes
    (2N, 2D) the map (N, D) is.
    """

    __slots__ = ()

    def __new__(cls, a: Vector, b: Vector, k, A_integers, epsilon: int):
        N, D = A_integers
        N = tuple(map(tuple, N))
        mmap = validate(super().__new__(cls, tuple(a), tuple(b), k, (N, D), epsilon))
        # validated, so N and D are ints and D > 0: reduce by their one gcd
        g = math.gcd(D, *itertools.chain.from_iterable(N))
        if g == 1:
            return mmap
        N = tuple(tuple(v // g for v in row) for row in N)
        return super().__new__(cls, mmap.a, mmap.b, k, (N, D // g), epsilon)

    _make = classmethod(lambda cls, fields: cls(*fields))
    __reduce_ex__ = spaceform._reduce_through_constructor

    @property
    def dim(self) -> int:
        return len(self.a)

    @classmethod
    def build(cls, a, b, k, A=None, epsilon=2) -> "MobiusMap":
        """Read entries as exact rationals, A (the identity when None) as its
        integers by ``integer_matrix``; construction validates every field."""
        a = tuple(rational(v) for v in a)
        b = tuple(rational(v) for v in b)
        if A is None:
            A_integers = signed_permutation_integers(range(len(a))), 1
        else:
            A_integers = integer_matrix([[rational(v) for v in row] for row in A])
        return cls(a, b, rational(k), A_integers, epsilon)

    @classmethod
    def inversion(cls, dim: int) -> "MobiusMap":
        """x -> x / |x|^2, the inversion in the unit sphere."""
        zero = tuple(rational(0) for _ in range(dim))
        return cls.build(a=zero, b=zero, k=1, epsilon=2)


def validate(mmap: MobiusMap) -> MobiusMap:
    """Check the family invariants; returns the map or raises.  Entries of
    a, b and k have type int or Fraction (a bool is neither), those of
    A_integers type int, and A is checked by ``is_orthogonal_integers`` on
    the map's own integers."""
    m = mmap.dim
    N, D = mmap.A_integers
    if len(mmap.b) != m or len(N) != m or any(len(r) != m for r in N):
        raise MapValidationError("parameter dimensions disagree")
    if not {*map(type, mmap.a), *map(type, mmap.b), type(mmap.k)} <= {int, Fraction}:
        raise MapValidationError("entries of a, b and k must be ints or Fractions")
    if {type(D), *map(type, itertools.chain.from_iterable(N))} != {int}:
        raise MapValidationError("A_integers must hold ints")
    if type(mmap.epsilon) is not int or mmap.epsilon not in (0, 2):
        raise MapValidationError(f"epsilon must be the integer 0 or 2, got {mmap.epsilon!r}")
    if not mmap.k:
        raise MapValidationError("scale k must be nonzero")
    if not (D > 0 and is_orthogonal_integers(N, D)):
        raise MapValidationError("A is not exactly orthogonal")
    return mmap


class ReducedFactorParams(NamedTuple):
    """Center d, scale c and denominator sign of a curved-target factor.

    The factor of the map into the sphere (sign +1) or ball (sign -1) chart is
    2c * w_domain(x) / (sign * c^2 + |x - d|^2).
    """

    c: object
    d: Vector
    sign: int


class FactorQuadratic(NamedTuple):
    """The factor as lambda(x) = kappa * w(x) * den / Q(x - a), in integers.

    w = 1/sigma is the domain chart weight (1 flat, (1 + c1 |x|^2)/2 curved) and
    Q(u) = value + 2 <linear, u> + square |u|^2 an isotropic quadratic with
    integer coefficients, a = a_num / a_den.  See :func:`factor_quadratic`.
    """

    kappa: object
    a_num: tuple
    a_den: int
    value: int
    linear: tuple
    square: int
    den: int


def factor_quadratic(target: SpaceFormModel, mmap: MobiusMap) -> FactorQuadratic:
    """lambda = P/Q for this map, read off the map's own parameters.

    P = kappa * w with kappa = k (flat target) or 2k (curved target).  With
    u = x - a, alpha = 1 + c2 |b|^2 and g = c2 k A^T b, the identity for |phi|^2
    of the module docstring gives Q(u) = q0 + 2 <g, u> + s |u|^2 where

        eps = 2:  q0 = c2 k^2,  s = alpha    (Q = |u|^2 on a flat target)
        eps = 0:  q0 = alpha,   s = c2 k^2   (Q = 1 on a flat target)

    so on a curved target Q = |u|^2 (1 + c2 |phi|^2) for eps = 2 and
    Q = 1 + c2 |phi|^2 for eps = 0.  The reduced parameters are not used, so
    ``reduced_parameters`` stays an independent route.  alpha = 0, exactly
    when c2 = -1 and |b| = 1, leaves the reduced factor undefined and is
    refused here, the one such check on the verdict path.
    """
    c2 = target.curvature
    k = mmap.k
    kappa = 2 * k if c2 else k
    # alpha, c2 k^2 and g as integer numerators over E = kd^2 d_b^2 D, with
    # A = N/D, b = B/d_b and k = kn/kd; one gcd reduces them, and E over it
    # is the lcm of the reduced denominators
    N, D = mmap.A_integers
    B, d_b = integer_vector(mmap.b)
    kn, kd = k.numerator, k.denominator
    db2, kd2 = d_b * d_b, kd * kd
    alpha = (db2 + c2 * sum(v * v for v in B)) * kd2 * D
    if not alpha:
        raise MapValidationError(
            "|b| = 1 with a hyperbolic target leaves the reduced factor undefined"
        )
    ck2 = c2 * kn * kn * db2 * D
    gk = c2 * kn * kd * d_b
    g = [gk * sum(map(operator.mul, col, B)) for col in zip(*N)]
    q0, s = (ck2, alpha) if mmap.epsilon == 2 else (alpha, ck2)
    E = kd2 * db2 * D
    h = math.gcd(E, q0, s, *g)
    a_num, a_den = integer_vector(mmap.a)
    return FactorQuadratic(
        kappa=kappa,
        a_num=tuple(a_num),
        a_den=a_den,
        value=q0 // h,
        linear=tuple(v // h for v in g),
        square=s // h,
        den=E // h,
    )


class _Instance(NamedTuple):
    domain: SpaceFormModel
    target: SpaceFormModel
    map: MobiusMap
    factor: FactorQuadratic


class ConformalInstance(_Instance):
    """A validated (domain, target, map) triple of equal dimension, and the
    ``factor_quadratic`` of its map, built once as a fourth field.  A named
    tuple whose ``_make`` (so ``_replace``) and ``__getnewargs__`` (copies,
    pickles) hand the constructor only (domain, target, map): no route pairs
    a map with another map's factor.
    """

    __slots__ = ()

    def __new__(cls, domain: SpaceFormModel, target: SpaceFormModel, map: MobiusMap):
        if not (domain.dim == target.dim == map.dim):
            raise MapValidationError("domain, target, and map dimensions must agree")
        return super().__new__(cls, domain, target, map, factor_quadratic(target, map))

    # the factor is never taken from the caller: _replace(factor=...) is refused
    _make = classmethod(lambda cls, fields: cls(*itertools.islice(fields, 3)))
    __reduce_ex__ = spaceform._reduce_through_constructor

    def __getnewargs__(self):
        return self[:3]

    @property
    def dim(self) -> int:
        return self.domain.dim


# -- evaluation ---------------------------------------------------------------


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
    if not spaceform.in_domain(domain, x):
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
