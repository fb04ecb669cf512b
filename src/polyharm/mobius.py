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
N^T N == D^2 I (``is_orthogonal_integers``).  It holds a and b the same
way, integer numerators over one positive denominator each (``a_integers``,
``b_integers``), and k as one rational; ``MobiusMap.build`` is the route
from rationals.  Maps and instances are validated named tuples: drawn and
configured maps alike, and every ``_replace``, copy and pickle, reach the
one constructor, so no map skips the check.  It makes every factor of the
family a quotient lambda = P/Q of two isotropic quadratics, which
``factor_quadratic`` reads off the integers of the map parameters once per
instance (``ConformalInstance.factor``), with no denominator left to clear;
the residual kernel of :mod:`polyharm.residuals` works from that quotient
alone.  It is the one
route to the factor in the package, and no verdict forms phi(x).  The
tests check the quotient against the map itself (the closed Jacobian of phi
and the target weight at phi(x)) and against the closed forms

    2c * w(x) / (s*c^2 + |x - d|^2),    s = +1 sphere target, -1 hyperbolic,

that lambda collapses to on curved targets, with w = 1/sigma and (c, d)
rational functions of the map parameters, the reduced parameters the
classification arguments manipulate.

Everything here is exact: a, b and A are integers over one denominator each
(drawn maps take signed permutations and Cayley transforms of rational skew
matrices for A), so A^T A = I holds with no rounding and residuals
downstream stay exactly zero where they should.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import NamedTuple

from . import spaceform
from .errors import MapValidationError
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
    if any(len(row) != m for row in S):
        raise MapValidationError(f"Cayley input must be square: {m} rows of lengths {[len(row) for row in S]}")
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
        # a leading minor of dI - N, d I minus a skew matrix: positive
        pivot = rows[k][k]
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
    a_integers: tuple
    b_integers: tuple
    k: object
    A_integers: tuple
    epsilon: int


def _reduced(N: tuple, D: int) -> tuple:
    """(N, D) divided by their one gcd: the canonical integers of N / D."""
    g = math.gcd(D, *N)
    return (N, D) if g == 1 else (tuple(v // g for v in N), D // g)


class MobiusMap(_Map):
    """Parameters (a, b, k, A, eps) of the inversive conformal family, with
    a, b and A held once, as integers over one positive denominator each:
    ``a_integers`` = (a_num, a_den) with a = a_num / a_den, ``b_integers``
    likewise, and ``A_integers`` = (A_num, A_den), A_num a tuple of integer
    row tuples; each pair is reduced by its one gcd.  k is one rational.

    A named tuple of tuples whose every construction validates: the
    constructor, ``_make`` (so ``_replace``), and copies and pickles at every
    protocol, which ``__reduce_ex__`` sends through the constructor.  So the
    kernels can rely on A being the exactly orthogonal matrix ``validate``
    certified.  Equality and hash are by fields; the gcd reduction makes
    (2N, 2D) the map (N, D) is, for a, b and A alike.
    """

    __slots__ = ()

    def __new__(cls, a_integers, b_integers, k, A_integers, epsilon: int):
        try:
            (a, a_den), (b, b_den), (N, D) = a_integers, b_integers, A_integers
            a, b, N = tuple(a), tuple(b), tuple(map(tuple, N))
        except (TypeError, ValueError):
            raise MapValidationError("a, b and A must each be (numerators, denominator)") from None
        validate(super().__new__(cls, (a, a_den), (b, b_den), k, (N, D), epsilon))
        # validated, so every entry is an int and every denominator > 0:
        # reduce each pair by its one gcd
        g = math.gcd(D, *itertools.chain.from_iterable(N))
        if g != 1:
            N, D = tuple(tuple(v // g for v in row) for row in N), D // g
        return super().__new__(cls, _reduced(a, a_den), _reduced(b, b_den), k, (N, D), epsilon)

    _make = classmethod(lambda cls, fields: cls(*fields))
    __reduce_ex__ = spaceform._reduce_through_constructor

    @property
    def dim(self) -> int:
        return len(self.a_integers[0])

    @property
    def a(self) -> Vector:
        """a as rationals, for readers outside the kernels."""
        N, D = self.a_integers
        return tuple(Fraction(v, D) for v in N)

    @property
    def b(self) -> Vector:
        """b as rationals, for readers outside the kernels."""
        N, D = self.b_integers
        return tuple(Fraction(v, D) for v in N)

    @classmethod
    def build(cls, a, b, k, A=None, epsilon=2) -> "MobiusMap":
        """Read entries as exact rationals, a and b as their integers by
        ``integer_vector`` and A (the identity when None) by
        ``integer_matrix``; construction validates every field."""
        a_integers = integer_vector([rational(v) for v in a])
        b_integers = integer_vector([rational(v) for v in b])
        if A is None:
            A_integers = signed_permutation_integers(range(len(a))), 1
        else:
            A_integers = integer_matrix([[rational(v) for v in row] for row in A])
        return cls(a_integers, b_integers, rational(k), A_integers, epsilon)

    @classmethod
    def inversion(cls, dim: int) -> "MobiusMap":
        """x -> x / |x|^2, the inversion in the unit sphere."""
        return cls.build(a=(0,) * dim, b=(0,) * dim, k=1, epsilon=2)


def validate(mmap: MobiusMap) -> MobiusMap:
    """Check the family invariants; returns the map or raises.  Every
    numerator and denominator of a, b and A has type int (a bool is not
    one) and every denominator is positive, k is an int or a Fraction, and
    A is checked by ``is_orthogonal_integers`` on the map's own integers."""
    m = mmap.dim
    (a, a_den), (b, b_den), (N, D) = mmap.a_integers, mmap.b_integers, mmap.A_integers
    if len(b) != m or len(N) != m or any(len(r) != m for r in N):
        raise MapValidationError("parameter dimensions disagree")
    entries = itertools.chain(a, b, (a_den, b_den, D), *N)
    if set(map(type, entries)) != {int}:
        raise MapValidationError("a_integers, b_integers and A_integers must hold ints")
    if type(mmap.k) not in (int, Fraction):
        raise MapValidationError("scale k must be an int or a Fraction")
    if type(mmap.epsilon) is not int or mmap.epsilon not in (0, 2):
        raise MapValidationError(f"epsilon must be the integer 0 or 2, got {mmap.epsilon!r}")
    if not mmap.k:
        raise MapValidationError("scale k must be nonzero")
    if not (a_den > 0 and b_den > 0):
        raise MapValidationError("the denominators of a and b must be positive")
    if not (D > 0 and is_orthogonal_integers(N, D)):
        raise MapValidationError("A is not exactly orthogonal")
    return mmap


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
    the tests' reduced-parameter closed form stays an independent route.
    alpha = 0, exactly when c2 = -1 and |b| = 1, leaves the reduced factor
    undefined and is refused here, the one such check on the verdict path.
    """
    c2 = target.curvature
    k = mmap.k
    kappa = 2 * k if c2 else k
    # alpha, c2 k^2 and g as integer numerators over E = kd^2 d_b^2 D, with
    # A = N/D, b = B/d_b and k = kn/kd; one gcd reduces them, and E over it
    # is the lcm of the reduced denominators
    N, D = mmap.A_integers
    B, d_b = mmap.b_integers
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
    a_num, a_den = mmap.a_integers
    return FactorQuadratic(
        kappa=kappa,
        a_num=a_num,
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
