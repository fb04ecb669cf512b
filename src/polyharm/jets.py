"""Truncated multivariate Taylor arithmetic (jets) over exact rationals.

A jet of dimension m and truncation degree D at a base point x0 stores the
dense coefficient table

    c_beta = (d^beta f)(x0) / beta!        for every multi-index |beta| <= D,

so a jet has exactly C(m + D, D) entries.  Ring operations never exceed
degree D: multiplication is the truncated Cauchy product, division is the
triangular solve of q * b = a in graded order (valid whenever b(x0) != 0).
A jet takes the scalar type of its base point: exact when no coordinate is a
float, and then every coefficient is an arbitrary-precision rational and all
identities below hold with zero rounding.

Multi-indices live in graded lexicographic order: ascending total degree,
ties broken by ascending lexicographic comparison of the exponent tuple.
A key observation used throughout is that the first C(m + d, d) positions of
a degree-D table are exactly the degree-<=d prefix, so truncation is a slice.

Sign convention: ``Jet.laplacian`` is the analyst's flat Laplacian sum of
second partials.  Curved-metric operators live in ``tests/jet_oracles.py``
(jet form) and in :class:`polyharm.residuals.ConformalGeometry` (integers).

No verdict is computed on jets: both residual paths run integer kernels
(:mod:`polyharm.residuals`), and the dense jet route is the reference the
tests compare those kernels with.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .errors import DegreeError, ShapeMismatchError, SingularDivisionError
from .rationals import rational, scalar_of

MultiIndex = tuple  # exponent tuple (beta_1, ..., beta_m), all entries >= 0


def coerce(value, scalar: type):
    """Convert a number into ``scalar``, ``float`` or ``Fraction``; an exact
    value refuses floats, as :func:`~polyharm.rationals.rational` does."""
    return float(value) if scalar is float else rational(value)


def _of_total(nvars: int, total: int):
    """Exponent tuples over ``nvars`` variables summing to ``total``, lex ascending."""
    if nvars == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _of_total(nvars - 1, total - first):
            yield (first,) + rest


class JetSpace:
    """Shared index tables for jets of a fixed (dimension, degree) pair.

    Each multi-index has the packed key sum_i beta_i * B^(m-1-i) + |beta| * B^m
    with B = degree + 1.  Keys grow with the graded-lex position and are
    additive, key(alpha + beta) = key(alpha) + key(beta), so one
    ``{key: position}`` dict answers every shifted lookup.
    """

    _cache: dict[tuple[int, int], "JetSpace"] = {}

    def __init__(self, dim: int, degree: int):
        if dim < 1:
            raise ShapeMismatchError("jet dimension must be >= 1")
        if degree < 0:
            raise DegreeError("truncation degree must be >= 0")
        base = degree + 1
        self.dim = dim
        self.degree = degree
        # key of each unit multi-index e_i
        self._unit_keys = [base ** (dim - 1 - i) + base**dim for i in range(dim)]
        self.exponents = [beta for d in range(degree + 1) for beta in _of_total(dim, d)]
        self.keys = [self._key_of(beta) for beta in self.exponents]
        self._pos = {k: p for p, k in enumerate(self.keys)}
        self.size = len(self.keys)
        # position of the first multi-index of each total degree
        self.degree_offsets = [math.comb(dim + d - 1, dim) if d > 0 else 0 for d in range(degree + 2)]
        self.degree_offsets[degree + 1] = self.size
        self._downshift: dict[tuple, list[int]] = {}
        self._diff_tables: dict[tuple[int, int], tuple[list, list]] = {}
        self._iterlap: dict[int, list[tuple[int, int]]] = {}

    @classmethod
    def get(cls, dim: int, degree: int) -> "JetSpace":
        space = cls._cache.get((dim, degree))
        if space is None:
            space = cls(dim, degree)
            cls._cache[(dim, degree)] = space
        return space

    # -- position lookups ---------------------------------------------------

    def _key_of(self, beta: Sequence[int]) -> int:
        return sum(b * k for b, k in zip(beta, self._unit_keys))

    def position(self, beta: Sequence[int]) -> int:
        """Graded-lex position of a multi-index (must lie in the table)."""
        p = self._pos.get(self._key_of(beta))
        if p is None:
            raise DegreeError(f"multi-index {tuple(beta)} outside degree-{self.degree} table")
        return p

    def exponent(self, pos: int) -> MultiIndex:
        return self.exponents[pos]

    def end_of_degree(self, d: int) -> int:
        """Position one past the last multi-index of total degree d."""
        return self.degree_offsets[min(d, self.degree) + 1]

    def grad_positions(self) -> list[int]:
        """Positions of the unit multi-indices e_i."""
        return [self._pos[k] for k in self._unit_keys]

    def square_positions(self) -> list[int]:
        """Positions of the pure second-degree multi-indices 2 e_i."""
        return [self._pos[2 * k] for k in self._unit_keys]

    # -- shift tables -------------------------------------------------------

    def downshift(self, beta: MultiIndex) -> list[int]:
        """positions[p] of (exponent(p) - beta), or -1 where that is negative."""
        tab = self._downshift.get(beta)
        if tab is None:
            kb = self._key_of(beta)
            tab = [
                self._pos[k - kb] if all(e >= b for e, b in zip(exps, beta)) else -1
                for exps, k in zip(self.exponents, self.keys)
            ]
            self._downshift[beta] = tab
        return tab

    def diff_table(self, axis: int, order: int) -> tuple[list, list]:
        """Source positions and integer weights for d^order/dx_axis^order.

        Row p of the degree-(D - order) result pulls from the source position
        of exponent(p) + order*e_axis with weight (beta+1)...(beta+order).
        """
        key = (axis, order)
        tab = self._diff_tables.get(key)
        if tab is None:
            nres = self.end_of_degree(self.degree - order)
            shift = order * self._unit_keys[axis]
            src = [self._pos[k + shift] for k in self.keys[:nres]]
            w = [math.prod(range(b[axis] + 1, b[axis] + order + 1)) for b in self.exponents[:nres]]
            tab = (src, w)
            self._diff_tables[key] = tab
        return tab

    def iterlap_targets(self, order: int) -> list[tuple[int, int]]:
        """Positions and integer weights for the k-fold Laplacian at the base.

        Delta^k f(x0) = sum over |gamma| = k of  k!/gamma! * (2gamma)! * c_{2gamma}.
        """
        targets = self._iterlap.get(order)
        if targets is None:
            targets = []
            for g in _of_total(self.dim, order):
                tau = tuple(2 * v for v in g)
                w = math.factorial(order)
                for v in g:
                    w //= math.factorial(v)
                for v in tau:
                    w *= math.factorial(v)
                targets.append((self.position(tau), w))
            self._iterlap[order] = targets
        return targets


def multi_indices(m: int, D: int) -> list[MultiIndex]:
    """All multi-indices with |beta| <= D in graded lexicographic order."""
    return list(JetSpace.get(m, D).exponents)


class Jet:
    """Immutable truncated Taylor expansion at a fixed base point.

    Jets are value objects: operations return new jets and never mutate
    operands, so evaluation at many sample points is trivially parallel.
    ``scalar`` is the type of the base point's coordinates, ``Fraction`` or
    ``float``, and of every coefficient.
    """

    __slots__ = ("space", "scalar", "base", "coeffs")

    def __init__(self, space: JetSpace, base: tuple, coeffs: list):
        self.space = space
        self.scalar = scalar_of(base)
        self.base = base
        self.coeffs = coeffs

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, value, dim: int, degree: int, base: tuple) -> "Jet":
        space = JetSpace.get(dim, degree)
        scalar = scalar_of(base)
        coeffs = [scalar(0)] * space.size
        coeffs[0] = coerce(value, scalar)
        return cls(space, base, coeffs)

    def constant_like(self, value) -> "Jet":
        return Jet.constant(value, self.space.dim, self.space.degree, self.base)

    def zero_like(self) -> "Jet":
        return Jet.constant(0, self.space.dim, self.space.degree, self.base)

    # -- basic views ----------------------------------------------------

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def degree(self) -> int:
        return self.space.degree

    def value(self):
        """f(x0), the degree-0 coefficient."""
        return self.coeffs[0]

    def gradient(self) -> tuple:
        if self.degree < 1:
            raise DegreeError("gradient needs degree >= 1")
        return tuple(self.coeffs[p] for p in self.space.grad_positions())

    def coefficient(self, beta: Sequence[int]):
        return self.coeffs[self.space.position(tuple(beta))]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def truncate(self, degree: int) -> "Jet":
        if degree >= self.degree:
            return self
        space = JetSpace.get(self.dim, degree)
        return Jet(space, self.base, self.coeffs[: space.size])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Jet):
            return NotImplemented
        return (
            self.space is other.space
            and self.scalar is other.scalar
            and self.base == other.base
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"Jet(m={self.dim}, D={self.degree}, f(x0)={self.coeffs[0]})"

    # -- ring operations --------------------------------------------------

    def _check_compatible(self, other: "Jet") -> None:
        if self.dim != other.dim:
            raise ShapeMismatchError(f"dimension mismatch: {self.dim} vs {other.dim}")
        if self.scalar is not other.scalar:
            raise ShapeMismatchError(
                f"scalar mismatch: {self.scalar.__name__} vs {other.scalar.__name__}"
            )
        if self.base != other.base:
            raise ShapeMismatchError("jets have different base points")

    def _aligned(self, other: "Jet") -> tuple["Jet", "Jet"]:
        self._check_compatible(other)
        d = min(self.degree, other.degree)
        return self.truncate(d), other.truncate(d)

    def __add__(self, other):
        if not isinstance(other, Jet):
            return self._scalar_shift(other)
        a, b = self._aligned(other)
        return Jet(a.space, a.base, [x + y if y else x for x, y in zip(a.coeffs, b.coeffs)])

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        if not isinstance(other, Jet):
            return self._scalar_shift(-coerce(other, self.scalar))
        a, b = self._aligned(other)
        return Jet(a.space, a.base, [x - y if y else x for x, y in zip(a.coeffs, b.coeffs)])

    def __rsub__(self, other):
        return (-self)._scalar_shift(other)

    def __neg__(self):
        return Jet(self.space, self.base, [-c for c in self.coeffs])

    def _scalar_shift(self, value) -> "Jet":
        coeffs = list(self.coeffs)
        coeffs[0] = coeffs[0] + coerce(value, self.scalar)
        return Jet(self.space, self.base, coeffs)

    def scale(self, value) -> "Jet":
        s = coerce(value, self.scalar)
        return Jet(self.space, self.base, [s * c if c else c for c in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return self.scale(other)
        a, b = self._aligned(other)
        space = a.space
        keys, pos = space.keys, space._pos
        an = sum(1 for c in a.coeffs if c)
        bn = sum(1 for c in b.coeffs if c)
        outer, inner = (a, b) if an <= bn else (b, a)
        inner_nz = [(keys[q], c) for q, c in enumerate(inner.coeffs) if c]
        res = [a.scalar(0)] * space.size
        for p, c in enumerate(outer.coeffs):
            if not c:
                continue
            kp = keys[p]
            for kq, cq in inner_nz:
                # keys ascend with the inner position, so the first sum of
                # degree above D (a key outside the table) ends the row
                t = pos.get(kp + kq)
                if t is None:
                    break
                res[t] = res[t] + c * cq
        return Jet(space, a.base, res)

    def __rmul__(self, other):
        return self.scale(other)

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return self.scale(self.scalar(1) / coerce(other, self.scalar))
        a, b = self._aligned(other)
        return _divide(a, b)

    def __rtruediv__(self, other):
        return self.constant_like(other) / self

    # -- differential operators -------------------------------------------

    def partial(self, axis: int) -> "Jet":
        if self.degree < 1:
            raise DegreeError("partial derivative needs degree >= 1")
        if not 0 <= axis < self.dim:
            raise ShapeMismatchError(f"axis {axis} out of range for dimension {self.dim}")
        src, w = self.space.diff_table(axis, 1)
        out_space = JetSpace.get(self.dim, self.degree - 1)
        coeffs = self.coeffs
        res = [self.scalar(0)] * out_space.size
        for p in range(out_space.size):
            c = coeffs[src[p]]
            if c:
                res[p] = w[p] * c
        return Jet(out_space, self.base, res)

    def laplacian(self) -> "Jet":
        if self.degree < 2:
            raise DegreeError("laplacian needs degree >= 2")
        out_space = JetSpace.get(self.dim, self.degree - 2)
        res = [self.scalar(0)] * out_space.size
        coeffs = self.coeffs
        for i in range(self.dim):
            src, w = self.space.diff_table(i, 2)
            for p in range(out_space.size):
                c = coeffs[src[p]]
                if c:
                    res[p] = res[p] + w[p] * c
        return Jet(out_space, self.base, res)


def _divide(a: Jet, b: Jet) -> Jet:
    """Triangular solve of q * b = a in graded order; needs b(x0) != 0."""
    b0 = b.coeffs[0]
    if not b0:
        raise SingularDivisionError("division by a jet vanishing at the base point")
    space = a.space
    inv_b0 = a.scalar(1) / b0
    supp = [
        (c, space.downshift(space.exponent(p)))
        for p, c in enumerate(b.coeffs)
        if p > 0 and c
    ]
    zero = a.scalar(0)
    acoef = a.coeffs
    q = [zero] * space.size
    q[0] = acoef[0] * inv_b0
    for p in range(1, space.size):
        acc = acoef[p]
        for coef, tab in supp:
            t = tab[p]
            if t >= 0:
                qt = q[t]
                if qt:
                    acc = acc - coef * qt
        if acc:
            q[p] = acc * inv_b0
    return Jet(space, a.base, q)


# -- module-level operations (the public algebra surface) -------------------


def seed(x0: Sequence, degree: int) -> tuple[Jet, ...]:
    """Coordinate jets at x0: the i-th jet represents the function x -> x_i.

    The jets are float when any coordinate of x0 is, exact otherwise.
    """
    if degree < 0:
        raise DegreeError("degree must be >= 0")
    scalar = scalar_of(x0)
    pt = tuple(coerce(v, scalar) for v in x0)
    m = len(pt)
    if m < 1:
        raise ShapeMismatchError("base point needs at least one coordinate")
    space = JetSpace.get(m, degree)
    jets = []
    for i in range(m):
        coeffs = [scalar(0)] * space.size
        coeffs[0] = pt[i]
        if degree >= 1:
            coeffs[space.grad_positions()[i]] = scalar(1)
        jets.append(Jet(space, pt, coeffs))
    return tuple(jets)


def iterated_laplacian(j: Jet, order: int):
    """Value of Delta^order f at the base point; needs degree >= 2*order."""
    if order < 0:
        raise DegreeError("order must be >= 0")
    if order == 0:
        return j.value()
    if j.degree < 2 * order:
        raise DegreeError(f"degree {j.degree} insufficient for Delta^{order}")
    total = j.scalar(0)
    coeffs = j.coeffs
    for pos, w in j.space.iterlap_targets(order):
        c = coeffs[pos]
        if c:
            total = total + w * c
    return total


def dot(a: Iterable[Jet], b: Iterable[Jet]) -> Jet:
    """Euclidean inner product of two jet tuples."""
    terms = [x * y for x, y in zip(a, b)]
    out = terms[0]
    for t in terms[1:]:
        out = out + t
    return out


def norm_sq(a: Iterable[Jet]) -> Jet:
    """Sum of squares of a jet tuple."""
    return dot(a, a)


def quadratic(like: Jet, value, linear: Sequence, square=0) -> Jet:
    """Jet of value + <linear, h> + square * |h|^2 in the displacement h = x - x0.

    Written straight into its 1 + 2m possible nonzero coefficients, with no
    products; terms above the truncation degree of ``like`` are dropped.
    """
    space, scalar = like.space, like.scalar
    coeffs = [scalar(0)] * space.size
    coeffs[0] = coerce(value, scalar)
    if space.degree >= 1:
        for p, v in zip(space.grad_positions(), linear):
            coeffs[p] = coerce(v, scalar)
    if space.degree >= 2 and square:
        s = coerce(square, scalar)
        for p in space.square_positions():
            coeffs[p] = s
    return Jet(space, like.base, coeffs)


def polynomial(coeff_map: dict, like: Jet) -> Jet:
    """Jet with prescribed coefficients (helper for tests and closed forms)."""
    coeffs = [like.scalar(0)] * like.space.size
    for beta, c in coeff_map.items():
        coeffs[like.space.position(tuple(beta))] = coerce(c, like.scalar)
    return Jet(like.space, like.base, coeffs)
