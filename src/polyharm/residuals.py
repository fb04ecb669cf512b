"""Evaluators for every PDE and identity the classification rests on.

For a conformal map between space forms with factor lambda, curved domain
operators (bars) and domain/target curvatures c1/c2, the toolkit evaluates:

  CL   lapbar(lam) - [lam*Scal_M - lam^3*Scal_N]/(2(m-1))
                   + ((m-4)/(2 lam)) |gradbar lam|^2
       the conformal-factor constraint; identically zero for genuine factors
       and therefore a conservation law of the whole pipeline.

  SDL  lam gradbar lapbar lam - 3 (lapbar lam) gradbar lam
       - ((m-4)/2) gradbar |gradbar lam|^2 + 2 (m-1) c1 lam gradbar lam
       the fourth-order biharmonicity equation in gradient form; zero exactly
       when the conformal map is biharmonic (given CL holds).

  ND   2 gradbar(lam lapbar lam) - 4 (lapbar lam) gradbar lam
       + [2 m c2 lam^2 + (m-2) c1] lam gradbar lam

  ND2  (m-4) gradbar |gradbar lam|^2
       + [4 lapbar lam + (2-3m) c1 lam + 2 m c2 lam^3] gradbar lam
       two necessary conditions derived from SDL and CL.  Because CL vanishes
       identically, the three vector residuals are locked together pointwise:

           ND = SDL,   ND2 = -SDL,   and unconditionally ND - ND2 = 2 SDL,

       the last by the product rule and Ric = (m-1) c1 alone.  These exact
       identities are the pipeline's internal consistency check.

The Ricci term of SDL enters as the scalar (m-1) c1 since space forms have
Ric = (m-1) c g.

The module has two entry points: :func:`evaluate_residuals` gives the
``ConformalGeometry`` of one point, which forms CL, SDL, ND, ND2 and the
harmonicity flag each when it is first read, and
:func:`polyharmonic_orders` gives the terms of Delta^k phi for several
orders k at once.

Both paths run on Python ints and meet a rational once per output value
read.  An exact point arrives as a :class:`~polyharm.rationals.IntegerPoint`,
integer numerators N over one denominator den, which the sampler draws and
the kernels read as they are; a sequence of rationals is cleared to one
over the lcm of its denominators once, at the entry.  No coordinate is
formed as a rational on the way.
The biharmonic path also runs over doubles, every denominator 1, and takes
no mode: it is exact exactly when no coordinate of its point is a float.
The polyharmonic path is exact alone, as a cell is zero exactly when the
integer N_k below is: a float point is a TypeError.  Every zero flag is
:func:`vanishes` on the terms that cancel in its value, coefficient tuples
over one basis: exact, their sum is literally 0; float, its norm is at most
tol times the summed norms of the terms, so a zero scale admits only a zero
norm.  Terms that cancel are kept apart for that reason.

Biharmonic path.  Every factor of the family is lambda = P/Q: P = kappa w,
with w = 1/sigma the domain chart weight and kappa = k (flat target) or 2k
(curved target), and Q(u) = q0 + 2 <g, u> + s |u|^2 an isotropic quadratic in
u = x - a derived from the map (:func:`polyharm.mobius.factor_quadratic`),
with integer coefficients over its own den.  With x0 = N/den_x, the set-up
takes D = lcm(den_x, a_den), x0 = X/D and u0 = U/D straight from the point's
integers and those of a, and with h = x - x0, den D^2 Q(u0 + h) =
F + 2 G.h + S |h|^2 with integers F, G = D (D g + s U) den and S = s D^2 den,
and P = kappa (W + 2 c1 D X.h + c1 D^2 |h|^2) / (2 D^2).  The Taylor
coefficients of lambda are then lambda_beta = K L_beta / F^(|beta|+1) with

    L_beta = W N_beta + sum_(beta_i >= 1) P1_i N_(beta - e_i) + P2 sum_(beta_i >= 2) N_(beta - 2 e_i),
    N_0 = 1,   N_beta = -2 sum_i G_i N_(beta - e_i) - SF sum_i N_(beta - 2 e_i),

P1 = 2 c1 D F X, P2 = c1 D^2 F^2 and SF = S F: an integer recurrence,
fraction-free in the manner of Bareiss's elimination.  Through order 3 it
has closed forms (i != j): N_(e_i) = -2 G_i, N_(e_i + e_j) = 8 G_i G_j,
N_(2 e_i) = 4 G_i^2 - SF, N_(3 e_i) = (4 SF - 8 G_i^2) G_i and
N_(2 e_i + e_j) = (4 SF - 24 G_i^2) G_j.  With gamma = |G|^2 and pi = P1.G,
the gradient, Hessian and Laplacian (over F^2, F^3, F^3) and the gradient of
the Laplacian t_j = sum_i d_i^2 d_j lambda (over F^4) have the numerators

    g = (L_(e_i)) = P1 - 2 W G,
    H = ((1 + delta_ij) L_(e_i + e_j)) = 8 W G G^T - 2 (P1 G^T + G P1^T) + c0 I,
    lap = tr H = 8 W gamma - 4 pi + m c0,   c0 = 2 P2 - 2 W SF,
    t = 2 sum_(i != j) L_(2 e_i + e_j) + 6 L_(3 e_j)
      = [W ((8m + 16) SF - 48 gamma) + 16 pi - (4m + 8) P2] G + [8 gamma - (2m + 4) SF] P1.

H, rank two plus a multiple of I, is never stored: H v reads G.v and P1.v.
In t the sum over i != j misses the i = j terms of gamma and pi, leaving
48 W G_j^3 - 24 P1_j G_j^2, which 6 L_(3 e_j) cancels exactly.  It must:
lambda is a function of X.h, G.h and |h|^2, so the gradient of its
Laplacian lies in span(X, G), as every vector the residuals read does.

So the kernel's chart set-up forms three m-vectors, X, U and G, and three
Gram scalars, xx = |X|^2, xG = <X, G> and GG = |G|^2 (gamma above),
besides the two sums of F.  Every other vector is a pair (a, b) meaning
a X + b G, formed by O(1) ring algebra in :func:`_geometry_algebra`:
P1 = (p, 0) with p = 2 c1 D F, g = (p, -2 W), pi = p xG, and with Gv =
v_X xG + v_G GG and Pv = p (v_X xx + v_G xG) for a pair v, H v = (-2 p Gv
+ c0 v_X, 8 W Gv - 2 Pv + c0 v_G).  |g|^2 and <X, g> are read off the Gram
scalars.  The curved operators

    lapbar f = w^2 lap f - (m-2) c1 w <x, grad f>,   |gradbar f|^2 = w^2 |grad f|^2

(with grad w = c1 x) and their gradients are formed on the same integers:
with K = Kn/Kd, lapbar lam = K Lb / (4 D^4 F^3), grad lapbar lam =
K grad_Lb / (4 D^4 F^4), Gamma_j = 2 c1 D F X_j |g|^2 + W (H g)_j, and

    CL    = Kn / (8 Kd^3 D^4 F^3) [2 Kd^2 Lb - 4 m D^4 (c1 Kd^2 W F^2 - c2 Kn^2 W^3)
                                   + (m-4) Kd^2 W |g|^2]
    SDL_j = Kn^2 W^2 / (16 Kd^2 D^8 F^5) [W grad_Lb_j - 3 Lb g_j - (m-4) W Gamma_j
                                          + 8 (m-1) c1 D^4 F^2 W g_j]

and ND, ND2 the like sums over Kn^2 W^2 / (16 Kd^4 D^8 F^5), each kept to
its own formula, so the identity chain stays a check of three separate
assemblies.  Each term of a vector residual is a pair over that one
positive denominator, and each term of CL a scalar.  A residual is formed
only when read, and then holds only the coefficients of its terms.  Exact
zeros are decided without forming a vector: with (a, b) the summed pair,
|a X + b G|^2 = a^2 xx + 2 a b xG + b^2 GG is 0 exactly when the vector is,
also where X = 0, G = 0 or X is parallel to G, and the harmonic flag is
|g|^2 = 0; the prefactor numerator Kn or (Kn W)^2 and the denominator are
nonzero, since the geometry raises unless Kn, W and F are positive, so a
component is 0 exactly when its integer sum is.  Float zero tests read the
same pairs; as the Gram form cancels on doubles where X is parallel to G,
the float set-up orthogonalises once: mu = xG / xx, pp = |G - mu X|^2 and
|a X + b G|^2 = (a + b mu)^2 xx + b^2 pp.  m-vectors, a X_j + b G_j per
term, are formed only when a residual's values, or its exact norm or scale,
are read (the integers the m-vector kernel formed, so exact reports keep
their bytes).  The tests keep that m-vector kernel, the recurrence over its
multi-index set and the dense jet route (``jet_oracles``) as oracles.

Polyharmonic path.  Flat-target polyharmonicity reduces to iterated flat
Laplacians of the map components.  On the inversive branch (eps = 2)
phi = b + k A u/|u|^2 with u = x - a and A constant, so
Delta^k phi = k A Delta^k (u/|u|^2).  Around x0, with u0 = x0 - a, h = x - x0
and R = |u0|^2, u/|u|^2 = u0 G + h G with G = 1/(R + 2s + q), a function of
the two invariants s = <u0, h> and q = |h|^2 alone (the invariant reduction
of Olver, Applications of Lie Groups to Differential Equations, ch. 2).  The
Laplacian keeps this form:

    Delta G = R G_ss + 4 s G_sq + 4 q G_qq + 2 m G_q,
    Delta (u0 G1 + h G2) = u0 (Delta G1 + 2 G2_s) + h (Delta G2 + 4 G2_q),

so k steps of the pair map (G1, G2) -> (Delta G1 + 2 G2_s, Delta G2 + 4 G2_q)
from G1 = G2 = G give Delta^k (u/|u|^2)(x0) = c_k u0, c_k the constant term
of G1.  On monomials

    Delta (s^a q^b) = a (a-1) R s^(a-2) q^b + 2b (2a + 2b - 2 + m) s^a q^(b-1),

and no term of a step lowers a + 2b by more than 2, so c_k reads only the
pairs a + 2b <= 2k of the Taylor series of G, whose coefficients are
(-1)^(a+b) C(a+b, a) 2^a / R^(a+b+1): 36 pairs at k = 5, whatever m is.
Write the coefficient of s^a q^b after j steps as N / R^(a+b+1+j).  A term
that lowers a by 2 brings one factor R and lowers the exponent by one; every
other term lowers a + b by one and keeps the exponent.  So R cancels from
every step, the numerators N are integers of (m, k) alone, and
c_k = N_k / R^(k+1).  With D the lcm of the denominators of u0, U = D u0
(the point's and a's integers over lcm(den, a_den), reduced by one gcd),
F = |U|^2 = D^2 R and k A = A_num / den_A over integers,

    Delta^k phi(x0) = D^(2k+1) N_k A_num U / (den_A F^(k+1))   (plus b at k = 0),

integer terms over one positive denominator (at k = 0, b's integers join
over the product of the two), N_k cached per (m, top).  The affine branch
(eps = 0) is the same formula with F = D^2, N_0 = 1 and N_k = 0 for k >= 1.
``closed_form_coefficient`` is the independent closed form of N_k for the
inversive family,

    Delta^k ((x_i - a_i)/|x-a|^2)
        = (-1)^k prod_(j=1..k) 2j (m-2j) (x_i - a_i)/|x-a|^(2k+2),

which :func:`polyharmonic_closed_form` evaluates without the recurrence, as
integers over the same denominator.  The sweep's flags are :func:`vanishes`
on those integers, in either mode of the sweep; a rational is formed only
when a value is read.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property, lru_cache, partial, reduce
from itertools import chain
from typing import Sequence

from .errors import (
    ChartDomainError,
    DegreeError,
    DoubleRangeError,
    MapValidationError,
    NonpositiveFactorError,
    SingularDivisionError,
)
from .mobius import ConformalInstance, MobiusMap
from .rationals import exact_point, rational

DEFAULT_FLOAT_TOL = 1e-9


class ResidualVector:
    """Residual of one equation, num/den * sum(terms), over a basis.

    ``basis`` is (vectors, norm_sq): each term is a coefficient tuple c over
    the vectors v_i, the vector sum_i c_i v_i, and norm_sq(c) is its squared
    norm c^T Gram c.  The vector residuals use (X, G) and the Gram scalars of
    ``ConformalGeometry``; the scalar CL and Delta^k phi the standard basis,
    vectors None, where a term is its vector.  Integers, or doubles where
    ``exact`` is False.

    ``exact_zero`` is :func:`vanishes` on the terms, without forming a
    vector: num and den are nonzero (``ConformalGeometry`` raises unless Kn,
    W and F are positive), so a value is 0 exactly when its sum is.
    ``norm`` and ``scale``, which ``check`` reports print, are the norm of
    the value and the summed norms of the terms: exact, of the int/int
    quotients (num * t)/den, formed with ``sums`` and ``values``, rationals,
    the first time one of them is read; float, |num/den| sqrt(norm_sq) of
    the coefficients.
    """

    def __init__(self, num, den, terms, basis, exact: bool, tol: float = DEFAULT_FLOAT_TOL):
        self._quotient, self._exact, self._tol = rational if exact else operator.truediv, exact, tol
        self.num, self.den, self.terms = num, den, terms
        self._vectors, self.norm_sq = basis

    @cached_property
    def _formed(self) -> tuple:
        # exact sums and scale both read every term vector, and every reader
        # of one reads the other: form them together
        terms = self.terms if self._vectors is None else [_combine(t, self._vectors) for t in self.terms]
        num, den = self.num, self.den
        return [sum(col) for col in zip(*terms)], _left_sum(_norm([num * v / den for v in t]) for t in terms)

    @property
    def sums(self) -> list:
        return self._formed[0]

    @cached_property
    def values(self) -> tuple:
        return tuple(self._quotient(self.num * s, self.den) for s in self.sums)

    @cached_property
    def norm(self) -> float:
        if self._exact:
            return _norm(self.values)
        return abs(self.num / self.den) * math.sqrt(self.norm_sq(tuple(map(sum, zip(*self.terms)))))

    @cached_property
    def scale(self) -> float:
        if self._exact:
            return self._formed[1]
        return abs(self.num / self.den) * sum(math.sqrt(self.norm_sq(t)) for t in self.terms)

    @property
    def exact_zero(self) -> bool:
        return vanishes(self.terms, self._tol, self.norm_sq)


def _combine(coef, vectors) -> list:
    """The vector sum_i coef_i vectors_i, component by component."""
    return [reduce(operator.add, map(operator.mul, coef, col)) for col in zip(*vectors)]


# the standard basis: a term is its own vector
_STANDARD = (None, lambda c: sum(v * v for v in c))


def _left_sum(doubles) -> float:
    """The doubles summed left to right from 0.0, as ``sum`` did before
    Python 3.12 compensated its rounding: the printed norms and scales stay
    the same bytes on every Python."""
    return reduce(operator.add, doubles, 0.0)


def _norm(values) -> float:
    return math.sqrt(_left_sum(float(v) ** 2 for v in values))


def vanishes(terms, tol: float, norm_sq=None, sum_norm_sq=None) -> bool:
    """The zero decision every flag rests on, one rule for both modes.

    ``terms`` are the coefficient tuples, over one basis, of the terms that
    cancel in a value, their sum; ``norm_sq`` gives a tuple's squared norm,
    None meaning the standard basis.  Exact (no coefficient of the sum is a
    float): the sum is literally zero, norm_sq(sum) = 0 on any basis, a
    degenerate one too, and every component 0 on the standard one, so no
    rational is squared.  A caller that already holds norm_sq(sum) passes it
    as ``sum_norm_sq``: unless it is a float, it is the whole exact test and
    the sum is not formed; float mode never reads it.  Float: the sum's norm
    is at most ``tol`` times the summed norms of the terms, which its
    rounding error follows where it vanishes, so callers keep terms that
    cancel apart; a zero scale admits only a zero sum.  Where a square
    overflows, or the scale is below 2^-256 (above it no square that
    underflows moves the test at a tol over 2^-255), every coefficient is
    first scaled by the power of two of the largest, clamped where
    subnormal: exact, as norm_sq is homogeneous.
    """
    if sum_norm_sq is not None and type(sum_norm_sq) is not float:
        return not sum_norm_sq
    # reduce, not sum: a one-term sum is that term, with no rational formed
    total = [reduce(operator.add, col) for col in zip(*terms)]
    if float not in map(type, total):
        return not (any(total) if norm_sq is None else norm_sq(total))
    norm = _norm if norm_sq is None else lambda c: math.sqrt(norm_sq(c))
    try:
        size, scale = norm(total), sum(map(norm, terms))
    except OverflowError:
        scale = math.inf
    if not 2.0**-256 < scale < 2.0**256:
        s = math.ldexp(1.0, min(1023, -math.frexp(max(map(abs, chain.from_iterable(terms))))[1]))
        terms = [[c * s for c in t] for t in terms]
        total = [reduce(operator.add, col) for col in zip(*terms)]
        size, scale = norm(total), sum(map(norm, terms))
    return size <= tol * scale


class ConformalGeometry:
    """One evaluated point of one instance: its geometry and its readings.

    The constructor is the chart set-up: the one step that tells exact from
    float mode, the chart checks, the only m-vectors formed (X, U and G) and
    the Gram scalars xx = |X|^2, xG = <X, G> and GG = |G|^2.  The closed
    forms of the module docstring, every vector a pair (a, b) meaning
    a X + b G, are :func:`_geometry_algebra`'s.  The residuals read the
    integers W, F, D^4, Kn/Kd, |g|^2 and Lb and the pairs g, Gamma and
    grad_Lb (doubles when a coordinate of x is a float); ``basis`` is
    ((X, G), norm_sq), norm_sq giving |a X + b G|^2 from the Gram scalars
    (float: xx, mu and pp), and :meth:`vector` forms the m-vector of a pair.
    ``geometry[key]``, CL, SDL, ND, ND2 (a :class:`ResidualVector`) or
    "harmonic", is formed by the function ``_FORMED_BY`` names when first
    read, and kept; every flag reads the one ``tol`` stored here.
    """

    def __init__(self, instance: ConformalInstance, x, tol: float = DEFAULT_FLOAT_TOL):
        point = exact_point(x)
        dom = instance.domain
        fq = instance.factor
        m = instance.dim
        c1 = dom.curvature
        self.m, self.c1, self.c2 = m, c1, instance.target.curvature
        # Scalar set-up, the only step that tells the modes apart.  Exact:
        # x0 = N/den, and x0 = X/D and u0 = x0 - a = U/D over D = lcm(den,
        # a_den) (module docstring), with K = den kappa / 2 = Kn/Kd reduced.
        # Float: the same code over doubles with every denominator 1.
        if point is not None:
            D = math.lcm(fq.a_den, point.den)
            X = [v * (D // point.den) for v in point.N]
            U = [xi - D // fq.a_den * ai for xi, ai in zip(X, fq.a_num)]
            q0, qg, qs = fq.value, fq.linear, fq.square
            Kn, Kd = fq.den * fq.kappa.numerator, 2 * fq.kappa.denominator
            h = math.gcd(Kn, Kd)
            Kn, Kd = Kn // h, Kd // h
        else:
            D = 1
            X = [float(v) for v in x]
            U = [xi - ai / fq.a_den for xi, ai in zip(X, fq.a_num)]
            q0, qs = fq.value / fq.den, fq.square / fq.den
            qg = [v / fq.den for v in fq.linear]
            Kn, Kd = float(fq.kappa) / 2, 1
        self.exact = point is not None
        D2 = D * D
        xx = sum(map(operator.mul, X, X))
        # 2 D^2 w(x0) for the chart weight w = 1/sigma: 1 on the flat chart,
        # (1 + c1 |x|^2)/2 on the curved ones
        W = (2 - c1 * c1) * D2 + c1 * xx
        if W <= 0:
            raise ChartDomainError(f"base point outside the {dom.name} chart")
        if instance.map.epsilon == 2 and not any(U):
            raise SingularDivisionError("factor is singular at x = a")
        F = q0 * D2 + 2 * D * sum(map(operator.mul, qg, U)) + qs * sum(map(operator.mul, U, U))
        # doubles: a residual divides by F^5, a normal double only for F in
        # this range; F = 0 with q0 = 0 (F = |U|^2, U != 0) is an underflow
        if point is None and not 2.0**-200 < (abs(F) or abs(q0)) < 2.0**200:
            raise DoubleRangeError(f"a residual's denominator F^5 leaves the double range (F = {F:.3g})")
        # F has the sign of 1 + c2 |phi(x0)|^2 (constant 1 on a flat target)
        if not F:
            raise ChartDomainError("image point on the target chart boundary")
        if F < 0:
            raise ChartDomainError("image point outside the target chart")
        # lambda(x0) = Kn W / (Kd F) with W, F and Kd positive
        if Kn <= 0:
            lam0 = (rational if self.exact else operator.truediv)(Kn * W, Kd * F)
            at = tuple(X) if point is None else point.fractions()
            raise NonpositiveFactorError(f"conformal factor {lam0} <= 0 at {at}")

        G = [D * (D * v + qs * u) for v, u in zip(qg, U)]
        xG = sum(map(operator.mul, X, G))
        GG = sum(map(operator.mul, G, G))
        self.g, self.gg, self.Lb, self.grad_Lb, self.Gamma = _geometry_algebra(m, c1, D, W, F, qs, xx, xG, GG)
        self.W, self.F, self.D4, self.Kn, self.Kd = W, F, D2 * D2, Kn, Kd
        norm_sq = partial(_gram_norm_sq, xx, xG, GG)
        if point is None:  # the Gram form cancels on doubles where X || G
            mu = xG / xx if xx else 0.0
            norm_sq = partial(_ortho_norm_sq, xx, mu, sum((v - mu * u) ** 2 for u, v in zip(X, G)))
        self.basis = ((X, G), norm_sq)
        self.tol, self._read = tol, {}

    def __getitem__(self, key):
        read = self._read
        if key not in read:
            # looked up when first read, so a replaced function is the one that runs
            read[key] = globals()[_FORMED_BY[key]](self)
        return read[key]

    def vector(self, pair) -> list:
        """The m-vector a X + b G of a pair (a, b)."""
        return _combine(pair, self.basis[0])


def _gram_norm_sq(xx, xG, GG, pair):
    """|a X + b G|^2 of a pair (a, b), read off the Gram scalars."""
    a, b = pair
    return a * a * xx + 2 * a * b * xG + b * b * GG


def _ortho_norm_sq(xx, mu, pp, pair):
    """|a X + b G|^2 of a pair (a, b) on X and G - mu X, pp = |G - mu X|^2."""
    a, b = pair
    return (a + b * mu) ** 2 * xx + b * b * pp


def _geometry_algebra(m, c1, D, W, F, qs, xx, xG, GG) -> tuple:
    """(g, |g|^2, Lb, grad_Lb, Gamma) of the module docstring from the chart
    scalars and the Gram scalars: ring operations alone, no comparison and no
    mode, so the formulas run unchanged on ints, doubles or a symbolic m."""
    # lambda_beta = K L_beta / F^(|beta|+1) in closed form: gradient g / F^2,
    # Hessian H / F^3 (applied, never stored), lap / F^3 and its gradient
    # t / F^4, every vector a pair on (X, G)
    D2 = D * D
    SF = qs * D2 * F
    p = 2 * c1 * D * F  # P1 = p X
    P2 = c1 * D2 * F * F
    c0 = 2 * P2 - 2 * W * SF
    pi = p * xG
    g = (p, -2 * W)
    lap = 8 * W * GG - 4 * pi + m * c0
    tG = W * ((8 * m + 16) * SF - 48 * GG) + 16 * pi - (4 * m + 8) * P2
    tP = 8 * GG - (2 * m + 4) * SF
    t = (tP * p, tG)

    def apply_H(v):
        vx, vG = v
        Gv = vx * xG + vG * GG
        Pv = p * (vx * xx + vG * xG)
        return (-2 * p * Gv + c0 * vx, 8 * W * Gv - 2 * Pv + c0 * vG)

    xH, gH = apply_H((1, 0)), apply_H(g)
    gg = _gram_norm_sq(xx, xG, GG, g)
    xg = p * xx - 2 * W * xG

    # lapbar = w^2 lap(lam) - (m-2) c1 w <x, grad lam>, with w = W / (2 D^2)
    # and grad w = c1 x: lapbar lam = K Lb / (4 D^4 F^3) and its gradient
    # K grad_Lb / (4 D^4 F^4); grad |gradbar lam|^2 = K^2 W Gamma / (2 D^4 F^5)
    F2 = F * F
    r = (m - 2) * c1
    W2, rg, rx = W * W, 2 * r * D2 * F2 * W, 2 * r * D * F * W
    Lb = W * (W * lap - 2 * r * D * F * xg)
    grad_Lb = (
        4 * c1 * D * F * W * lap - 4 * r * c1 * D2 * F2 * xg + W2 * t[0] - rg * g[0] - rx * xH[0],
        W2 * t[1] - rg * g[1] - rx * xH[1],
    )
    return g, gg, Lb, grad_Lb, (p * gg + W * gH[0], W * gH[1])


def _cl_from_geometry(g: ConformalGeometry) -> ResidualVector:
    # lapbar lam, -m/2 c1 lam, m/2 c2 lam^3 and ((m-4)/2) |gradbar lam|^2 / lam
    # over Kn / (8 Kd^3 D^4 F^3); the middle two are two terms since they
    # cancel where lam is constant, at an isometry of a curved space form
    m, W, F, D4, Kn, Kd = g.m, g.W, g.F, g.D4, g.Kn, g.Kd
    Kd2 = Kd * Kd
    t1 = (2 * Kd2 * g.Lb,)
    t2 = (-4 * m * D4 * g.c1 * Kd2 * W * F * F,)
    t3 = (4 * m * D4 * g.c2 * Kn * Kn * W**3,)
    t4 = ((m - 4) * Kd2 * W * g.gg,)
    return ResidualVector(Kn, 8 * Kd2 * Kd * D4 * F**3, [t1, t2, t3, t4], _STANDARD, g.exact, g.tol)


def _sdl_from_geometry(g: ConformalGeometry) -> ResidualVector:
    # lam gradbar lapbar lam, -3 lapbar lam gradbar lam, -((m-4)/2) gradbar
    # |gradbar lam|^2 and 2 (m-1) c1 lam gradbar lam over Kn^2 W^2 / (16 Kd^2 D^8 F^5)
    m, W, F, D4 = g.m, g.W, g.F, g.D4
    t1 = [W * v for v in g.grad_Lb]
    t2 = [-3 * g.Lb * v for v in g.g]
    t3 = [-(m - 4) * W * v for v in g.Gamma]
    c = 8 * (m - 1) * g.c1 * D4 * F * F * W
    t4 = [c * v for v in g.g]
    num = (g.Kn * W) ** 2
    return ResidualVector(num, 16 * g.Kd**2 * D4 * D4 * F**5, [t1, t2, t3, t4], g.basis, g.exact, g.tol)


def _nd_from_geometry(g: ConformalGeometry) -> ResidualVector:
    # 2 gradbar(lam lapbar lam), -4 lapbar lam gradbar lam and
    # [2 m c2 lam^2 + (m-2) c1] lam gradbar lam over Kn^2 W^2 / (16 Kd^4 D^8 F^5)
    m, W, F, D4, Kn, Kd = g.m, g.W, g.F, g.D4, g.Kn, g.Kd
    Kd2 = Kd * Kd
    Lb = g.Lb
    t1 = [2 * Kd2 * (Lb * gj + W * v) for gj, v in zip(g.g, g.grad_Lb)]
    t2 = [-4 * Kd2 * Lb * v for v in g.g]
    c = 4 * D4 * W * (2 * m * g.c2 * Kn * Kn * W * W + (m - 2) * g.c1 * Kd2 * F * F)
    t3 = [c * v for v in g.g]
    num = (Kn * W) ** 2
    return ResidualVector(num, 16 * Kd2 * Kd2 * D4 * D4 * F**5, [t1, t2, t3], g.basis, g.exact, g.tol)


def _nd2_from_geometry(g: ConformalGeometry) -> ResidualVector:
    # (m-4) gradbar |gradbar lam|^2, 4 lapbar lam gradbar lam and
    # [(2-3m) c1 lam + 2 m c2 lam^3] gradbar lam over Kn^2 W^2 / (16 Kd^4 D^8 F^5);
    # the last two are two terms since they cancel where m = 4, c1 = 0
    m, W, F, D4, Kn, Kd = g.m, g.W, g.F, g.D4, g.Kn, g.Kd
    Kd2 = Kd * Kd
    t1 = [2 * (m - 4) * Kd2 * W * v for v in g.Gamma]
    t2 = [4 * Kd2 * g.Lb * v for v in g.g]
    c = 4 * D4 * W * ((2 - 3 * m) * g.c1 * Kd2 * F * F + 2 * m * g.c2 * Kn * Kn * W * W)
    t3 = [c * v for v in g.g]
    num = (Kn * W) ** 2
    return ResidualVector(num, 16 * Kd2 * Kd2 * D4 * D4 * F**5, [t1, t2, t3], g.basis, g.exact, g.tol)


def _harmonic_from_geometry(g: ConformalGeometry) -> bool:
    # grad lambda = g / F^2, and g = p X - 2 W G is the sum of the terms
    # (p, 0) and (0, -2 W), which cancel wherever lambda is constant; its
    # squared norm is gg, which an exact flag reads
    p, w = g.g
    return vanishes(((p, 0), (0, w)), g.tol, g.basis[1], g.gg)


# the module function forming each reading of a ConformalGeometry
_FORMED_BY = {"CL": "_cl_from_geometry", "SDL": "_sdl_from_geometry", "ND": "_nd_from_geometry",
              "ND2": "_nd2_from_geometry", "harmonic": "_harmonic_from_geometry"}


def evaluate_residuals(instance: ConformalInstance, x, tol: float = DEFAULT_FLOAT_TOL) -> ConformalGeometry:
    """The ``ConformalGeometry`` of x, keyed by the four residuals and the
    harmonicity flag; exact unless a coordinate of x is a float."""
    return ConformalGeometry(instance, x, tol)


# -- flat-target polyharmonicity ---------------------------------------------


def closed_form_coefficient(m: int, order: int):
    """Scalar in Delta^k of the inversive components, exact integer.

    (-1)^k * prod_(j=1..k) 2j (m - 2j).
    """
    if m < 3 or order < 1:
        raise DegreeError("need m >= 3 and order >= 1")
    coeff = (-1) ** order
    for j in range(1, order + 1):
        coeff *= 2 * j * (m - 2 * j)
    return coeff


def polyharmonic_orders(mmap: MobiusMap, orders: Sequence[int], x) -> dict[int, ResidualVector]:
    """Delta^k phi(x) per order k of a flat-to-flat map, on the standard basis.

    Delta^k phi is the tuple of the iterated Laplacians of the m components,
    integer terms over one positive denominator, at an integer point or a
    sequence of rationals x; a float coordinate is a TypeError.  Its terms,
    the ones :func:`vanishes` judges it by, are the map part
    k A Delta^k (u/|u|^2) alone for k >= 1 and that part and b at k = 0.
    """
    orders = sorted(set(orders))
    if any(type(k) is not int or k < 0 for k in orders):
        raise DegreeError(f"orders must be integers >= 0, got {orders}")
    U, D = _offset_integers(x, mmap.a_integers)
    num_A, den_A = mmap.A_integers
    den_A *= mmap.k.denominator
    # eps = 2: phi = b + k A u/|u|^2; eps = 0: phi = b + k A u, harmonic
    top = orders[-1] if orders else 0
    if mmap.epsilon == 2:
        if not any(U):
            raise SingularDivisionError("the point lies on the singular set x = a")
        F = sum(map(operator.mul, U, U))
        N = _inversion_numerators(mmap.dim, top)
    else:
        F = D * D
        N = (1,) + (0,) * top
    AU = [mmap.k.numerator * sum(map(operator.mul, row, U)) for row in num_A]
    out: dict[int, ResidualVector] = {}
    for k in orders:
        c = N[k] * D ** (2 * k + 1)
        terms, den = [tuple(c * v for v in AU)], den_A * F ** (k + 1)
        if k == 0:
            b, b_den = mmap.b_integers
            terms, den = [tuple(b_den * v for v in terms[0]), tuple(den * v for v in b)], den * b_den
        out[k] = ResidualVector(1, den, terms, _STANDARD, True)
    return out


def _offset_integers(x, a_integers) -> tuple[list, int]:
    """(U, D) with x - a = U/D, D the lcm of the denominators of x - a: the
    integers over lcm(den, a_den), reduced by their one gcd with it.  A
    float coordinate of x is a TypeError, as ``rational`` refuses a float."""
    point = exact_point(x)
    if point is None:
        raise TypeError(f"Delta^k phi is evaluated at exact points alone, got {tuple(x)!r}")
    a_num, a_den = a_integers
    L = math.lcm(point.den, a_den)
    U = [n * (L // point.den) - v * (L // a_den) for n, v in zip(point.N, a_num)]
    g = math.gcd(L, *U)
    return [u // g for u in U], L // g


@lru_cache(maxsize=1024)
def _inversion_numerators(m: int, top: int) -> tuple[int, ...]:
    """(N_0, ..., N_top): Delta^k (u/|u|^2)(x0) = N_k u0 / R^(k+1), R = |u0|^2.

    The pair recurrence of the module docstring on the numerators of the
    coefficients of s^a q^b, over a + 2b <= 2 (top - j) after j steps: the
    pairs the constant term of step top reads.  Integers of (m, top) alone,
    equal to ``closed_form_coefficient(m, k)`` for k >= 1: cached.
    """
    # g[b][a]: the coefficient of s^a q^b, for a <= 2 (top - j - b)
    g1 = [
        [(-1) ** (a + b) * math.comb(a + b, a) * 2**a for a in range(2 * (top - b) + 1)]
        for b in range(top + 1)
    ]
    g2 = [row[:] for row in g1]
    out = [g1[0][0]]
    for j in range(1, top + 1):
        n1, n2 = [], []
        for b in range(top - j + 1):
            r1, r2, r1q, r2q = g1[b], g2[b], g1[b + 1], g2[b + 1]
            row1, row2 = [], []
            for a in range(2 * (top - j - b) + 1):
                # Delta sends s^(a+2) q^b and s^a q^(b+1) to s^a q^b with these
                # weights; 2 d/ds G2 and 4 d/dq G2 add the rest
                ss = (a + 2) * (a + 1)
                sq = 2 * (b + 1) * (2 * a + 2 * b + m)
                row1.append(ss * r1[a + 2] + sq * r1q[a] + 2 * (a + 1) * r2[a + 1])
                row2.append(ss * r2[a + 2] + (sq + 4 * (b + 1)) * r2q[a])
            n1.append(row1)
            n2.append(row2)
        g1, g2 = n1, n2
        out.append(g1[0][0])
    return tuple(out)


def polyharmonic_closed_form(mmap: MobiusMap, order: int, x) -> ResidualVector:
    """Closed-form Delta^k phi for the eps = 2 family at an exact point x: the
    product closed_form_coefficient(m, k) k A u0 / |u0|^(2k+2) on the
    integers U = D u0 and A = A_num / den_A, reading no recurrence, as one
    integer term over the denominator :func:`polyharmonic_orders` gives."""
    if mmap.epsilon != 2:
        raise MapValidationError("closed form applies to the eps = 2 family")
    U, D = _offset_integers(x, mmap.a_integers)
    num_A, den_A = mmap.A_integers
    c = closed_form_coefficient(mmap.dim, order) * mmap.k.numerator * D ** (2 * order + 1)
    den = den_A * mmap.k.denominator * sum(map(operator.mul, U, U)) ** (order + 1)
    return ResidualVector(1, den, [tuple(c * sum(map(operator.mul, row, U)) for row in num_A)], _STANDARD, True)
