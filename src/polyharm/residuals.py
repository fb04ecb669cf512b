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
Ric = (m-1) c g; see :func:`polyharm.spaceform.ricci_scale`.

Flat-target polyharmonicity reduces to iterated flat Laplacians of the map
components.  A is constant, so with u = x - a and f = |u|^2,

    Delta^k phi(x0) = k A v,   v_j = sum_{|gamma| = k} w_gamma (u0_j q_{2 gamma} + q_{2 gamma - e_j}),

where q_beta are the Taylor coefficients of 1/f at x0 and
w_gamma = k!/gamma! * (2 gamma)!.  ``polyharmonic_orders`` builds no jets.
With D the lcm of the denominators of u0 = x0 - a, U = D u0 and F = |U|^2,
q_beta = D^(|beta|+2) Q_beta / F^(|beta|+1) for the integers

    Q_0 = 1,   Q_beta = -2 sum_i U_i Q_(beta - e_i) - F sum_i Q_(beta - 2 e_i),

run only over N_K = {beta : sum_i ceil(beta_i/2) <= K}, K the largest order:
the coefficients Delta^K reads, a set closed under both shifts.  Each
component is then one rational over a common denominator.  The affine branch
(eps = 0) is the same formula with 1/f = 1, and float mode runs it over
doubles with D = 1.  ``closed_form_coefficient`` supplies the independent
closed form for the inversive family,

    Delta^k ((x_i - a_i)/|x-a|^2)
        = (-1)^k [2*4...(2k)] [(m-2)(m-4)...(m-2k)] (x_i - a_i)/|x-a|^(2k+2).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from . import jets, mobius, spaceform
from .errors import (
    DegreeError,
    InterpolationError,
    MapValidationError,
    PolyharmError,
    SingularDivisionError,
)
from .mobius import ConformalInstance, MobiusMap
from .rationals import EXACT, FLOAT, as_float, coerce, rational

DEFAULT_FLOAT_TOL = 1e-9

# Float-noise ceiling for a structurally-zero equation, relative to the fourth
# power of the input-coefficient magnitude (terms are products of at most four
# jet-derived factors).  When the term scale S falls below this floor every
# term vanished identically rather than cancelling, and the relative test
# norm <= tol*S degenerates to 0/0; the floor then decides.
_DEGENERATE_SCALE_EPS = 1e-12


@dataclass(frozen=True)
class ResidualVector:
    """Residual of one equation at one point, with its scale for float mode.

    ``scale`` is the sum of Euclidean norms of the equation's constituent
    terms; raw tolerances would be meaningless across lambda^4-sized terms.
    ``exact_zero`` is the verdict of :func:`vanishes`.  Every term of these
    equations can vanish identically (e.g. the flat inversive family in
    dimension 4, whose Laplacian term does), so the bundle passes the floor
    that marks a scale of pure machine noise.
    """

    label: str
    point: tuple
    values: tuple
    exact_zero: bool
    norm: float
    scale: float


def _norm(values) -> float:
    return math.sqrt(sum(as_float(v) ** 2 for v in values))


def vanishes(values, scale: float, mode: str, tol: float, floor: float = 0.0) -> bool:
    """The zero decision every verdict rests on.

    Exact mode: every value is literally zero.  Float mode: the norm is at
    most ``tol`` times ``scale``, the size of the terms that cancel in
    ``values``, since where the values vanish their rounding error follows
    those terms.  A caller whose terms can all vanish identically passes the
    noise ``floor`` of their size: a scale at or below it is rounding noise
    itself, the relative test would be 0/0, and the norm is held to the floor.
    """
    if mode == EXACT:
        return all(v == 0 for v in values)
    nrm = _norm(values)
    return nrm <= tol * scale if scale > floor else nrm <= floor


def _bundle(label, point, term_vectors, mode, tol, ambient=1.0) -> ResidualVector:
    m = len(term_vectors[0])
    values = tuple(sum(t[i] for t in term_vectors) for i in range(m))
    scale = sum(_norm(t) for t in term_vectors)
    zero = vanishes(values, scale, mode, tol, _DEGENERATE_SCALE_EPS * ambient**4)
    return ResidualVector(
        label=label, point=tuple(point), values=values, exact_zero=zero, norm=_norm(values), scale=scale
    )


class ConformalGeometry:
    """Shared jets of one instance at one point (degree 3 throughout)."""

    def __init__(self, instance: ConformalInstance, x, mode: str = EXACT):
        self.instance = instance
        self.mode = mode
        self.point = tuple(coerce(v, mode) for v in x)
        m = instance.dim
        x_jets = jets.seed(self.point, 3, mode)
        dom = instance.domain
        self.lam = mobius.conformal_factor(dom, instance.target, instance.map, x_jets)
        self.lam0 = self.lam.value()
        self.grad_lam = self.lam.gradient()
        w = spaceform.inv_sigma_jet(dom, x_jets)
        self.w0_sq = w.value() * w.value()
        lapbar = spaceform.laplace_beltrami(self.lam, dom, x_jets)
        self.lapbar0 = lapbar.value()
        self.grad_lapbar = lapbar.gradient()
        self.grad_lam_lapbar = (self.lam * lapbar).gradient()
        # only the value and gradient of |gradbar lam|^2 are read
        gnorm = spaceform.grad_norm_sq_bar(self.lam.truncate(2), dom, x_jets)
        self.gnorm0 = gnorm.value()
        self.grad_gnorm = gnorm.gradient()
        self.m = m
        self.c1 = dom.curvature
        self.c2 = instance.target.curvature
        if mode == FLOAT:
            self.ambient = 1.0 + max(abs(c) for c in self.lam.coeffs)
        else:
            self.ambient = 1.0

    def gradbar(self, grads) -> tuple:
        """Curved gradient values: sigma^-2 times flat gradient values."""
        return tuple(self.w0_sq * g for g in grads)

    def harmonic(self) -> bool:
        return all(not g for g in self.grad_lam)


def residual_CL(instance: ConformalInstance, x, mode: str = EXACT, tol: float = DEFAULT_FLOAT_TOL) -> ResidualVector:
    """Conformal-factor constraint; must vanish for genuine factors."""
    g = ConformalGeometry(instance, x, mode)
    return _cl_from_geometry(g, mode, tol)


def _cl_from_geometry(g: ConformalGeometry, mode, tol) -> ResidualVector:
    m = g.m
    scal_m = m * (m - 1) * g.c1
    scal_n = m * (m - 1) * g.c2
    t1 = (g.lapbar0,)
    t2 = (-coerce(rational(1, 2 * (m - 1)), mode) * (g.lam0 * scal_m - g.lam0**3 * scal_n),)
    t3 = (coerce(rational(m - 4, 2), mode) * g.gnorm0 / g.lam0,)
    return _bundle("CL", g.point, [t1, t2, t3], mode, tol, g.ambient)


def residual_SDL(instance: ConformalInstance, x, mode: str = EXACT, tol: float = DEFAULT_FLOAT_TOL) -> ResidualVector:
    """Gradient-form biharmonicity equation; zero iff the map is biharmonic."""
    g = ConformalGeometry(instance, x, mode)
    return _sdl_from_geometry(g, mode, tol)


def _sdl_from_geometry(g: ConformalGeometry, mode, tol) -> ResidualVector:
    m = g.m
    gb_lapbar = g.gradbar(g.grad_lapbar)
    gb_lam = g.gradbar(g.grad_lam)
    gb_gnorm = g.gradbar(g.grad_gnorm)
    half = coerce(rational(m - 4, 2), mode)
    t1 = tuple(g.lam0 * v for v in gb_lapbar)
    t2 = tuple(-3 * g.lapbar0 * v for v in gb_lam)
    t3 = tuple(-half * v for v in gb_gnorm)
    t4 = tuple(2 * (m - 1) * g.c1 * g.lam0 * v for v in gb_lam)
    return _bundle("SDL", g.point, [t1, t2, t3, t4], mode, tol, g.ambient)


def residual_ND(instance: ConformalInstance, x, mode: str = EXACT, tol: float = DEFAULT_FLOAT_TOL) -> ResidualVector:
    """First necessary condition (derivative-of-product form)."""
    g = ConformalGeometry(instance, x, mode)
    return _nd_from_geometry(g, mode, tol)


def _nd_from_geometry(g: ConformalGeometry, mode, tol) -> ResidualVector:
    m = g.m
    gb_ll = g.gradbar(g.grad_lam_lapbar)
    gb_lam = g.gradbar(g.grad_lam)
    t1 = tuple(2 * v for v in gb_ll)
    t2 = tuple(-4 * g.lapbar0 * v for v in gb_lam)
    coef = (2 * m * g.c2 * g.lam0 * g.lam0 + (m - 2) * g.c1) * g.lam0
    t3 = tuple(coef * v for v in gb_lam)
    return _bundle("ND", g.point, [t1, t2, t3], mode, tol, g.ambient)


def residual_ND2(instance: ConformalInstance, x, mode: str = EXACT, tol: float = DEFAULT_FLOAT_TOL) -> ResidualVector:
    """Second necessary condition (gradient-of-energy form)."""
    g = ConformalGeometry(instance, x, mode)
    return _nd2_from_geometry(g, mode, tol)


def _nd2_from_geometry(g: ConformalGeometry, mode, tol) -> ResidualVector:
    m = g.m
    gb_gnorm = g.gradbar(g.grad_gnorm)
    gb_lam = g.gradbar(g.grad_lam)
    t1 = tuple((m - 4) * v for v in gb_gnorm)
    coef = 4 * g.lapbar0 + (2 - 3 * m) * g.c1 * g.lam0 + 2 * m * g.c2 * g.lam0**3
    t2 = tuple(coef * v for v in gb_lam)
    return _bundle("ND2", g.point, [t1, t2], mode, tol, g.ambient)


def harmonicity_flag(instance: ConformalInstance, x, mode: str = EXACT) -> bool:
    """True iff gradbar(lambda) vanishes at x (the map is a homothety there)."""
    g = ConformalGeometry(instance, x, mode)
    return g.harmonic()


def evaluate_residuals(
    instance: ConformalInstance, x, mode: str = EXACT, tol: float = DEFAULT_FLOAT_TOL
) -> dict:
    """All four residuals plus the harmonicity flag, sharing one jet build."""
    g = ConformalGeometry(instance, x, mode)
    return {
        "CL": _cl_from_geometry(g, mode, tol),
        "SDL": _sdl_from_geometry(g, mode, tol),
        "ND": _nd_from_geometry(g, mode, tol),
        "ND2": _nd2_from_geometry(g, mode, tol),
        "harmonic": g.harmonic(),
    }


# -- flat-target polyharmonicity ---------------------------------------------


def closed_form_coefficient(m: int, order: int):
    """Scalar in Delta^k of the inversive components, exact integer.

    (-1)^k * [2*4*...*(2k)] * [(m-2)(m-4)*...*(m-2k)].
    """
    if m < 3 or order < 1:
        raise DegreeError("need m >= 3 and order >= 1")
    coeff = (-1) ** order
    for j in range(1, order + 1):
        coeff *= 2 * j
    for j in range(1, order + 1):
        coeff *= m - 2 * j
    return coeff


def polyharmonic_residual(mmap: MobiusMap, order: int, x, mode: str = EXACT) -> tuple:
    """(Delta^k phi_1, ..., Delta^k phi_m) at x for a flat-to-flat map."""
    return polyharmonic_orders(mmap, (order,), x, mode)[order]


def polyharmonic_orders(
    mmap: MobiusMap, orders: Sequence[int], x, mode: str = EXACT
) -> dict[int, tuple]:
    """Iterated Laplacians of the map components at several orders at once."""
    return {k: vals for k, (vals, _) in _polyharmonic_terms(mmap, orders, x, mode).items()}


def _polyharmonic_terms(
    mmap: MobiusMap, orders: Sequence[int], x, mode: str = EXACT
) -> dict[int, tuple[tuple, float]]:
    """Delta^k phi(x) per order, with the float size of the terms that cancel.

    The size is |k| times the norm over j of
    sum_gamma w_gamma (|u0_j q_{2gamma}| + |q_{2gamma - e_j}|) (plus |b| at
    order 0), the scale :func:`vanishes` judges Delta^k phi against.
    """
    orders = sorted(set(int(k) for k in orders))
    if orders and orders[0] < 0:
        raise DegreeError("orders must be >= 0")
    m = mmap.dim
    if mode == EXACT:
        u0 = [coerce(xi, EXACT) - ai for xi, ai in zip(x, mmap.a)]
        D = math.lcm(*(int(v.denominator) for v in u0))
        U = [int(v.numerator) * (D // int(v.denominator)) for v in u0]
        kA = [[mmap.k * v for v in row] for row in mmap.A]
        den_A = math.lcm(*(int(v.denominator) for row in kA for v in row))
        num_A = [[int(v.numerator) * (den_A // int(v.denominator)) for v in row] for row in kA]
        quotient = rational
    else:
        D, den_A, quotient = 1, 1, operator.truediv
        U = [coerce(xi, FLOAT) - coerce(ai, FLOAT) for xi, ai in zip(x, mmap.a)]
        num_A = [[coerce(mmap.k * v, FLOAT) for v in row] for row in mmap.A]
    # s = 1: phi = b + k A u/|u|^2; s = 0: phi = b + k A u, reciprocal 1
    s = mmap.epsilon // 2
    F = s * sum(v * v for v in U) + (1 - s) * D * D
    if not F:
        raise SingularDivisionError("the point lies on the singular set x = a")
    Q, pw = _reciprocal_numerators([s * v for v in U], F, s, orders[-1] if orders else 0)
    k_abs = abs(as_float(mmap.k))
    out: dict[int, tuple[tuple, float]] = {}
    for k in orders:
        N = [0] * m
        T = [0] * m
        for gamma, w in _iterlap_weights(m, k):
            key = sum(2 * g * p for g, p in zip(gamma, pw))
            q = Q[key]
            for j in range(m):
                t1 = U[j] * q
                t2 = F * Q[key - pw[j]] if gamma[j] else 0
                N[j] += w * (t1 + t2)
                T[j] += w * (abs(t1) + abs(t2))
        c = D ** (2 * k + 1)
        den = F ** (2 * k + 1)
        vals = tuple(
            quotient(c * sum(a * n for a, n in zip(row, N)), den_A * den) for row in num_A
        )
        scale = k_abs * _norm(T) * (c / den)
        if k == 0:
            vals = tuple(v + coerce(bi, mode) for v, bi in zip(vals, mmap.b))
            scale += _norm(mmap.b)
        out[k] = (vals, scale)
    return out


def _reciprocal_numerators(G, F, s: int, top: int) -> tuple[dict[int, object], list[int]]:
    """Numerators Q_beta of the Taylor coefficients of 1/f over N_top.

    For f(x0 + h) = (F + 2 D G.h + s D^2 |h|^2) / D^2 the coefficients are
    q_beta = D^(|beta|+2) Q_beta / F^(|beta|+1), where Q_0 = 1 and

        Q_beta = -2 sum_i G_i Q_(beta - e_i) - s F sum_i Q_(beta - 2 e_i),

    integers when G and F are.  Delta^k reads q only on
    N_k = {beta : sum_i ceil(beta_i/2) <= k}, which is closed under
    beta - e_i and beta - 2 e_i, so the recurrence runs there alone.
    Returns Q keyed by sum_i beta_i pw_i, and the place values
    pw_i = (2 top + 1)^i.
    """
    pw = [(2 * top + 1) ** i for i in range(len(G))]
    sF = s * F
    Q = {0: 1}
    for key, ones, twos in _needed_set(len(G), top)[1:]:
        acc = 0
        for i in ones:
            acc += G[i] * Q[key - pw[i]]
        acc2 = 0
        for i in twos:
            acc2 += Q[key - 2 * pw[i]]
        Q[key] = -2 * acc - sF * acc2
    return Q, pw


@functools.lru_cache(maxsize=1)
def _needed_set(m: int, top: int) -> tuple[tuple[int, tuple, tuple], ...]:
    """(key, {i : beta_i >= 1}, {i : beta_i >= 2}) over N_top in key order.

    Keys use the place values (2 top + 1)^i of :func:`_reciprocal_numerators`.
    The set depends on (m, top) alone, and every trial and point of a sweep
    cell asks for the same one, so the last set built is kept.
    """
    entries = [(0, top, (), ())]
    for i in range(m):
        p = (2 * top + 1) ** i
        grown = []
        for b in range(2 * top + 1):
            cost = (b + 1) // 2
            one = (i,) if b >= 1 else ()
            two = (i,) if b >= 2 else ()
            for key, left, ones, twos in entries:
                if left >= cost:
                    grown.append((key + b * p, left - cost, ones + one, twos + two))
        entries = grown
    return tuple((key, ones, twos) for key, _, ones, twos in entries)


def _iterlap_weights(m: int, k: int) -> list[tuple[tuple, int]]:
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


def polyharmonic_closed_form(mmap: MobiusMap, order: int, x) -> tuple:
    """Closed-form Delta^k phi for the eps = 2 family (exact scalars)."""
    if mmap.epsilon != 2:
        raise MapValidationError("closed form applies to the eps = 2 family")
    u = tuple(rational(xi) - ai for xi, ai in zip(x, mmap.a))
    f = sum(v * v for v in u)
    coeff = closed_form_coefficient(mmap.dim, order)
    au = mobius.mat_vec(mmap.A, u)
    return tuple(coeff * mmap.k * v / f ** (order + 1) for v in au)


# -- radial coefficient extraction --------------------------------------------


def radial_coefficients(
    evaluator: Callable[[tuple], object],
    direction: Sequence,
    max_degree: int,
    ts: Sequence | None = None,
    extra: int = 1,
) -> list:
    """Exact coefficients of a radial polynomial along a ray.

    ``evaluator`` receives the point t * direction and must return an exact
    rational that is a polynomial in s = t^2 of degree <= max_degree (the
    caller has already cleared the known denominators).  Samples that raise
    toolkit errors (singular set hits) are skipped.  ``extra`` additional
    samples must agree with the interpolant, which catches an underestimated
    degree.  Returns monomial coefficients in s, constant first.
    """
    direction = tuple(rational(v) for v in direction)
    if sum(v * v for v in direction) != 1:
        raise InterpolationError("direction must have exact unit length")
    if ts is None:
        ts = [Fraction(j, j + 1) for j in range(1, 4 * (max_degree + extra) + 2)]
    samples: list[tuple] = []
    needed = max_degree + 1 + extra
    for t in ts:
        tq = rational(t.numerator, t.denominator) if isinstance(t, Fraction) else rational(t)
        point = tuple(tq * v for v in direction)
        try:
            val = evaluator(point)
        except PolyharmError:
            continue
        samples.append((tq * tq, val))
        if len(samples) == needed:
            break
    if len(samples) < needed:
        raise InterpolationError(
            f"only {len(samples)} usable samples for degree {max_degree} + {extra} checks"
        )
    nodes = samples[: max_degree + 1]
    coeffs = _newton_to_monomial(nodes)
    for sv, val in samples[max_degree + 1 :]:
        acc = rational(0)
        power = rational(1)
        for cfr in coeffs:
            acc += cfr * power
            power *= sv
        if acc != val:
            raise InterpolationError(
                "extra sample inconsistent with the interpolant: degree underestimated"
            )
    return coeffs


def _newton_to_monomial(nodes: list[tuple]) -> list:
    """Exact interpolation through the nodes via Newton divided differences."""
    xs = [p for p, _ in nodes]
    divided = [v for _, v in nodes]
    n = len(nodes)
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            divided[i] = (divided[i] - divided[i - 1]) / (xs[i] - xs[i - level])
    # Horner expansion of the Newton form into ascending monomial coefficients
    coeffs = [divided[n - 1]]
    for i in range(n - 2, -1, -1):
        xi = xs[i]
        new = [rational(0)] * (len(coeffs) + 1)
        for j, cj in enumerate(coeffs):
            new[j] = new[j] - xi * cj
            new[j + 1] = new[j + 1] + cj
        new[0] = new[0] + divided[i]
        coeffs = new
    return coeffs
