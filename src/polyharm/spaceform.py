"""Conformal chart models of the three space forms and their curved operators.

Each model is a chart (R^m, sigma^2 delta) with

    flat        sigma = 1                 curvature  0
    sphere      sigma = 2 / (1 + |x|^2)   curvature +1   (chart misses one point)
    hyperbolic  sigma = 2 / (1 - |x|^2)   curvature -1   (unit ball only)

Derivatives are taken through the reciprocal chart factor w = 1/sigma,
which is the quadratic (1 + c|x|^2)/2 for curvature c != 0 and has the
handy gradient  grad w = c * x.  Its jet is written straight into its
2m + 1 nonzero coefficients (value, c * x0, and c/2 on each h_i^2), so it
costs no products however often it is rebuilt.  The curved operators are

    lapbar f  = sigma^-2 lap f + (m-2) sigma^-3 <grad sigma, grad f>
              = w^2 lap f - (m-2) c w <x, grad f>,
    gradbar f = sigma^-2 grad f = w^2 grad f,
    |gradbar f|^2_gbar = sigma^-2 |grad f|^2 = w^2 |grad f|^2,

where the second form of lapbar follows from grad sigma = -sigma^2 grad w.
Each operator forms w and its other factors at the degree of its result
(D - 2 for lapbar), since the coefficients above it are never read.  The
residual kernel of :mod:`polyharm.residuals` forms the same operators on
integers from the Taylor coefficients of the factor; these jet versions are
the oracle its tests compare with.
Curvatures are restricted to {-1, 0, +1}: the classification statements are
for unit curvatures and general values would only rescale.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import jets
from .errors import ChartDomainError, ShapeMismatchError
from .jets import Jet
from .rationals import rational

CURVATURES = (-1, 0, 1)
_NAMES = {0: "flat", 1: "sphere", -1: "hyperbolic"}
_CURVATURE_OF = {v: k for k, v in _NAMES.items()}


@dataclass(frozen=True)
class SpaceFormModel:
    """A space form presented in its conformal chart."""

    dim: int
    curvature: int

    def __post_init__(self):
        if self.dim < 2:
            raise ShapeMismatchError("space forms here need dimension >= 2")
        if self.curvature not in CURVATURES:
            raise ShapeMismatchError(f"curvature must be in {CURVATURES}")

    @property
    def name(self) -> str:
        return _NAMES[self.curvature]

    @classmethod
    def flat(cls, dim: int) -> "SpaceFormModel":
        return cls(dim, 0)

    @classmethod
    def sphere(cls, dim: int) -> "SpaceFormModel":
        return cls(dim, 1)

    @classmethod
    def hyperbolic(cls, dim: int) -> "SpaceFormModel":
        return cls(dim, -1)

    @classmethod
    def named(cls, name: str, dim: int) -> "SpaceFormModel":
        if name not in _CURVATURE_OF:
            raise ShapeMismatchError(f"unknown model {name!r}")
        return cls(dim, _CURVATURE_OF[name])


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
