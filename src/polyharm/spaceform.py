"""Conformal chart models of the three space forms.

Each model is a chart (R^m, sigma^2 delta) with

    flat        sigma = 1                 curvature  0
    sphere      sigma = 2 / (1 + |x|^2)   curvature +1   (chart misses one point)
    hyperbolic  sigma = 2 / (1 - |x|^2)   curvature -1   (unit ball only)

The reciprocal factor w = 1/sigma is the quadratic (1 + c|x|^2)/2, and the
curved operators are formed through it, on integers, by
:class:`polyharm.residuals.ConformalGeometry`.
Curvatures are restricted to {-1, 0, +1}: the classification statements are
for unit curvatures and general values would only rescale.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ShapeMismatchError

CURVATURES = (-1, 0, 1)
_NAMES = {0: "flat", 1: "sphere", -1: "hyperbolic"}
_CURVATURE_OF = {v: k for k, v in _NAMES.items()}


def _reduce_through_constructor(self, protocol):
    """Copies and pickles call the class at every protocol; 0 and 1 would not."""
    return type(self), self.__getnewargs__()


class _Chart(NamedTuple):
    dim: int
    curvature: int


class SpaceFormModel(_Chart):
    """A space form presented in its conformal chart.

    A named tuple (dim, curvature): immutable, and equal, hashed and printed
    by its fields.  Construction refuses a dimension or curvature that is not
    an int, a dimension below 2 and a curvature outside {-1, 0, 1}, and
    ``_make`` (so ``_replace``), copies and pickles all go through it.
    """

    __slots__ = ()

    def __new__(cls, dim: int, curvature: int):
        if type(dim) is not int or type(curvature) is not int:
            raise ShapeMismatchError(f"dimension and curvature must be integers, got {dim!r} and {curvature!r}")
        if dim < 2:
            raise ShapeMismatchError("space forms here need dimension >= 2")
        if curvature not in CURVATURES:
            raise ShapeMismatchError(f"curvature must be in {CURVATURES}")
        return super().__new__(cls, dim, curvature)

    _make = classmethod(lambda cls, fields: cls(*fields))
    __reduce_ex__ = _reduce_through_constructor

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
