"""Spans around polyharm's public functions, recorded from outside the package.

``Tracer.install`` replaces each traced function or method with a wrapper
wherever the package binds it, and ``uninstall`` puts the originals back.
A span records name, start, end and the index of its parent span.  A
layer's self time is its span's duration minus the time its child spans
cover; calls are single-threaded, so children never overlap.

The wrappers' own bookkeeping (the span records and the counters computed
from operands and results) is kept off the span clock: every span time is
read from ``perf_counter()`` minus the bookkeeping time accumulated so far,
so self times show the program's work and the cost of tracing shows only in
``trace.overhead_s``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import sys
from time import perf_counter

import numpy as np

# (module, attribute path, span name).  Jet.__radd__ and the module aliases
# jets.div/partial/laplacian call the traced methods, so they are not listed.
TARGETS = (
    ("jets", "Jet.__truediv__", "jets.div"),
    ("jets", "Jet.__mul__", "jets.mul"),
    ("jets", "Jet.__add__", "jets.add"),
    ("jets", "Jet.__sub__", "jets.add"),
    ("jets", "Jet.laplacian", "jets.laplacian"),
    ("jets", "Jet.partial", "jets.partial"),
    ("jets", "iterated_laplacian_product", "jets.iterlap_product"),
    ("jets", "norm_sq", "jets.norm_sq"),
    ("spaceform", "laplace_beltrami", "spaceform.laplace_beltrami"),
    ("spaceform", "grad_norm_sq_bar", "spaceform.grad_norm_sq_bar"),
    ("spaceform", "inv_sigma_jet", "spaceform.inv_sigma_jet"),
    ("mobius", "conformal_factor", "mobius.conformal_factor"),
    ("mobius", "apply_jet", "mobius.apply_jet"),
    ("mobius", "euclidean_factor", "mobius.euclidean_factor"),
    ("mobius", "conformal_factor_value", "mobius.conformal_factor_value"),
    ("residuals", "ConformalGeometry.__init__", "residuals.geometry"),
    ("residuals", "evaluate_residuals", "residuals.evaluate"),
    ("residuals", "polyharmonic_orders", "residuals.polyharmonic_orders"),
    ("residuals", "polyharmonic_closed_form", "residuals.closed_form"),
    ("verifier", "sample_points", "verifier.sample_points"),
)

CELL_SPAN = "verifier.cell"


def _coeff_bits(c) -> int:
    """Bit length of an exact coefficient (larger of numerator, denominator)."""
    num = getattr(c, "numerator", None)
    if num is None:  # float mode
        return 0
    return max(int(num).bit_length(), int(c.denominator).bit_length())


class Tracer:
    """Spans and counters for one traced round of one package."""

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.excluded = 0.0  # bookkeeping time kept off the span clock
        self.counters = {
            "div_coeffs": 0,
            "div_max_bits": 0,
            "mul_useful": 0,
            "mul_visited": 0,
            "coeffs_out": 0,
            "sampler_points": 0,
        }
        self._patched: list[tuple[object, str, object]] = []
        self._graded_sizes: dict[tuple[int, int], np.ndarray] = {}

    # -- installing wrappers -------------------------------------------------

    def install(self) -> None:
        modules = [
            m for name, m in sys.modules.items()
            if name == self.package.__name__ or name.startswith(self.package.__name__ + ".")
        ]
        for mod_name, path, span in TARGETS:
            owner = getattr(self.package, mod_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            original = vars(owner).get(attr)
            if original is None:
                continue  # the layer no longer has this entry point
            wrapper = self._wrap(span, original)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            # rebind every name the package gave this function (from-imports too)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- spans -------------------------------------------------------------------

    def _wrap(self, name: str, fn):
        after = {
            "jets.div": self._after_div,
            "jets.mul": self._after_mul,
            "verifier.sample_points": self._after_sample_points,
        }.get(name)
        tracer = self
        # kernel outputs only: norm_sq's result is already counted by its add
        is_jet_op = name.startswith("jets.") and name != "jets.norm_sq"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            spans = tracer.spans
            rec = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1]
            tracer.stack.append(len(spans))
            spans.append(rec)
            start = perf_counter()
            tracer.excluded += start - t0
            rec[1] = start - tracer.excluded
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                rec[2] = end - tracer.excluded
                tracer.stack.pop()
            if is_jet_op:
                coeffs = getattr(result, "coeffs", None)
                if coeffs is not None:
                    tracer.counters["coeffs_out"] += len(coeffs)
            if after is not None:
                after(args, result)
            tracer.excluded += perf_counter() - end
            return result

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around benchmark-side work (a cell)."""
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter() - self.excluded
        try:
            yield
        finally:
            rec[2] = perf_counter() - self.excluded
            self.stack.pop()

    # -- counters computed from operands and results ----------------------------

    def _after_div(self, args, result) -> None:
        if len(args) < 2 or not hasattr(args[1], "coeffs"):
            return  # jet divided by a scalar is a scaling
        coeffs = result.coeffs
        c = self.counters
        c["div_coeffs"] += len(coeffs)
        c["div_max_bits"] = max(c["div_max_bits"], max(map(_coeff_bits, coeffs), default=0))

    def _graded_counts(self, dim: int, degree: int) -> np.ndarray:
        """counts[d] = number of multi-indices of total degree <= d."""
        key = (dim, degree)
        counts = self._graded_sizes.get(key)
        if counts is None:
            counts = np.array([math.comb(dim + d, d) for d in range(degree + 1)], dtype=np.int64)
            self._graded_sizes[key] = counts
        return counts

    def _after_mul(self, args, result) -> None:
        """Inner positions the dense truncated product visits, and how many of
        them hold a nonzero coefficient (the pairs actually multiplied).

        The product loops over the nonzero coefficients p of the sparser
        operand and, for each, over every position of the other operand below
        degree D - |p|, in graded order.
        """
        if len(args) < 2 or not hasattr(args[1], "coeffs"):
            return
        a, b = args[0], args[1]
        degree = min(a.degree, b.degree)
        counts = self._graded_counts(a.dim, degree)
        size = int(counts[-1])
        nz_a = np.fromiter((bool(v) for v in a.coeffs[:size]), dtype=bool, count=size)
        nz_b = np.fromiter((bool(v) for v in b.coeffs[:size]), dtype=bool, count=size)
        outer, inner = (nz_a, nz_b) if nz_a.sum() <= nz_b.sum() else (nz_b, nz_a)
        pos = np.flatnonzero(outer)
        deg = np.searchsorted(counts, pos, side="right")
        limits = counts[degree - deg]
        prefix = np.concatenate(([0], np.cumsum(inner, dtype=np.int64)))
        self.counters["mul_visited"] += int(limits.sum())
        self.counters["mul_useful"] += int(prefix[limits].sum())

    def _after_sample_points(self, args, result) -> None:
        self.counters["sampler_points"] += len(result)

    # -- results -------------------------------------------------------------------

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self time and inclusive time."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats: dict[str, dict[str, float]] = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            s = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            s["calls"] += 1
            s["self_s"] += (end - start) - covered
            s["total_s"] += end - start
        return stats

    def count_within(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` that ran inside a span called ``ancestor``."""
        count = 0
        for span_name, _, _, parent in self.spans:
            if span_name != name:
                continue
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            count += parent >= 0
        return count

    def write_spans(self, path) -> None:
        """One JSON array per line: [id, parent id or -1, name, start, end]."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps([i, parent, name, start, end]))
                fh.write("\n")
