"""Workload cell lists and the per-cell correctness checks.

A cell is one call of ``verifier.sweep_biharmonic`` or
``verifier.sweep_polyharmonic`` restricted to one table entry.  The sweeps
draw each cell's maps from an rng tag built from (seed, cell, trial), so a
cell gives the same result whether it runs alone or inside a full sweep.

The expected verdicts are written here from the paper's statements, not read
from the program (no golden files, no ``verifier.expected_*``, no ``match``
fields), so a fault that changed both the program's verdicts and its own
truth table would still be caught.
"""

from __future__ import annotations

from dataclasses import dataclass

CURVATURE_PAIRS = tuple((c1, c2) for c1 in (-1, 0, 1) for c2 in (-1, 0, 1))


@dataclass(frozen=True)
class Cell:
    kind: str  # "bih" or "poly"
    m: int
    mode: str
    trials: int
    points: int
    order: int = 0  # polyharmonic order k
    c1: int = 0  # domain curvature
    c2: int = 0  # target curvature
    epsilon: int = 0  # map branch

    def label(self) -> str:
        if self.kind == "poly":
            return f"{self.mode}:poly:k={self.order}:m={self.m}"
        return f"{self.mode}:bih:m={self.m}:c1={self.c1}:c2={self.c2}:eps={self.epsilon}"


def _bih_table(mode: str, trials: int, points: int) -> list[Cell]:
    return [
        Cell("bih", m, mode, trials, points, c1=c1, c2=c2, epsilon=eps)
        for m in range(3, 9)
        for c1, c2 in CURVATURE_PAIRS
        for eps in (0, 2)
    ]


def _poly_cells(mode: str, pairs, trials: int = 1) -> list[Cell]:
    return [Cell("poly", m, mode, trials, 1, order=k) for k, m in pairs]


def polyharmonic_zero(m: int, order: int) -> bool:
    """Paper: Delta^k phi vanishes identically iff m is even and m <= 2k."""
    return m % 2 == 0 and m <= 2 * order


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS: dict[str, list[Cell]] = {
    # orders 3 to 5 (degree-6 to degree-10 jets, 6,435 to 43,758
    # coefficients); every polyharmonic verdict kind is present.  Two trials
    # per cell, because one map's cost varies up to twofold with the seed.
    "poly-deep": _poly_cells(
        "exact", [(3, 9), (3, 10), (4, 7), (4, 8), (4, 9), (4, 10), (5, 6), (5, 7)], trials=2
    ),
    # the exact 108-cell biharmonic table, two trials of three points per cell
    "bih-table": _bih_table("exact", 2, 3),
    # both sweeps in float mode: the biharmonic table at the CLI defaults
    # (3 trials, 5 points), and polyharmonic k 1..5 x m 3..10 without the
    # ten cells where Delta^k phi vanishes.  Float mode calls such a cell
    # zero only when |Delta^k phi| <= 1e-9, an absolute bound, and near the
    # pole the rounding error passes it on some seeds: (5, 4) at seeds 25,
    # 34 and 42, (4, 4) at 35, (3, 4) at 342 and 1297.
    "float-tables": _bih_table("float", 3, 5)
    + _poly_cells(
        "float",
        [(k, m) for k in range(1, 6) for m in range(3, 11) if not polyharmonic_zero(m, k)],
    ),
}


def run_cell(verifier, cell: Cell, seed: int) -> dict:
    """One sweep call restricted to this cell; returns the sweep's report."""
    if cell.kind == "poly":
        return verifier.sweep_polyharmonic(
            orders=[cell.order],
            m_values=[cell.m],
            trials=cell.trials,
            seed=seed,
            points=cell.points,
            mode=cell.mode,
        )
    return verifier.sweep_biharmonic(
        m_values=[cell.m],
        pairs=[(cell.c1, cell.c2)],
        eps_values=[cell.epsilon],
        trials=cell.trials,
        seed=seed,
        points=cell.points,
        mode=cell.mode,
    )


def proper_biharmonic(m: int, c1: int, c2: int, epsilon: int) -> bool:
    """Paper: proper biharmonic iff m = 4 and the domain is flat; into a flat
    target only the inversive branch (eps = 2) qualifies."""
    return m == 4 and c1 == 0 and (epsilon == 2 or c2 != 0)


def biharmonic_verdict(m: int, c1: int, c2: int, epsilon: int) -> str:
    """The one verdict the paper allows for a cell.  Besides the proper cells,
    the eps = 0 branch between flat spaces is a homothety (constant conformal
    factor), hence harmonic; every other cell is not biharmonic.  The factor
    constraint holds for every map the sweep builds, so
    ``factor-constraint-violated`` is never right."""
    if proper_biharmonic(m, c1, c2, epsilon):
        return "proper-biharmonic"
    if c1 == 0 and c2 == 0 and epsilon == 0:
        return "harmonic"
    return "not-biharmonic"


def check_cell(cell: Cell, report: dict) -> list[str]:
    """Problems found in one cell's report; empty when it agrees with the paper."""
    if cell.trials < 1:
        return ["a cell with no trials would pass without a verdict"]
    cells = report.get("cells")
    if not isinstance(cells, list) or len(cells) != 1:
        return [f"expected exactly one cell, got {len(cells) if isinstance(cells, list) else cells!r}"]
    out = cells[0]
    trials = out.get("trials")
    if not isinstance(trials, list) or len(trials) != cell.trials:
        got = len(trials) if isinstance(trials, list) else trials
        return [f"expected {cell.trials} trials, got {got!r}"]
    problems = []
    if cell.kind == "poly":
        if (out.get("order"), out.get("m")) != (cell.order, cell.m):
            problems.append(f"cell reports (k, m) = ({out.get('order')}, {out.get('m')})")
        zero = polyharmonic_zero(cell.m, cell.order)
        proper = cell.m == 2 * cell.order
        for i, t in enumerate(trials):
            if t.get("zero") is not zero:
                problems.append(f"trial {i}: zero={t.get('zero')!r}, paper says {zero}")
            if t.get("proper") is not proper:
                problems.append(f"trial {i}: proper={t.get('proper')!r}, paper says {proper}")
            if t.get("closed_form_match") is not True:
                problems.append(f"trial {i}: closed_form_match={t.get('closed_form_match')!r}")
    else:
        got = (out.get("m"), out.get("c1"), out.get("c2"), out.get("epsilon"))
        if got != (cell.m, cell.c1, cell.c2, cell.epsilon):
            problems.append(f"cell reports (m, c1, c2, eps) = {got}")
        expected = biharmonic_verdict(cell.m, cell.c1, cell.c2, cell.epsilon)
        for i, t in enumerate(trials):
            if t.get("verdict") != expected:
                problems.append(f"trial {i}: verdict {t.get('verdict')!r}, paper says {expected!r}")
    return problems
