"""Reference figures quoted in perfbench/README.md, measured in one process.

The items run in the order below, so a later item reuses whatever the package
memoised during an earlier one (the ``JetSpace`` index tables, for one).

    python3 perfbench/reference.py            # several minutes on 2 cores

1. The default ``sweep-biharmonic`` table (m 3..8, 3 trials, 5 points).
2. The exact (k=5, m=10) polyharmonic cell, traced, with its per-layer
   breakdown (self time by span name; ``jets.norm_sq`` inclusive).
3. The default ``sweep-polyharmonic`` table (k 1..5, m 3..12).

Each item prints its wall time, the time spent in cyclic garbage collection
(read through ``gc.callbacks``) and the process's peak RSS so far, and every
cell is checked against the paper's statements as in the benchmark.
"""

from __future__ import annotations

import gc
import resource
import sys
from time import perf_counter

from one_round import GCTimer, import_polyharm
from tracer import CELL_SPAN, Tracer
from workloads import Cell, check_cell, run_cell


def _check_table(kind: str, report: dict, trials: int, points: int) -> int:
    wrong = 0
    for out in report["cells"]:
        if kind == "poly":
            cell = Cell("poly", out["m"], "exact", trials, points, order=out["order"])
        else:
            cell = Cell("bih", out["m"], "exact", trials, points,
                        c1=out["c1"], c2=out["c2"], epsilon=out["epsilon"])
        problems = check_cell(cell, {"cells": [out]})
        for p in problems:
            print(f"  WRONG {cell.label()}: {p}")
        wrong += bool(problems)
    return wrong


def _timed(label: str, fn):
    gc.collect()
    with GCTimer() as gct:
        t0 = perf_counter()
        result = fn()
        wall = perf_counter() - t0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{label}: wall {wall:.2f} s, gc {gct.total:.2f} s ({100 * gct.total / wall:.1f}%), "
          f"peak rss {rss:.0f} MB", flush=True)
    return result


def main() -> int:
    polyharm = import_polyharm()
    verifier = polyharm.verifier
    wrong = 0

    report = _timed("sweep-biharmonic defaults", verifier.sweep_biharmonic)
    wrong += _check_table("bih", report, trials=3, points=5)

    cell = Cell("poly", 10, "exact", 1, 1, order=5)
    tracer = Tracer(polyharm)
    tracer.install()
    try:
        with tracer.span(CELL_SPAN):
            report = _timed("cell (k=5, m=10) traced", lambda: run_cell(verifier, cell, 0))
    finally:
        tracer.uninstall()
    wrong += bool(check_cell(cell, report))
    stats = tracer.layer_stats()
    for name, s in sorted(stats.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:34s} calls {s['calls']:6d}  self {s['self_s']:8.2f} s  total {s['total_s']:8.2f} s")

    report = _timed("sweep-polyharmonic defaults", verifier.sweep_polyharmonic)
    wrong += _check_table("poly", report, trials=1, points=1)

    print(f"cells disagreeing with the paper: {wrong}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
