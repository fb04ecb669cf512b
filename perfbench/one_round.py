"""One round of a workload (every cell once), in a process of its own.

    python3 perfbench/one_round.py --workload bih-table --seed 0 --trace 0

``run.py`` starts this once per round and waits for it, so each round pays
what a fresh ``polyharm sweep-*`` process pays: no memo, however it is held,
survives from one round to the next.  The import of polyharm is not timed.

Untraced, each cell is timed with host probes at its ends and inside it
(``hostprobe.probing_inside``).  Traced (``--trace 1``), the public
functions of the layers are wrapped (``tracer.py``), each cell is probed
only at its ends so that no probe lands inside a span, and the per-layer
figures are computed here and written under ``layers``; the spans go to
``--spans``.

The last line of standard output is one JSON object: the round's attempted
and failed cells, the problems found, the cell times at reference speed
(null for a cell that raised), the round time at reference speed (``wall``,
cells that raised left out) and as measured (``raw_wall``), the probes, and
the time spent in cyclic garbage collection at reference speed (``gc_s``).
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import json
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from hostprobe import PROBE_REF_S, at_reference_speed, probe, probing_inside
from tracer import CELL_SPAN, TARGETS, Tracer
from workloads import WORKLOADS, check_cell, run_cell

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_polyharm():
    """Import polyharm from this checkout's src/, never from site-packages."""
    if not (SRC / "polyharm" / "__init__.py").is_file():
        raise SystemExit(f"polyharm sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import polyharm

    if Path(polyharm.__file__).resolve().parent != SRC / "polyharm":
        raise SystemExit(f"imported polyharm from {polyharm.__file__}, not from {SRC}")
    return polyharm


class GCTimer:
    """Total time spent in cyclic garbage collection, via gc.callbacks."""

    def __init__(self):
        self.total = 0.0
        self._start = None

    def __call__(self, phase, info):
        if phase == "start":
            self._start = perf_counter()
        elif self._start is not None:
            self.total += perf_counter() - self._start
            self._start = None

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)
        return False


def run_round(verifier, cells, seed: int, tracer=None) -> dict:
    """Every cell once.  A cell that raises or disagrees with the paper is a
    failed cell and adds a problem line; the round goes on."""
    rnd = {
        "attempted": 0,
        "failed": 0,
        "problems": [],
        "cell_times": [],
        "wall": 0.0,
        "raw_wall": 0.0,
        "probes": [probe()],
    }
    for cell in cells:
        rnd["attempted"] += 1
        raised = False
        with probing_inside() if tracer is None else contextlib.nullcontext() as inside:
            t0 = perf_counter()
            try:
                if tracer is None:
                    report = run_cell(verifier, cell, seed)
                else:
                    with tracer.span(CELL_SPAN):
                        report = run_cell(verifier, cell, seed)
                problems = check_cell(cell, report)
            except Exception as exc:  # a cell that raises is a failed cell; keep going
                raised = True
                problems = [f"raised {type(exc).__name__}: {exc}"]
                print(f"cell {cell.label()} raised:\n{traceback.format_exc()}", file=sys.stderr)
            elapsed = perf_counter() - t0
        inside_probes = []
        if inside is not None:
            elapsed -= inside.spent
            inside_probes = inside.probes
        rnd["probes"].append(probe())
        scaled = at_reference_speed(elapsed, [rnd["probes"][-2], *inside_probes, rnd["probes"][-1]])
        if raised:
            rnd["cell_times"].append(None)
        else:
            rnd["cell_times"].append(scaled)
            rnd["wall"] += scaled
            rnd["raw_wall"] += elapsed
        if problems:
            rnd["failed"] += 1
            rnd["problems"].extend(f"{cell.label()}: {p}" for p in problems)
    return rnd


def layer_figures(tracer, probes) -> dict:
    """calls, self_s and total_s of every traced layer (0 for a layer the round
    never called), and the counters derived from operands and results.  Span
    times are scaled to reference speed by the round's median probe."""
    stats = tracer.layer_stats()
    scale = PROBE_REF_S / statistics.median(probes)
    figures = {}
    for layer in {span for _, _, span in TARGETS} | {CELL_SPAN}:
        s = stats.get(layer, {})
        figures[f"{layer}.calls"] = s.get("calls", 0)
        figures[f"{layer}.self_s"] = s.get("self_s", 0.0) * scale
        figures[f"{layer}.total_s"] = s.get("total_s", 0.0) * scale

    c = tracer.counters
    points = figures["residuals.evaluate.calls"]
    sampler_factor_calls = tracer.count_within("mobius.conformal_factor_value", "verifier.sample_points")
    figures.update(
        {
            "jets.div.coeffs": c["div_coeffs"],
            "jets.div.max_coeff_bits": c["div_max_bits"],
            "jets.mul.useful_ratio": c["mul_useful"] / c["mul_visited"] if c["mul_visited"] else 0.0,
            "jets.coeffs_out": c["coeffs_out"],
            "spaceform.inv_sigma_jet.calls_per_point": (
                figures["spaceform.inv_sigma_jet.calls"] / points if points else 0.0
            ),
            "verifier.sample_points.accept_ratio": (
                c["sampler_points"] / sampler_factor_calls if sampler_factor_calls else 0.0
            ),
        }
    )
    return figures


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", type=Path, help="where a traced round writes its spans")
    args = p.parse_args(argv)

    polyharm = import_polyharm()
    cells = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = Tracer(polyharm)
        tracer.install()
    gc.collect()
    try:
        with GCTimer() as gc_timer:
            rnd = run_round(polyharm.verifier, cells, args.seed, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    rnd["gc_s"] = gc_timer.total * PROBE_REF_S / statistics.median(rnd["probes"])
    if tracer is not None:
        rnd["layers"] = layer_figures(tracer, rnd["probes"])
        if args.spans is not None:
            tracer.write_spans(args.spans)
    print(json.dumps(rnd))
    return 0


if __name__ == "__main__":
    sys.exit(main())
