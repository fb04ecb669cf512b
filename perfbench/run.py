"""Benchmark of polyharm's classification sweeps, driven through the public API.

    python3 perfbench/run.py --workload bih-table --seed 0 --seconds 30 --trace 0

One operation is one table cell: one sweep call restricted to that cell.  A
run repeats whole rounds (every cell of the workload once) for about
``--seconds`` seconds, always at least one round, and checks every cell's
verdicts against the paper's statements (see ``workloads.py``).  Each round
runs in a fresh child process (``one_round.py``), started after the previous
one has exited, so it pays what a fresh ``polyharm sweep-*`` process pays.

--trace 0 prints the end-to-end metrics: setup_s (median import time of
polyharm over fresh child processes, run one at a time before the
measurement), wall_s (median round time), cell_p50_s / cell_p90_s (median and
90th percentile over cells of each cell's mean latency across the rounds) and
peak_rss_mb (peak resident memory of the largest child process).

Every time is reported at a reference host speed (see ``hostprobe.py``).
The raw round times and the probe median are printed too.

--trace 1 runs one untraced round and then one traced round, and prints the
per-layer metrics from the traced round (see ``tracer.py``) plus
gc.pause_s (cyclic GC time of the untraced round) and trace.overhead_s, the
traced minus the untraced round time.  ``--seconds`` is not used.

The metric names and units are read from BENCHMARK.json.  The last line of
standard output is one JSON object; the same object and, for traced runs,
the spans are written under perfbench/out/.  Every process runs one thread:
numeric-library thread pools are pinned to one thread in the environment the
children inherit.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from hostprobe import PROBE_REF_S, at_reference_speed
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 25
SETUP_TIMEOUT_S = 60
ROUND_TIMEOUT_S = 150

# Timed in a fresh process, between two host probes.  hostprobe loads the
# standard library's fractions module first, so that module's import (about
# 3 ms here) is not part of setup_s.
_IMPORT_PROBE = (
    "import sys\n"
    "sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
    "from time import perf_counter\n"
    "from hostprobe import probe\n"
    "before = probe()\n"
    "t0 = perf_counter()\n"
    "import polyharm\n"
    "elapsed = perf_counter() - t0\n"
    "print(elapsed, before, probe())\n"
)


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """(end-to-end, per-layer) metric name -> unit, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0, help="sweep seed (default 0)")
    p.add_argument("--seconds", type=float, default=30.0, help="measurement length")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def measure_setup() -> float:
    """Median import time of polyharm at reference speed, each sample in a
    fresh process started after the previous one has exited."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(SRC), str(HERE)],
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            raise SystemExit(f"import probe failed:\n{proc.stderr}")
        elapsed, before, after = map(float, proc.stdout.split()[-3:])
        samples.append(at_reference_speed(elapsed, (before, after)))
    return statistics.median(samples)


def run_child_round(workload: str, seed: int, trace: int = 0, spans: Path | None = None) -> dict:
    """One round in a fresh ``one_round.py`` process; waits for it to exit.

    A child that crashes, times out or prints no result counts every cell of
    the round as failed, with a problem line saying why.  ``duration`` is the
    child's whole life, import included, for planning the next round.
    """
    cmd = [sys.executable, str(HERE / "one_round.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    t0 = perf_counter()
    why = None
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=ROUND_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        why = f"round process killed after {ROUND_TIMEOUT_S} s"
    else:
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            why = f"round process exited with code {proc.returncode}"
    if why is None:
        try:
            rnd = json.loads(lines[-1])
        except json.JSONDecodeError:
            why = "round process printed no result"
    if why is not None:
        n = len(WORKLOADS[workload])
        rnd = {"attempted": n, "failed": n, "problems": [f"{workload}: {why}"],
               "cell_times": [None] * n, "wall": 0.0, "raw_wall": 0.0, "probes": [], "gc_s": 0.0}
    rnd["duration"] = perf_counter() - t0
    return rnd


def _percentile(values, q: int) -> float:
    """q-th percentile (1..99), interpolated within the observed range."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[list[dict], dict]:
    setup = measure_setup()
    rounds: list[dict] = []
    t_start = perf_counter()
    while True:
        rounds.append(run_child_round(workload, seed))
        elapsed = perf_counter() - t_start
        if elapsed + statistics.median(r["duration"] for r in rounds) > seconds:
            break
    # each cell's mean over the rounds: with the two or three samples a run
    # holds, a median would only pick one of them
    per_cell = []
    for ts in zip(*(r["cell_times"] for r in rounds)):
        ok = [t for t in ts if t is not None]
        if ok:
            per_cell.append(statistics.fmean(ok))
    metrics = {
        "setup_s": setup,
        "wall_s": statistics.median(r["wall"] for r in rounds),
        "cell_p50_s": statistics.median(per_cell) if per_cell else 0.0,
        "cell_p90_s": _percentile(per_cell, 90) if per_cell else 0.0,
        # the largest child waited for: a round, not an import probe
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    return rounds, metrics


def per_layer(workload: str, seed: int, spans_path: Path) -> tuple[list[dict], dict]:
    plain = run_child_round(workload, seed)
    traced = run_child_round(workload, seed, trace=1, spans=spans_path)
    metrics = dict(traced.get("layers", {}))
    metrics["gc.pause_s"] = plain["gc_s"]
    metrics["trace.overhead_s"] = traced["wall"] - plain["wall"]
    return [plain, traced], metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "polyharm" / "__init__.py").is_file():
        raise SystemExit(f"polyharm sources not found under {SRC}")
    end_to_end_units, per_layer_units = metric_units()

    cells = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        rounds, metrics = per_layer(args.workload, args.seed, OUT / f"{stem}.spans.jsonl")
        units = per_layer_units
    else:
        rounds, metrics = end_to_end(args.workload, args.seed, args.seconds)
        units = end_to_end_units

    problems = [p for r in rounds for p in r["problems"]]
    for p in problems:
        print(f"WRONG {p}", file=sys.stderr)
    correct = not problems
    if correct and units.keys() - metrics.keys():
        raise SystemExit(f"BENCHMARK.json names metrics not computed: {sorted(units.keys() - metrics.keys())}")
    result = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": units[name]} for name in units},
    }
    print(
        f"# {args.workload} seed={args.seed} rounds={len(rounds)} cells/round={len(cells)} "
        f"attempted={result['attempted']} failed={result['failed']}"
    )
    for name, m in result["metrics"].items():
        print(f"# {name:42s} {m['value']:>14.6g} {m['unit']}")
    probes = [p for r in rounds for p in r["probes"]]
    if probes:
        raw = ", ".join(f"{r['raw_wall']:.3f}" for r in rounds)
        print(
            f"# as measured: round times {raw} s; "
            f"host probe median {1000 * statistics.median(probes):.3f} ms "
            f"(times above are scaled to {1000 * PROBE_REF_S:.3f} ms)"
        )
    line = json.dumps(result)
    (OUT / f"{stem}.json").write_text(line + "\n")
    print(line)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
