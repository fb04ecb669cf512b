"""Host-speed probe: every time the benchmark reports is scaled by it.

The host this benchmark was tuned on runs the same code at speeds up to
1.9x apart, switching every few seconds (see README.md, "Host speed").  A
fixed loop of ``Fraction`` arithmetic, timed next to the measured work,
tracks that speed: a measured time scaled by ``PROBE_REF_S`` over the
probe's time is the time the work takes on a host where the probe takes
``PROBE_REF_S``, about this host's fast state.

This module imports only the standard library, so a child process can load
it before timing ``import polyharm``.
"""

import contextlib
import gc
import signal
from fractions import Fraction
from time import perf_counter

PROBE_ITERATIONS = 600
PROBE_REF_S = 0.0025
# a cell of several seconds can span both host states, so it is probed
# inside as well as at its ends
PROBE_INTERVAL_S = 0.25


def probe() -> float:
    """Seconds for a fixed loop of ``Fraction`` arithmetic: the host's speed now.

    Cyclic GC is paused during the loop, so the program's heap does not
    weigh on it.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        acc, step = Fraction(0), Fraction(3, 7)
        for i in range(1, PROBE_ITERATIONS):
            acc += step * Fraction(i, i + 2)
        return perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def at_reference_speed(elapsed: float, probes) -> float:
    """``elapsed`` scaled to the host speed at which the probe takes PROBE_REF_S,
    from the probes taken around (and during) it."""
    return elapsed * PROBE_REF_S * len(probes) / sum(probes)


class _InsideProbes:
    def __init__(self):
        self.probes: list[float] = []
        self.spent = 0.0  # time the probes took, to take off the call's time

    def on_alarm(self, signum, frame) -> None:
        t0 = perf_counter()
        self.probes.append(probe())
        self.spent += perf_counter() - t0


@contextlib.contextmanager
def probing_inside():
    """Probe every PROBE_INTERVAL_S while the block runs.

    The probes run from a SIGALRM handler, in this same thread, between two
    bytecodes of whatever the block is executing.  The yielded object holds
    their times (``probes``) and their total cost (``spent``).
    """
    inside = _InsideProbes()
    previous = signal.signal(signal.SIGALRM, inside.on_alarm)
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    try:
        yield inside
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, previous)
