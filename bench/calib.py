"""Host-speed reference and the estimators that use it.

Small shared machines drift in speed.  On the 2-vCPU machine this benchmark
was written on, the same run took anywhere from 1x to 1.7x its quiet-phase
time, in phases of seconds to many minutes.  Ten seeds of a workload then
spread by 20-50% (IQR/median), which swamps any change a program makes.

So a short pure-Python reference kernel, independent of the program, is
timed before every op, after the last op of a pass and around every set-up
sample.  Each sample is rescaled to the reference host speed:

    t * REFERENCE_S / max(reference before, reference after)

``REFERENCE_S`` is the kernel's time on that machine in a quiet phase, so
the figures read as milliseconds on it.  A change that speeds the program
up lowers them in proportion; a host that slows everything down leaves them
nearly unchanged.  Each op's time is the median of its rescaled samples
over the passes; set-up is the median of its rescaled samples.  The run
record also keeps the raw, unscaled figures.  Standard library only.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

REFERENCE_S = 130e-6
_REF_REPEATS = 3


def _kernel() -> float:
    d = {}
    for i in range(600):
        d[(i, i & 7)] = math.sqrt(i) + math.log1p(i)
    return sum(d.values())


def reference() -> float:
    """Seconds the reference kernel takes now (best of a few repeats)."""
    best = math.inf
    for _ in range(_REF_REPEATS):
        t0 = perf_counter()
        _kernel()
        best = min(best, perf_counter() - t0)
    return best


def rescale(seconds: float, ref_before: float, ref_after: float) -> float:
    """A sample's time at the reference host speed."""
    return seconds * REFERENCE_S / max(ref_before, ref_after)


def op_times(passes, scaled: bool = True) -> list:
    """Per-op median over the passes, rescaled or raw.

    Each pass holds ``times`` (one per op) and ``refs`` (one before each op
    and one after the last).
    """
    out = []
    for i in range(len(passes[0]["times"])):
        if scaled:
            samples = [rescale(p["times"][i], p["refs"][i], p["refs"][i + 1]) for p in passes]
        else:
            samples = [p["times"][i] for p in passes]
        out.append(statistics.median(samples))
    return out


def percentile(values, q: int) -> float:
    """Linear-interpolated percentile (q in 1..99)."""
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
