"""A reference clock that corrects timings for the machine's speed.

On a shared virtual machine the processor can run 1.3 to 1.75 times
slower for stretches of several seconds, so the same repetition takes
from 10 s to 13 s.  `ReferenceClock` times a small fixed probe (Python,
numpy and a sparse LU) in the benchmark's own thread every
`PROBE_INTERVAL_S` of wall time, from a ``SIGALRM`` handler, while the
workload runs.  Between two probes the machine runs at the speed those
probes measured; a stretch of wall time of length dt counts as
``dt * PROBE_REFERENCE_S / p``, where p is the local median probe time.
So a timing in reference seconds is what the stretch would have taken on
a machine that runs the probe in `PROBE_REFERENCE_S`.  Probe time
itself counts as zero.

The probe runs between bytecodes of the benchmark's thread, so it sees
the speed of the processor that thread runs on; a long call into C
delays it until the call returns.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as sla

PROBE_INTERVAL_S = 0.1
# The probe's time on an unloaded 2-core Intel Xeon virtual machine, so
# that reference seconds read close to wall seconds there.
PROBE_REFERENCE_S = 1.7e-3
# probes on each side of a stretch whose median sets its speed
WINDOW = 2

_N = 300
_A = (sp.random(_N, _N, density=0.01, random_state=1, format="csc") + 10 * sp.eye(_N)).tocsc()
_B = np.ones(_N)
_X = np.linspace(0.0, 1.0, 48 * 48).reshape(48, 48)
_V = np.linspace(0.0, 1.0, 20000)


def _kernel() -> None:
    acc = {}
    for i in range(1500):
        acc[i % 97] = acc.get(i % 97, 0) + i * i
    sla.splu(_A).solve(_B)
    _X @ _X
    np.sqrt(_V * _V + 1.0).sum()


def probe() -> float:
    """Seconds for one fixed mix of interpreter, numpy and SuperLU work.
    The mix runs once untimed first: after a large dense or sparse
    factorization the probe's data are out of cache, and the probe should
    measure the processor's speed, not what the workload left in cache."""
    _kernel()
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


class ReferenceClock:
    """Probes the machine's speed while active; afterwards converts
    wall-clock instants to reference seconds with `reference_seconds`."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _on_alarm(self, signum, frame):
        # The probe frees everything it allocates; with the collector off
        # it cannot trigger a collection, so the workload's collections
        # happen where they would without it.
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        duration = probe()
        self.starts.append(start)
        self.ends.append(time.perf_counter())
        self.durations.append(duration)
        if enabled:
            gc.enable()

    def __enter__(self):
        probe()  # let lazy set-up inside numpy and scipy happen first
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._on_alarm(None, None)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._on_alarm(None, None)
        self._build()
        return False

    def _build(self) -> None:
        """Cumulative reference seconds at the end of every probe, and the
        rate of each stretch between one probe's end and the next start."""
        d = self.durations
        self.rates = []
        for k in range(len(d) - 1):
            local = d[max(0, k - WINDOW + 1): k + WINDOW + 1]
            self.rates.append(PROBE_REFERENCE_S / statistics.median(local))
        self.cumulative = [0.0]
        for k, rate in enumerate(self.rates):
            self.cumulative.append(self.cumulative[-1] + rate * (self.starts[k + 1] - self.ends[k]))

    def at(self, t: float) -> float:
        """Reference seconds from the first probe's end to instant t."""
        k = bisect.bisect_right(self.ends, t) - 1
        if k < 0:
            return 0.0
        if k >= len(self.rates):
            return self.cumulative[-1]
        return self.cumulative[k] + self.rates[k] * max(0.0, min(t, self.starts[k + 1]) - self.ends[k])

    def reference_seconds(self, start: float, end: float) -> float:
        return self.at(end) - self.at(start)

    def probe_seconds(self, start: float, end: float) -> float:
        """Wall time spent in probes between start and end."""
        return sum(
            max(0.0, min(e, end) - max(s, start)) for s, e in zip(self.starts, self.ends)
        )
