"""Host-speed normalisation of measured times.

The shared host the benchmark runs on changes speed by up to 1.5x for
seconds to minutes at a time while other tenants load it.  Every timed
sample is therefore bracketed by two runs of a fixed probe task, and
reported as ``raw * NOMINAL_S / probe``, with ``probe`` the mean of the
two runs: seconds at the host speed under which the probe takes
``NOMINAL_S``.  The probe does the kinds of work the simulator spends
its time on (heap-ordered event dispatch, dict updates, small numpy
arithmetic, JSON round trips) and uses nothing from the ``repro``
package, so a change to the program cannot change it.
"""

from __future__ import annotations

import gc
import heapq
import json
import random
import time

import numpy as np

#: Probe seconds on a quiet 2-vCPU x86-64 host; scales every
#: normalised time but cancels from every comparison.
NOMINAL_S = 0.040

_DOC = [{"rank": i, "t": i * 0.5, "ev": ["send", i % 7, [1.0, 2.0, 3.0]]}
        for i in range(4000)]


def probe() -> float:
    """Seconds one run of the probe task takes now.

    The garbage collector is off meanwhile, so the time does not depend
    on how many objects the measured program holds.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _probe_task()
    finally:
        if enabled:
            gc.enable()


def _probe_task() -> float:
    t0 = time.perf_counter()
    rng = random.Random(7)
    heap = [(rng.random(), i, {"r": i}) for i in range(2000)]
    heapq.heapify(heap)
    acc = 0.0
    for _ in range(30000):
        t, i, d = heapq.heappop(heap)
        d["r"] += 1
        acc += t
        heapq.heappush(heap, (t + rng.random(), i, d))
    a = np.arange(64.0)
    for _ in range(2000):
        acc += float((a * 1.5 + acc % 3).sum())
    json.loads(json.dumps(_DOC))
    return time.perf_counter() - t0


class HostSpeed:
    """A chain of probe runs, one between every two timed segments.

    A sample is either timed by the caller and passed to
    :meth:`normalise`, or timed here with :meth:`start`, :meth:`split`
    at each boundary the measured call reports (a sweep's points), and
    :meth:`stop`; the probes at the boundaries are not counted in it.
    """

    def __init__(self):
        self.probes = [probe()]
        self._t0 = 0.0
        self._raw = self._norm = 0.0

    def normalise(self, raw_s: float) -> float:
        """``raw_s``, timed just now, at the nominal host speed: scaled
        by the probe run before the sample and one run now."""
        self.probes.append(probe())
        return raw_s * NOMINAL_S / ((self.probes[-2] + self.probes[-1]) / 2)

    def start(self) -> None:
        self._raw = self._norm = 0.0
        self._t0 = time.perf_counter()

    def split(self) -> None:
        raw = time.perf_counter() - self._t0
        self._raw += raw
        self._norm += self.normalise(raw)
        self._t0 = time.perf_counter()

    def stop(self):
        """(raw seconds, normalised seconds) of the sample."""
        self.split()
        return self._raw, self._norm
