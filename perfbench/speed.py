"""Busy time of timed operations, corrected for the machine's speed.

Timings are busy time: CPU seconds of this process (``process_time``), so a
stretch during which the machine runs something else instead of this
process does not count. On a machine shared with other tenants one core's
speed still changes, by a factor of 1.5 or more, for anything from a
fraction of a second to tens of seconds. So a fixed probe of Python and
small-array numpy work, the same mix the program does, runs in this process
around every timed operation and, during operations, from a timer signal
every SAMPLE_INTERVAL_S (its time is taken out of the operation's). A timing
is reported as

    busy seconds * NOMINAL_PROBE_S / mean probe busy time within WINDOW_S of it,

i.e. in seconds at the speed where the probe takes ``NOMINAL_PROBE_S``. The
uncorrected busy times are printed too, in the run context.
"""

from __future__ import annotations

import bisect
import json
import re
import signal
import statistics
from time import perf_counter, process_time

import numpy as np

# Probe time on a 2-core x86-64 VM (Python 3.11, numpy 2.4) when the core is
# not contended; only ratios to it matter, so it is fixed once and for all.
NOMINAL_PROBE_S = 1.0e-3
# Probes within this many seconds of an operation count for it.
WINDOW_S = 0.05
SAMPLE_INTERVAL_S = 0.05

_ROWS = np.random.default_rng(0).normal(size=(16, 50))
_QUERY = np.random.default_rng(1).normal(size=50)
_TEXT = "Polycrystalline photovoltaic panel 135w, with bypass-diodes; for 22.1v use. " * 4
_WORD = re.compile(r"[^\W_]+(?:\.[^\W_]+)*")


def _kernel() -> float:
    total = 0.0
    counts: dict[str, int] = {}
    for i in range(40):
        row = _ROWS[i % 16]
        total += float(np.dot(row, _QUERY)) / (float(np.linalg.norm(row)) + 1.0)
        for token in _WORD.findall(_TEXT.lower()):
            counts[token] = counts.get(token, 0) + 1
        total += len(json.dumps(counts, sort_keys=True))
    return total


class Speed:
    """Probe samples over time; converts raw timings to nominal-speed timings.

    With ``sample`` off, long operations get no probes during them.
    """

    def __init__(self, sample: bool = True):
        self.sample = sample
        self.times: list[float] = []
        self.probes: list[float] = []

    def probe(self, count: int = 1) -> None:
        for _ in range(count):
            busy = process_time()
            _kernel()
            self.probes.append(process_time() - busy)
            self.times.append(perf_counter())

    def factor(self, start: float, end: float) -> float:
        """NOMINAL_PROBE_S over the mean probe taken within WINDOW_S of [start, end].

        The mean, not the median, because an operation that spans a slow and
        a fast stretch takes the time-weighted mean of both; the slowest and
        fastest tenth of the probes are dropped first.
        """
        low = bisect.bisect_left(self.times, start - WINDOW_S)
        high = bisect.bisect_right(self.times, end + WINDOW_S)
        if low == high:
            raise RuntimeError("no speed probe near a timed operation")
        near = sorted(self.probes[low:high])
        trim = len(near) // 10
        return NOMINAL_PROBE_S / statistics.fmean(near[trim: len(near) - trim])

    def measure(self, function, probes: int):
        """Run ``function`` between ``probes`` probes on each side, sampling during it.

        Returns (result, nominal seconds, raw busy seconds); both exclude
        the time of the probes taken during the call.
        """
        self.probe(probes)
        before = len(self.probes)

        def on_alarm(signum, frame):
            self.probe()

        previous = signal.signal(signal.SIGALRM, on_alarm) if self.sample else None
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        start = perf_counter()
        busy = process_time()
        try:
            result = function()
        finally:
            busy = process_time() - busy
            end = perf_counter()
            if self.sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        raw = busy - sum(self.probes[before:])
        self.probe(probes)
        return result, raw * self.factor(start, end), raw
