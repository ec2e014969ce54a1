"""Host speed, measured by a fixed calibration loop inside the run.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over minutes (neighbours load the same cores and caches),
which a run of half a minute cannot average out. So every timing metric is
reported scaled to a reference host speed, and as measured in the details:

    scaled = measured * REFERENCE_S / c

where ``c`` is the mean time of the calibration chunks run during the timed
interval, or of the LOCAL_CHUNKS nearest to it when fewer ran in it. Within
``with HostSpeed() as host:`` a profiling timer interrupts the run every
INTERVAL_S of CPU time, the timed respeval calls included, and runs one
chunk; ``host.spent`` is the time the chunks took, which the caller takes
out of its timings (about 2 %). The chunk is fixed pure-Python work of the
kind respeval does (a word-level edit-distance table and bigram counting),
so a slow spell of the host stretches it and the timed calls alike and
cancels out, while a change to respeval moves the scaled figure exactly as
it moves the measured one.

The mean, not the median: the host switches between a fast and a slow mode
(chunk times cluster near two values, about 2:1 apart), and a long call
pays the time-weighted mix of both, which the mean follows and the median
does not. The slowest TRIM share of chunks is left out, since a chunk that
was preempted says nothing about the mix. On five seeds of ``respeak-long``
the quartile spread of ``study_s`` was 18 % of its median as measured and
3 % scaled.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

# Mean chunk time on the host the benchmark was defined on (2 vCPUs of an
# "Intel(R) Xeon(R) Processor", Python 3.11.7), so scaled figures read about
# like wall times there.
REFERENCE_S = 0.0010
INTERVAL_S = 0.05  # CPU time between chunks
TRIM = 0.05
LOCAL_CHUNKS = 20  # fewest chunks behind the scale of one interval

_A = "we will now hear the minister of transport on the new rail link to the north".split()
_B = "now we hear the transport minister on a new rail line to the north coast".split()
_ROUNDS = 8


def _chunk() -> int:
    total = 0
    for _ in range(_ROUNDS):
        prev = list(range(len(_B) + 1))
        for i, a in enumerate(_A, 1):
            cur = [i]
            for j, b in enumerate(_B, 1):
                cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (a != b)))
            prev = cur
        counts: dict[tuple[str, str], int] = {}
        for pair in zip(_A + _B, _A[1:] + _B[1:]):
            counts[pair] = counts.get(pair, 0) + 1
        total += prev[-1] + len(counts)
    return total


def _trimmed_mean(samples: list[float]) -> float:
    """Mean without the slowest TRIM share."""
    return statistics.fmean(sorted(samples)[: max(1, round(len(samples) * (1 - TRIM)))])


class HostSpeed:
    """Calibration samples of one run; ``spent`` is the time they took."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.stamps: list[float] = []  # start of each chunk, ascending
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def sample(self, *_signal_args) -> None:
        """Runs one chunk (also the timer's signal handler)."""
        if self._busy:
            return
        self._busy = True
        begin = time.perf_counter()
        _chunk()
        end = time.perf_counter()
        self.samples.append(end - begin)
        self.stamps.append(begin)
        self.spent += time.perf_counter() - begin
        self._busy = False

    def __enter__(self) -> HostSpeed:
        self._previous = signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def chunk_s(self) -> float:
        """Mean chunk time of the whole run."""
        return _trimmed_mean(self.samples)

    def scale(self) -> float:
        """Factor from measured to scaled time, over the whole run."""
        return REFERENCE_S / self.chunk_s()

    def scale_at(self, start: float, end: float) -> float:
        """Factor for an interval of ``time.perf_counter()`` readings: from
        the chunks run in it, widened to the LOCAL_CHUNKS nearest."""
        stamps = self.stamps
        lo, hi = bisect.bisect_left(stamps, start), bisect.bisect_right(stamps, end)
        while hi - lo < LOCAL_CHUNKS and (lo > 0 or hi < len(stamps)):
            if lo > 0 and (hi == len(stamps) or start - stamps[lo - 1] <= stamps[hi] - end):
                lo -= 1
            else:
                hi += 1
        return REFERENCE_S / _trimmed_mean(self.samples[lo:hi])

    def facts(self) -> dict:
        return {
            "reference_s": REFERENCE_S,
            "chunk_mean_s": self.chunk_s(),
            "chunks": len(self.samples),
            "scale": self.scale(),
        }
