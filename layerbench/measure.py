"""Host probe, host-normalised op samples and the statistics the
benchmark reports.

The host this benchmark was built on (2 vCPUs) runs a fixed CPU loop at
two speeds that alternate in bursts of seconds to half a minute, so a
raw wall-clock median depends on which bursts a run happened to hit.
Every timed op is therefore preceded by a fixed probe — :func:`probe`,
a pure-Python loop, for the daemon's in-process work — and the op's
cost is reported as ``op_seconds / probe_seconds * nominal_ms``: the
time the op would take on a host where the probe takes its nominal
time.  The raw wall-clock value is always reported beside it.

Everything here is pure (no I/O) so ``selftest.py`` can check it.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

#: Loop iterations of one probe (about 2 ms on the reference host).
PROBE_ITERATIONS = 8000

#: :func:`probe`'s nominal duration in ms: the scale of normalised
#: times.  A constant, so normalised values compare across runs and
#: commits; about the probe's median in the reference host's fast state.
PROBE_NOMINAL_MS = 1.50

#: Percentiles a tail may be reported at, lowest first.
TAIL_CANDIDATES = (0.75, 0.9, 0.95, 0.99, 0.999)

#: A tail percentile is reported only with this many samples beyond it.
TAIL_MIN_BEYOND = 10


def _probe_kernel(iterations: int) -> int:
    table: Dict[int, int] = {}
    acc = 0
    for i in range(iterations):
        key = i & 255
        table[key] = table.get(key, 0) + i
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return acc + len(table)


def probe() -> float:
    """Seconds one fixed pure-Python loop takes right now."""
    start = time.perf_counter()
    _probe_kernel(PROBE_ITERATIONS)
    return time.perf_counter() - start


def normalised_ms(op_seconds: float, probe_seconds: float,
                  nominal_ms: float = PROBE_NOMINAL_MS) -> float:
    """An op's time on a host where the probe takes its nominal time."""
    return op_seconds / probe_seconds * nominal_ms


def nearest_rank(values: Sequence[float], p: float) -> float:
    """The nearest-rank ``p`` percentile (``0 < p <= 1``)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int) -> Optional[float]:
    """The highest candidate percentile with at least
    :data:`TAIL_MIN_BEYOND` of ``n`` samples beyond its nearest rank,
    or ``None`` when even the lowest candidate has too few."""
    best = None
    for p in TAIL_CANDIDATES:
        if n - math.ceil(p * n) >= TAIL_MIN_BEYOND:
            best = p
    return best


@dataclass
class Sample:
    """One attempted op: its class, raw wall time and preceding probe."""

    cls: str
    seconds: float
    probe_seconds: float
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class ClassSummary:
    """Median (and tail) of one op class, normalised and raw."""

    cls: str
    n: int
    p50_ms: float
    raw_p50_ms: float
    tail_p: Optional[float]
    tail_ms: Optional[float]
    raw_tail_ms: Optional[float]


@dataclass
class OpLog:
    """Every attempted op of a phase, with failed-op accounting.

    A failed op (non-zero exit, non-200, wrong output or timeout)
    counts in :attr:`failed` and is left out of every latency sample.
    """

    #: Nominal duration of the probe the samples were taken with.
    nominal_ms: float = PROBE_NOMINAL_MS
    samples: List[Sample] = field(default_factory=list)

    def normalised_ms(self, sample: Sample) -> float:
        return normalised_ms(sample.seconds, sample.probe_seconds,
                             self.nominal_ms)

    def record(self, cls: str, seconds: float, probe_seconds: float,
               error: Optional[str] = None) -> Sample:
        sample = Sample(cls, seconds, probe_seconds, error)
        self.samples.append(sample)
        return sample

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if not s.ok)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.samples else 0.0

    def errors(self) -> List[str]:
        return [s.error for s in self.samples if s.error is not None]

    def summarise(self, cls: str) -> ClassSummary:
        samples = [s for s in self.samples if s.ok and s.cls == cls]
        if not samples:
            raise ValueError(f"no successful samples of class {cls!r}")
        norm = [self.normalised_ms(s) for s in samples]
        raw = [s.seconds * 1000.0 for s in samples]
        tail = tail_percentile(len(samples))
        return ClassSummary(
            cls=cls, n=len(samples),
            p50_ms=statistics.median(norm),
            raw_p50_ms=statistics.median(raw),
            tail_p=tail,
            tail_ms=nearest_rank(norm, tail) if tail else None,
            raw_tail_ms=nearest_rank(raw, tail) if tail else None)

    def normalised_total_s(self) -> float:
        """Sum of every op's normalised time, in seconds (set-up)."""
        return sum(self.normalised_ms(s) for s in self.samples) / 1000.0

    def raw_total_s(self) -> float:
        return sum(s.seconds for s in self.samples)

    def probe_ms(self) -> float:
        """Median raw probe time of the phase."""
        return statistics.median(s.probe_seconds * 1000.0
                                 for s in self.samples)


def geometric_mean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def mix_throughput(summaries: Sequence[ClassSummary],
                   counts: Dict[str, int], raw: bool = False) -> float:
    """Ops per second of the workload's op mix at each class's median
    latency: ``sum(n_c) / sum(n_c * p50_c)``."""
    total_ops = sum(counts[s.cls] for s in summaries)
    total_ms = sum(counts[s.cls] * (s.raw_p50_ms if raw else s.p50_ms)
                   for s in summaries)
    return total_ops / (total_ms / 1000.0)


def quartile_spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and (q3 - q1) / median, as the repeat mode and
    the acceptance check compute them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}
