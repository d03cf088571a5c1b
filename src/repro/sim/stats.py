"""Typed metric families for the simulated machine (docs/OBSERVABILITY.md).

Four families, all pure observation (recording a metric never touches
the DES clock — the invariance contract pinned by
``tests/core/test_metrics_parity.py``):

* :class:`Counter` — monotonically increasing event counts;
* :class:`Gauge` — a point-in-time value (queue depths, utilization);
* :class:`Accumulator` — exact running ``count/total/min/max`` plus a
  **bounded reservoir** of samples for quantile estimates, so a
  million-access hosted sweep no longer accumulates a million-entry
  Python list;
* :class:`Histogram` — deterministic log2 buckets over integer
  simulated nanoseconds: O(1) memory, exact ``count/sum/min/max``,
  quantile *estimates* from the bucket boundaries.

:class:`StatRegistry` owns one dict per family.  Counters and
accumulators are always on (they are part of every run's
``outcome.stats`` and of the fast-path parity contracts); gauges and
histograms are the *metrics layer* and honor
:attr:`StatRegistry.metrics_enabled` (``FlickConfig.metrics``), so a
metrics-off run carries zero extra state.  A third tier of *observed*
counters holds what may differ between runs the parity contracts call
equal (JIT activity, placement picks, trace-ring pressure); no snapshot
or delta ever includes it.

Quantile helpers: :func:`percentile` is the historical nearest-rank
estimator; :func:`quantile` adds the linearly-interpolated method (the
same convention as ``numpy.percentile(..., method="linear")``).  Both
return ``nan`` for an empty sequence — a report over an idle device
must never throw mid-render.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Accumulator",
    "Histogram",
    "StatRegistry",
    "mean",
    "percentile",
    "quantile",
]

#: Default bounded-reservoir size for :class:`Accumulator`.  4096 floats
#: keep quantile estimates tight while bounding a 100k+-sample sweep's
#: memory to a few tens of kilobytes per accumulator.
RESERVOIR_SIZE = 4096

_NAN = float("nan")


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean; ``nan`` for an empty sequence."""
    values = list(values)
    if not values:
        return _NAN
    return sum(values) / len(values)


def _check_pct(pct: float) -> None:
    if not 0 <= pct <= 100:
        raise ValueError(f"percentile out of range: {pct}")


def percentile(values: Iterable[float], pct: float) -> float:
    """Nearest-rank percentile; ``pct`` in [0, 100]; ``nan`` if empty.

    Nearest-rank always returns an actual sample: ``pct=0`` is the
    minimum, ``pct=100`` the maximum, and any ``pct`` in between the
    smallest sample whose cumulative frequency reaches ``pct``.
    """
    _check_pct(pct)
    values = sorted(values)
    if not values:
        return _NAN
    if pct == 0:
        return values[0]
    rank = math.ceil(pct / 100.0 * len(values))
    return values[rank - 1]


def quantile(values: Iterable[float], pct: float, method: str = "linear") -> float:
    """Quantile estimate; ``pct`` in [0, 100]; ``nan`` if empty.

    ``method="nearest"`` is :func:`percentile` (always a real sample);
    ``method="linear"`` interpolates between the two straddling order
    statistics at fractional rank ``(n - 1) * pct / 100`` — the usual
    plotting/NumPy convention.  Both agree at ``pct=0`` / ``pct=100``
    and on single-sample inputs (property-tested against sorted-list
    oracles in ``tests/sim/test_histogram.py``).
    """
    _check_pct(pct)
    if method == "nearest":
        return percentile(values, pct)
    if method != "linear":
        raise ValueError(f"unknown quantile method {method!r}")
    values = sorted(values)
    if not values:
        return _NAN
    rank = (len(values) - 1) * pct / 100.0
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return values[lo]
    frac = rank - lo
    # lo + frac*(hi-lo) form: exact when the straddling samples tie
    return values[lo] + frac * (values[hi] - values[lo])


@dataclass
class Counter:
    """A named monotonically increasing counter."""

    name: str
    value: int = 0

    def add(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only increase")
        self.value += n


@dataclass
class Gauge:
    """A named point-in-time value (may move either way)."""

    name: str
    value: float = 0.0
    #: high-water mark since creation, for one-line summaries
    max_value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.max_value:
            self.max_value = value

    def add(self, delta: float) -> None:
        self.set(self.value + delta)


class Accumulator:
    """Exact running aggregates plus a bounded sample reservoir.

    ``count``, ``total``, ``min`` and ``max`` are exact whatever the
    sample volume; ``samples`` holds at most ``reservoir`` entries —
    uniform reservoir sampling driven by a **deterministically seeded**
    RNG, so two runs that feed identical sample sequences keep identical
    reservoirs (required by the bit-identical parity contracts, which
    compare quantile estimates derived from it).

    Empty-state behaviour: ``mean``/``min``/``max``/``percentile`` return
    ``nan`` instead of raising, so snapshotting an idle device is safe.
    """

    __slots__ = ("name", "samples", "reservoir", "_count", "_total", "_min", "_max", "_rng")

    def __init__(self, name: str, reservoir: int = RESERVOIR_SIZE):
        self.name = name
        self.reservoir = reservoir
        self.samples: List[float] = []
        self._count = 0
        self._total = 0.0
        self._min = math.inf
        self._max = -math.inf
        # Seeded per-accumulator: replacement decisions depend only on
        # the number of prior samples, never on global RNG state.
        self._rng = random.Random(0x5EED ^ (len(name) << 8))

    def add(self, sample: float) -> None:
        self._count += 1
        self._total += sample
        if sample < self._min:
            self._min = sample
        if sample > self._max:
            self._max = sample
        if len(self.samples) < self.reservoir:
            self.samples.append(sample)
        else:
            slot = self._rng.randrange(self._count)
            if slot < self.reservoir:
                self.samples[slot] = sample

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._total

    @property
    def mean(self) -> float:
        return self._total / self._count if self._count else _NAN

    @property
    def min(self) -> float:
        return self._min if self._count else _NAN

    @property
    def max(self) -> float:
        return self._max if self._count else _NAN

    def percentile(self, pct: float, method: str = "linear") -> float:
        """Quantile estimate from the reservoir (exact while the sample
        count is within the reservoir bound); ``nan`` when empty."""
        return quantile(self.samples, pct, method=method)


class Histogram:
    """Fixed log2 buckets over integer simulated nanoseconds.

    Bucket ``k`` covers ``(2**(k-1), 2**k]`` (bucket 0 covers
    ``[0, 1]``), so bucketing is deterministic, needs no configuration,
    and spans twelve orders of magnitude in ~40 buckets.  ``count``,
    ``sum``, ``min`` and ``max`` are exact; quantiles are *estimates*
    interpolated inside the straddling bucket and clamped to the exact
    min/max.  Memory is O(buckets touched), never O(samples).
    """

    __slots__ = ("name", "_buckets", "_count", "_sum", "_min", "_max")

    def __init__(self, name: str):
        self.name = name
        self._buckets: Dict[int, int] = {}  # exponent -> count
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    @staticmethod
    def bucket_exponent(value: float) -> int:
        """The exponent ``k`` whose bucket ``(2**(k-1), 2**k]`` holds
        ``value`` (values are clamped below at 0)."""
        n = math.ceil(value)
        if n <= 1:
            return 0
        return (int(n) - 1).bit_length()

    def observe(self, value: float) -> None:
        if value < 0:
            value = 0.0
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        exp = self.bucket_exponent(value)
        self._buckets[exp] = self._buckets.get(exp, 0) + 1

    # -- exact aggregates -----------------------------------------------------

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def min(self) -> float:
        return self._min if self._count else _NAN

    @property
    def max(self) -> float:
        return self._max if self._count else _NAN

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else _NAN

    # -- buckets / quantiles --------------------------------------------------

    def buckets(self) -> List[Tuple[float, int]]:
        """Cumulative bucket counts as ``(le, cumulative)`` pairs in
        increasing ``le`` order — the OpenMetrics histogram shape.  The
        implicit final ``(+Inf, count)`` pair is appended by exporters.
        """
        out: List[Tuple[float, int]] = []
        cumulative = 0
        for exp in sorted(self._buckets):
            cumulative += self._buckets[exp]
            out.append((float(2 ** exp), cumulative))
        return out

    def quantile(self, pct: float) -> float:
        """Estimated ``pct``-quantile: locate the straddling bucket by
        cumulative count, interpolate linearly inside it, clamp to the
        exact observed ``[min, max]``.  ``nan`` when empty."""
        _check_pct(pct)
        if not self._count:
            return _NAN
        target = pct / 100.0 * self._count
        cumulative = 0
        for exp in sorted(self._buckets):
            n = self._buckets[exp]
            if cumulative + n >= target:
                hi = float(2 ** exp)
                lo = 0.0 if exp == 0 else float(2 ** (exp - 1))
                frac = (target - cumulative) / n if n else 0.0
                est = lo + frac * (hi - lo)
                return min(max(est, self._min), self._max)
            cumulative += n
        return self._max

    def merge(self, other: "Histogram") -> None:
        """Fold ``other``'s observations into this histogram (used to
        aggregate per-pid histograms into machine-wide ones)."""
        if not other._count:
            return
        self._count += other._count
        self._sum += other._sum
        if other._min < self._min:
            self._min = other._min
        if other._max > self._max:
            self._max = other._max
        for exp, n in other._buckets.items():
            self._buckets[exp] = self._buckets.get(exp, 0) + n


#: snapshot suffixes that only ever grow — the keys :meth:`StatRegistry.delta`
#: operates on (means/extrema/quantiles can move both ways and are
#: therefore excluded from deltas by design).
_MONOTONE_ACC_SUFFIXES = (".count", ".total")
_MONOTONE_HIST_SUFFIXES = (".count", ".sum")


class StatRegistry:
    """Shared registry of typed metric families for one simulated machine.

    Components grab their metrics lazily so tests can introspect
    behaviour (e.g. TLB miss counts, DMA transfers, migration counts)
    without plumbing objects everywhere.

    Three tiers:

    * **base** — counters and accumulators: always recorded, part of
      every ``outcome.stats`` and of the fast-path/batching parity
      contracts;
    * **metrics** — gauges and histograms: the observability layer,
      gated by :attr:`metrics_enabled` (``FlickConfig.metrics``).  When
      disabled, :meth:`observe` and :meth:`set_gauge` are no-ops and
      register nothing, so the snapshot of a metrics-off run contains
      exactly the base tier;
    * **observed** — parity-exempt counters (:meth:`observed_counter`):
      always recorded, read only through :meth:`observed_snapshot` and
      :meth:`observed_totals`, never through :meth:`snapshot`,
      :meth:`base_snapshot` or :meth:`delta`.
    """

    def __init__(self, metrics_enabled: bool = True) -> None:
        self.metrics_enabled = metrics_enabled
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.accumulators: Dict[str, Accumulator] = {}
        self.histograms: Dict[str, Histogram] = {}
        #: the observed tier, keyed ``scope.name`` (bare ``name`` when
        #: unscoped); each counter's ``name`` is its unscoped name
        self.observed: Dict[str, Counter] = {}

    # -- family accessors -----------------------------------------------------

    def counter(self, name: str) -> Counter:
        if name not in self.counters:
            self.counters[name] = Counter(name)
        return self.counters[name]

    def accumulator(self, name: str) -> Accumulator:
        if name not in self.accumulators:
            self.accumulators[name] = Accumulator(name)
        return self.accumulators[name]

    def gauge(self, name: str) -> Gauge:
        if name not in self.gauges:
            self.gauges[name] = Gauge(name)
        return self.gauges[name]

    def histogram(self, name: str) -> Histogram:
        if name not in self.histograms:
            self.histograms[name] = Histogram(name)
        return self.histograms[name]

    # -- recording ------------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.counter(name).add(n)

    def sample(self, name: str, value: float) -> None:
        self.accumulator(name).add(value)

    def observe(self, name: str, value: float) -> None:
        """Record one histogram observation (no-op when metrics are off)."""
        if self.metrics_enabled:
            self.histogram(name).observe(value)

    def set_gauge(self, name: str, value: float) -> None:
        """Set a gauge (no-op when metrics are off)."""
        if self.metrics_enabled:
            self.gauge(name).set(value)

    def get(self, name: str, default: int = 0) -> int:
        c = self.counters.get(name)
        return c.value if c else default

    # -- observed tier ----------------------------------------------------------

    def observed_counter(self, name: str, scope: Optional[str] = None) -> Counter:
        """The observed-tier counter ``name``, created at zero on first use.

        ``scope`` (a core's name, say) keeps one counter per scope under
        the key ``scope.name``; :meth:`observed_totals` sums the scopes
        back into ``name``.  Hot paths bind the returned counter and add
        to its ``value`` directly.
        """
        key = f"{scope}.{name}" if scope else name
        c = self.observed.get(key)
        if c is None:
            c = self.observed[key] = Counter(name)
        return c

    def count_observed(self, name: str, n: int = 1) -> None:
        self.observed_counter(name).value += n

    def observed_snapshot(self) -> Dict[str, float]:
        """Every observed counter by key, scoped keys kept apart."""
        return {k: c.value for k, c in self.observed.items()}

    def observed_totals(self) -> Dict[str, float]:
        """Every observed counter by name, summed over scopes: the view
        reports and exporters publish."""
        out: Dict[str, float] = {}
        for c in self.observed.values():
            out[c.name] = out.get(c.name, 0) + c.value
        return out

    # -- snapshots ------------------------------------------------------------

    def snapshot(self) -> Dict[str, float]:
        """Flatten every family to a ``{key: number}`` dict.

        Backward-compatible keys are preserved (counter names bare,
        accumulators as ``name.mean`` / ``name.count``); the richer
        layer adds ``name.total/.min/.max/.p50/.p99`` for accumulators,
        gauge names bare, and ``name.count/.sum/.min/.max/.p50/.p99``
        for histograms.  Empty accumulators/histograms are skipped, so
        a snapshot never contains ``nan``.
        """
        out: Dict[str, float] = {k: c.value for k, c in self.counters.items()}
        for k, a in self.accumulators.items():
            if a.count:
                out[f"{k}.mean"] = a.mean
                out[f"{k}.count"] = a.count
                out[f"{k}.total"] = a.total
                out[f"{k}.min"] = a.min
                out[f"{k}.max"] = a.max
                out[f"{k}.p50"] = a.percentile(50)
                out[f"{k}.p99"] = a.percentile(99)
        for k, g in self.gauges.items():
            out[k] = g.value
            out[f"{k}.max"] = g.max_value
        for k, h in self.histograms.items():
            if h.count:
                out[f"{k}.count"] = h.count
                out[f"{k}.sum"] = h.sum
                out[f"{k}.min"] = h.min
                out[f"{k}.max"] = h.max
                out[f"{k}.p50"] = h.quantile(50)
                out[f"{k}.p99"] = h.quantile(99)
        return out

    def base_snapshot(self) -> Dict[str, float]:
        """The metrics-toggle-invariant portion of :meth:`snapshot`:
        counters and accumulator-derived keys only.  This is the dict
        the metrics on/off parity test compares bit-for-bit."""
        out: Dict[str, float] = {k: c.value for k, c in self.counters.items()}
        for k, a in self.accumulators.items():
            if a.count:
                out[f"{k}.mean"] = a.mean
                out[f"{k}.count"] = a.count
                out[f"{k}.total"] = a.total
                out[f"{k}.min"] = a.min
                out[f"{k}.max"] = a.max
                out[f"{k}.p50"] = a.percentile(50)
                out[f"{k}.p99"] = a.percentile(99)
        return out

    def _monotone_keys(self) -> Dict[str, float]:
        """Current values of every *monotone* snapshot key: counter
        values, accumulator ``.count``/``.total``, histogram
        ``.count``/``.sum``.  These only ever grow, so differences are
        guaranteed non-negative."""
        out: Dict[str, float] = {k: c.value for k, c in self.counters.items()}
        for k, a in self.accumulators.items():
            if a.count:
                out[f"{k}.count"] = a.count
                out[f"{k}.total"] = a.total
        for k, h in self.histograms.items():
            if h.count:
                out[f"{k}.count"] = h.count
                out[f"{k}.sum"] = h.sum
        return out

    def delta(self, since: Dict[str, float]) -> Dict[str, float]:
        """Change in every **monotone** stat relative to an earlier
        :meth:`snapshot` (or :meth:`delta`-compatible dict).

        Semantics (deliberate, see docs/OBSERVABILITY.md): deltas are
        computed over counters and over accumulator/histogram
        ``.count``/``.total``/``.sum`` keys *only*.  Means, extrema and
        quantiles are excluded — a ``.mean`` can move down between two
        snapshots (or change while rounding to an equal repr), so
        "delta of a mean" is not a meaningful phase measurement; derive
        a phase mean as ``delta total / delta count`` instead.  Keys
        absent from ``since`` count from zero; zero-change entries are
        dropped so the result reads as "what this phase did"; every
        reported value is >= 0 by construction.
        """
        out = {}
        for k, v in self._monotone_keys().items():
            change = v - since.get(k, 0.0)
            if change:
                out[k] = change
        return out
