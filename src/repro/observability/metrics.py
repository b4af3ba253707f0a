"""Zero-dependency metrics registry: counters, gauges, histograms.

The registry is the numeric backbone of the observability layer: every
subsystem increments named, labelled series into one process-wide
:class:`MetricsRegistry`, and the pipeline exports them as Prometheus
text or JSON at the end of a run.

Design constraints, in order:

* **Cheap when disabled.**  Every mutator checks the global telemetry
  switch first; a disabled run costs one branch per call site.
* **Thread-safe.**  One lock guards the maps; mutators are O(1) dict
  operations under it (a caller's inline transform and the job-worker
  thread record metrics concurrently).
* **Process-pool-mergeable.**  :meth:`MetricsRegistry.snapshot` returns a
  plain-dict, picklable :class:`MetricsSnapshot`;
  :meth:`MetricsRegistry.merge` folds a snapshot back in (counters and
  histogram buckets add, gauges last-write-wins), so a worker process
  can ship its metrics back with its result.
* **No dependencies.**  Stdlib only.

Label values are stringified; a series is keyed on
``(name, sorted((label, value), ...))`` so label order never splits a
series.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .runtime import telemetry_enabled

#: Series key: metric name plus its sorted label pairs.
SeriesKey = Tuple[str, Tuple[Tuple[str, str], ...]]

#: Default histogram buckets, tuned for seconds-scale durations.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, float("inf"),
)


def _series_key(name: str, labels: Dict[str, object]) -> SeriesKey:
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


@dataclass
class HistogramData:
    """One histogram series: cumulative bucket counts plus sum/count."""

    buckets: Tuple[float, ...] = DEFAULT_BUCKETS
    counts: List[int] = field(default_factory=list)
    total: float = 0.0
    count: int = 0

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * len(self.buckets)

    def observe(self, value: float) -> None:
        self.total += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                break

    def merge(self, other: "HistogramData") -> None:
        if other.buckets != self.buckets:
            # different bucketing: fold the other's mass into sum/count and
            # the overflow bucket rather than dropping it
            self.total += other.total
            self.count += other.count
            self.counts[-1] += sum(other.counts)
            return
        self.total += other.total
        self.count += other.count
        for i, c in enumerate(other.counts):
            self.counts[i] += c

    def as_dict(self) -> Dict[str, object]:
        return {
            "buckets": [b if b != float("inf") else "+Inf" for b in self.buckets],
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
        }


@dataclass
class MetricsSnapshot:
    """Picklable, plain-data view of a registry (the pool wire format)."""

    counters: Dict[SeriesKey, float] = field(default_factory=dict)
    gauges: Dict[SeriesKey, float] = field(default_factory=dict)
    histograms: Dict[SeriesKey, HistogramData] = field(default_factory=dict)


class MetricsRegistry:
    """Thread-safe, mergeable store of labelled metric series."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[SeriesKey, float] = {}
        self._gauges: Dict[SeriesKey, float] = {}
        self._histograms: Dict[SeriesKey, HistogramData] = {}

    # ------------------------------------------------------------- mutators

    def inc(self, name: str, value: float = 1.0, **labels: object) -> None:
        """Add ``value`` to the counter series ``name{labels}``."""
        if not telemetry_enabled():
            return
        key = _series_key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + value

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        """Set the gauge series ``name{labels}`` to ``value``."""
        if not telemetry_enabled():
            return
        key = _series_key(name, labels)
        with self._lock:
            self._gauges[key] = float(value)

    def observe(
        self,
        name: str,
        value: float,
        buckets: Optional[Sequence[float]] = None,
        **labels: object,
    ) -> None:
        """Record ``value`` into the histogram series ``name{labels}``."""
        if not telemetry_enabled():
            return
        key = _series_key(name, labels)
        with self._lock:
            hist = self._histograms.get(key)
            if hist is None:
                hist = HistogramData(
                    buckets=tuple(buckets) if buckets else DEFAULT_BUCKETS
                )
                self._histograms[key] = hist
            hist.observe(value)

    # -------------------------------------------------------------- readers

    def counter_value(self, name: str, **labels: object) -> float:
        with self._lock:
            return self._counters.get(_series_key(name, labels), 0.0)

    def counter_total(self, name: str) -> float:
        """Sum of every series of counter ``name`` across label sets."""
        with self._lock:
            return sum(v for (n, _), v in self._counters.items() if n == name)

    def counter_totals(self) -> Dict[str, float]:
        """Every counter summed across label sets, keyed by name (the
        compact metrics snapshot a ledger record carries)."""
        totals: Dict[str, float] = {}
        with self._lock:
            for (name, _), value in self._counters.items():
                totals[name] = totals.get(name, 0.0) + value
        return dict(sorted(totals.items()))

    def gauge_value(self, name: str, **labels: object) -> Optional[float]:
        with self._lock:
            return self._gauges.get(_series_key(name, labels))

    def histogram_data(self, name: str, **labels: object) -> Optional[HistogramData]:
        with self._lock:
            return self._histograms.get(_series_key(name, labels))

    # ------------------------------------------------------- merge/snapshot

    def snapshot(self) -> MetricsSnapshot:
        """Picklable copy of every series (what pool workers return)."""
        with self._lock:
            return MetricsSnapshot(
                counters=dict(self._counters),
                gauges=dict(self._gauges),
                histograms={
                    k: HistogramData(
                        buckets=h.buckets,
                        counts=list(h.counts),
                        total=h.total,
                        count=h.count,
                    )
                    for k, h in self._histograms.items()
                },
            )

    def merge(self, other: "MetricsSnapshot | MetricsRegistry") -> None:
        """Fold another registry/snapshot in: counters and histogram mass
        add; gauges take the incoming value (last write wins)."""
        snap = other.snapshot() if isinstance(other, MetricsRegistry) else other
        with self._lock:
            for key, value in snap.counters.items():
                self._counters[key] = self._counters.get(key, 0.0) + value
            for key, value in snap.gauges.items():
                self._gauges[key] = value
            for key, hist in snap.histograms.items():
                mine = self._histograms.get(key)
                if mine is None:
                    self._histograms[key] = HistogramData(
                        buckets=hist.buckets,
                        counts=list(hist.counts),
                        total=hist.total,
                        count=hist.count,
                    )
                else:
                    mine.merge(hist)

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    # ------------------------------------------------------------ exporters

    def to_json(self) -> Dict[str, object]:
        """JSON-serializable dump of every series."""

        def fmt(key: SeriesKey) -> Dict[str, object]:
            name, labels = key
            return {"name": name, "labels": dict(labels)}

        with self._lock:
            return {
                "counters": [
                    {**fmt(k), "value": v} for k, v in sorted(self._counters.items())
                ],
                "gauges": [
                    {**fmt(k), "value": v} for k, v in sorted(self._gauges.items())
                ],
                "histograms": [
                    {**fmt(k), **h.as_dict()}
                    for k, h in sorted(self._histograms.items())
                ],
            }

    def write_json(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def to_prometheus_text(self) -> str:
        """Prometheus text exposition (0.0.4) of every series."""

        def labelstr(labels: Tuple[Tuple[str, str], ...]) -> str:
            if not labels:
                return ""
            body = ",".join(
                '%s="%s"' % (k, v.replace("\\", "\\\\").replace('"', '\\"'))
                for k, v in labels
            )
            return "{%s}" % body

        lines: List[str] = []
        with self._lock:
            counter_names = sorted({n for n, _ in self._counters})
            for name in counter_names:
                lines.append(f"# TYPE {name} counter")
                for (n, labels), value in sorted(self._counters.items()):
                    if n == name:
                        lines.append(f"{name}{labelstr(labels)} {value:g}")
            gauge_names = sorted({n for n, _ in self._gauges})
            for name in gauge_names:
                lines.append(f"# TYPE {name} gauge")
                for (n, labels), value in sorted(self._gauges.items()):
                    if n == name:
                        lines.append(f"{name}{labelstr(labels)} {value:g}")
            hist_names = sorted({n for n, _ in self._histograms})
            for name in hist_names:
                lines.append(f"# TYPE {name} histogram")
                for (n, labels), hist in sorted(self._histograms.items()):
                    if n != name:
                        continue
                    cumulative = 0
                    for bound, count in zip(hist.buckets, hist.counts):
                        cumulative += count
                        le = "+Inf" if bound == float("inf") else f"{bound:g}"
                        lines.append(
                            f"{name}_bucket{labelstr(labels + (('le', le),))} "
                            f"{cumulative}"
                        )
                    lines.append(f"{name}_sum{labelstr(labels)} {hist.total:g}")
                    lines.append(f"{name}_count{labelstr(labels)} {hist.count}")
        return "\n".join(lines) + "\n"

    def write_prometheus(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_prometheus_text())


_registry: Optional[MetricsRegistry] = None
_registry_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-wide registry every subsystem records into."""
    global _registry
    with _registry_lock:
        if _registry is None:
            _registry = MetricsRegistry()
        return _registry


def reset_registry() -> None:
    """Drop the process-wide registry (tests)."""
    global _registry
    with _registry_lock:
        _registry = None
