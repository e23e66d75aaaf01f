"""Lock-safe metrics primitives: counters, gauges, fixed-bucket histograms.

One :class:`MetricsRegistry` per process (or per
:class:`~repro.telemetry.Telemetry` handle) owns every instrument.
Instruments are identified by ``(name, labels)``; repeated
``registry.counter("x", kind="a")`` calls return the *same* object, so
hot paths bind an instrument once and call ``inc``/``observe`` with a
single short lock hold per update.

Histograms use fixed, pre-declared bucket upper bounds (Prometheus
``le`` convention: a bucket counts observations ``<= bound``) plus an
exact-sample reservoir: while the observation count stays within the
reservoir, ``percentile`` is exact (NumPy linear interpolation
semantics); past it, quantiles fall back to linear interpolation within
the bucket — the standard ``histogram_quantile`` estimate.

Export: :meth:`MetricsRegistry.to_prometheus` renders the text
exposition format (``# HELP`` / ``# TYPE`` / samples, histograms as
cumulative ``_bucket``/``_sum``/``_count`` series) and
:meth:`MetricsRegistry.to_dict` a JSON-able snapshot.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left

from repro.exceptions import ValidationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
]

#: Default bucket bounds for latency histograms, in seconds (100 µs – 10 s).
DEFAULT_TIME_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Default bucket bounds for size/count histograms (flush sizes, block counts).
DEFAULT_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384)

#: Observations kept verbatim before quantiles fall back to bucket
#: interpolation; bounds the reservoir's memory.
_RESERVOIR = 4096


class Counter:
    """Monotonic counter; ``inc`` is the only mutator."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: dict):
        self.name = name
        self.labels = labels
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValidationError(f"counter {self.name} cannot decrease (inc {amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """Point-in-time value; ``set``/``inc``/``dec`` under one lock."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: dict):
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket histogram with an exact-sample reservoir.

    ``bounds`` are the inclusive bucket upper bounds (ascending); an
    implicit ``+Inf`` overflow bucket is always present.  ``observe``
    is O(log buckets); ``percentile`` is exact while every observation
    is still in the reservoir and a bucket-interpolated estimate after.
    """

    __slots__ = ("name", "labels", "bounds", "_counts", "_sum", "_count",
                 "_min", "_max", "_samples", "_exact", "_lock")

    def __init__(self, name: str, labels: dict, buckets=DEFAULT_TIME_BUCKETS):
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValidationError(
                f"histogram {name} buckets must be non-empty and strictly "
                f"increasing, got {buckets!r}"
            )
        self.name = name
        self.labels = labels
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0
        self._min = math.inf
        self._max = -math.inf
        self._samples: list[float] = []
        self._exact = True
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._counts[bisect_left(self.bounds, value)] += 1
            self._sum += value
            self._count += 1
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            if self._exact:
                if len(self._samples) < _RESERVOIR:
                    self._samples.append(value)
                else:
                    self._exact = False
                    self._samples = []

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def min(self) -> float:
        return self._min if self._count else math.nan

    @property
    def max(self) -> float:
        return self._max if self._count else math.nan

    # ------------------------------------------------------------------ quantiles
    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (``q`` in [0, 100]) of the observations.

        Exact (NumPy linear-interpolation semantics) while all
        observations fit the reservoir; bucket-interpolated after.
        Returns ``nan`` when nothing has been observed.
        """
        if not 0 <= q <= 100:
            raise ValidationError(f"percentile q must be in [0, 100], got {q!r}")
        with self._lock:
            if self._count == 0:
                return math.nan
            if self._exact:
                samples = sorted(self._samples)
                rank = (q / 100.0) * (len(samples) - 1)
                lo = int(rank)
                frac = rank - lo
                if frac == 0.0 or lo + 1 >= len(samples):
                    return samples[lo]
                return samples[lo] + (samples[lo + 1] - samples[lo]) * frac
            return self._bucket_percentile(q)

    def _bucket_percentile(self, q: float) -> float:
        """Linear interpolation inside the target bucket (lock held)."""
        target = (q / 100.0) * self._count
        cum = 0
        for i, c in enumerate(self._counts):
            if c == 0:
                continue
            if cum + c >= target:
                lo = self.bounds[i - 1] if i > 0 else min(self._min, self.bounds[0])
                hi = self.bounds[i] if i < len(self.bounds) else self._max
                lo = max(lo, self._min)
                hi = min(hi, self._max)
                if hi <= lo:
                    return hi
                frac = (target - cum) / c
                return lo + (hi - lo) * frac
            cum += c
        return self._max  # pragma: no cover - unreachable (counts sum to _count)

    # ------------------------------------------------------------------ snapshot
    def snapshot(self) -> dict:
        """JSON-able state: counts, sum, min/max and the three quantiles."""
        with self._lock:
            counts = list(self._counts)
            total, ssum = self._count, self._sum
            smin = self._min if self._count else math.nan
            smax = self._max if self._count else math.nan
        cum = 0
        buckets = []
        for bound, c in zip(self.bounds, counts):
            cum += c
            buckets.append([bound, cum])
        buckets.append(["+Inf", total])
        return {
            "count": total,
            "sum": ssum,
            "min": smin,
            "max": smax,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "buckets": buckets,
        }


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _render_labels(labels: dict, extra: dict | None = None) -> str:
    items = dict(labels)
    if extra:
        items.update(extra)
    if not items:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label(str(v))}"' for k, v in sorted(items.items())
    )
    return "{" + inner + "}"


class MetricsRegistry:
    """Get-or-create store of every instrument, keyed by name + labels.

    Each metric *family* (one name) has one type; requesting an
    existing name with a different type (or different histogram
    buckets) raises.  All registry operations are guarded by one lock;
    instrument updates use the instrument's own lock, so the registry
    never serializes the hot path.
    """

    _TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

    def __init__(self):
        self._lock = threading.Lock()
        # name -> {"type", "unit", "help", "buckets", "instruments": {labelkey: obj}}
        self._families: dict[str, dict] = {}

    # ------------------------------------------------------------------ get-or-create
    def _instrument(self, kind: str, name: str, unit: str, help: str,
                    buckets, labels: dict):
        key = _label_key(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = {
                    "type": kind,
                    "unit": unit or _default_unit(name),
                    "help": help or _default_help(name),
                    "buckets": buckets,
                    "instruments": {},
                }
                self._families[name] = family
            elif family["type"] != kind:
                raise ValidationError(
                    f"metric {name!r} is a {family['type']}, not a {kind}"
                )
            elif kind == "histogram" and buckets is not None and family["buckets"] is not None \
                    and tuple(buckets) != tuple(family["buckets"]):
                raise ValidationError(
                    f"histogram {name!r} re-registered with different buckets"
                )
            instrument = family["instruments"].get(key)
            if instrument is None:
                if kind == "histogram":
                    instrument = Histogram(
                        name, dict(labels),
                        buckets=family["buckets"] or DEFAULT_TIME_BUCKETS,
                    )
                else:
                    instrument = self._TYPES[kind](name, dict(labels))
                family["instruments"][key] = instrument
            return instrument

    def counter(self, name: str, unit: str = "", help: str = "", **labels) -> Counter:
        return self._instrument("counter", name, unit, help, None, labels)

    def gauge(self, name: str, unit: str = "", help: str = "", **labels) -> Gauge:
        return self._instrument("gauge", name, unit, help, None, labels)

    def histogram(self, name: str, buckets=None, unit: str = "", help: str = "",
                  **labels) -> Histogram:
        return self._instrument("histogram", name, unit, help, buckets, labels)

    # ------------------------------------------------------------------ export
    def families(self) -> dict:
        """``name -> (type, unit, help, [instruments])`` snapshot."""
        with self._lock:
            return {
                name: (f["type"], f["unit"], f["help"], list(f["instruments"].values()))
                for name, f in sorted(self._families.items())
            }

    def to_dict(self) -> dict:
        """JSON-able snapshot of every instrument in the registry."""
        out: dict = {"counters": [], "gauges": [], "histograms": []}
        for name, (kind, unit, _help, instruments) in self.families().items():
            for inst in instruments:
                entry = {"name": name, "unit": unit, "labels": dict(inst.labels)}
                if kind == "histogram":
                    entry.update(inst.snapshot())
                    out["histograms"].append(entry)
                elif kind == "counter":
                    entry["value"] = inst.value
                    out["counters"].append(entry)
                else:
                    entry["value"] = inst.value
                    out["gauges"].append(entry)
        return out

    def to_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        for name, (kind, unit, help, instruments) in self.families().items():
            text = help if not unit else f"{help} [{unit}]" if help else f"[{unit}]"
            lines.append(f"# HELP {name} {text}".rstrip())
            lines.append(f"# TYPE {name} {kind}")
            for inst in instruments:
                if kind == "histogram":
                    snap = inst.snapshot()
                    for bound, cum in snap["buckets"]:
                        le = "+Inf" if bound == "+Inf" else format(bound, "g")
                        labels = _render_labels(inst.labels, {"le": le})
                        lines.append(f"{name}_bucket{labels} {cum}")
                    labels = _render_labels(inst.labels)
                    lines.append(f"{name}_sum{labels} {format(snap['sum'], 'g')}")
                    lines.append(f"{name}_count{labels} {snap['count']}")
                else:
                    labels = _render_labels(inst.labels)
                    lines.append(f"{name}{labels} {format(inst.value, 'g')}")
        return "\n".join(lines) + "\n"


def _default_unit(name: str) -> str:
    from repro.telemetry import CATALOGUE

    entry = CATALOGUE.get(name)
    return entry[1] if entry else ""


def _default_help(name: str) -> str:
    from repro.telemetry import CATALOGUE

    entry = CATALOGUE.get(name)
    return entry[2] if entry else ""
