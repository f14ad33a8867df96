"""Unified metrics plane: labeled counters/gauges/histograms.

One process-local :class:`MetricsRegistry` is shared by every subsystem
that opts in (`ServingEngine`, `LatencyAutoscaler`, `MapStore`, `RunStore`,
`AdmissionController`, the service front door) via their ``bind_metrics``
methods.  The registry renders two ways:

* :meth:`MetricsRegistry.as_dict` — nested JSON for the existing
  ``/v1/metrics`` endpoint;
* :meth:`MetricsRegistry.render_prometheus` — Prometheus text exposition
  format 0.0.4 for ``/v1/metrics?format=prometheus``.

Design constraints, in order:

1. **Inert when absent.**  Components hold ``self.metrics = None`` until
   bound; every instrumentation site is guarded by that None check, so the
   unbound path costs one attribute load + branch.
2. **Idempotent family creation.**  ``counter()/gauge()/histogram()``
   return the existing family when the name is already registered (and
   raise only on a *conflicting* re-registration), so rebinding a
   component — or binding two components that share a family — is safe.
3. **Deterministic rendering.**  Families and children render in sorted
   order, so two registries fed the same events produce byte-identical
   exposition text.

Collectors (:meth:`MetricsRegistry.register_collector`) let components
export point-in-time state (queue depths, hit rates, worker counts)
without keeping a gauge in sync on every mutation: the callback runs once
per render and sets gauges from live state.

:func:`parse_prometheus` is the matching parser — enough of the text
format to round-trip what this module emits; the exposition tests and the
CI obs-smoke step use it instead of eyeballing substrings.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Dict, List, Sequence, Tuple

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "parse_prometheus",
]

#: Default histogram buckets (milliseconds-flavoured: serving latencies and
#: merge times both land comfortably inside this range).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0,
    2500.0, 5000.0,
)

_LabelKey = Tuple[Tuple[str, str], ...]


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(float(value))


def _label_suffix(labels: _LabelKey, extra: Sequence[Tuple[str, str]] = ()) -> str:
    pairs = list(labels) + list(extra)
    if not pairs:
        return ""
    body = ",".join(f'{name}="{_escape_label_value(value)}"'
                    for name, value in pairs)
    return "{" + body + "}"


class _Family:
    """Base: one metric name + help text, fanned out over label values."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str,
                 labelnames: Sequence[str]) -> None:
        self.name = name
        self.help_text = help_text
        self.labelnames = tuple(labelnames)
        self._children: Dict[_LabelKey, object] = {}
        self._lock = threading.Lock()

    def _child_key(self, labels: Dict[str, str]) -> _LabelKey:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}")
        return tuple((name, str(labels[name])) for name in self.labelnames)

    def labels(self, **labels: str):
        key = self._child_key(labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._make_child()
                self._children[key] = child
        return child

    def _make_child(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def signature(self) -> Tuple[str, str, Tuple[str, ...]]:
        return (self.kind, self.help_text, self.labelnames)

    def _sorted_children(self) -> List[Tuple[_LabelKey, object]]:
        return sorted(self._children.items())


class _CounterChild:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Counter(_Family):
    kind = "counter"

    def _make_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        self.labels(**labels).inc(amount)

    def value(self, **labels: str) -> float:
        return self.labels(**labels).value

    def render(self) -> List[str]:
        lines = [f"# HELP {self.name} {_escape_help(self.help_text)}",
                 f"# TYPE {self.name} {self.kind}"]
        for key, child in self._sorted_children():
            lines.append(f"{self.name}{_label_suffix(key)} "
                         f"{_format_value(child.value)}")
        return lines

    def as_dict(self) -> Dict[str, float]:
        return {_label_suffix(key) or "": child.value
                for key, child in self._sorted_children()}


class _GaugeChild:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Gauge(_Family):
    kind = "gauge"

    def _make_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float, **labels: str) -> None:
        self.labels(**labels).set(value)

    def value(self, **labels: str) -> float:
        return self.labels(**labels).value

    def render(self) -> List[str]:
        lines = [f"# HELP {self.name} {_escape_help(self.help_text)}",
                 f"# TYPE {self.name} {self.kind}"]
        for key, child in self._sorted_children():
            lines.append(f"{self.name}{_label_suffix(key)} "
                         f"{_format_value(child.value)}")
        return lines

    def as_dict(self) -> Dict[str, float]:
        return {_label_suffix(key) or "": child.value
                for key, child in self._sorted_children()}


class _HistogramChild:
    __slots__ = ("bucket_counts", "total", "count")

    def __init__(self, buckets: Tuple[float, ...]) -> None:
        self.bucket_counts = [0] * (len(buckets) + 1)  # last = +Inf
        self.total = 0.0
        self.count = 0


class Histogram(_Family):
    kind = "histogram"

    def __init__(self, name: str, help_text: str, labelnames: Sequence[str],
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        super().__init__(name, help_text, labelnames)
        cleaned = tuple(sorted(float(b) for b in buckets))
        if not cleaned:
            raise ValueError("histogram needs at least one bucket")
        if any(b <= a for a, b in zip(cleaned, cleaned[1:])):
            raise ValueError("histogram buckets must be strictly increasing")
        self.buckets = cleaned

    def signature(self) -> Tuple[str, str, Tuple[str, ...], Tuple[float, ...]]:
        return (self.kind, self.help_text, self.labelnames, self.buckets)

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)

    def observe(self, value: float, **labels: str) -> None:
        child = self.labels(**labels)
        value = float(value)
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        child.bucket_counts[index] += 1
        child.total += value
        child.count += 1

    def child_snapshot(self, **labels: str) -> Dict[str, object]:
        child = self.labels(**labels)
        cumulative, out = 0, {}
        for bound, bucket in zip(self.buckets, child.bucket_counts):
            cumulative += bucket
            out[_format_value(bound)] = cumulative
        out["+Inf"] = cumulative + child.bucket_counts[-1]
        return {"buckets": out, "sum": child.total, "count": child.count}

    def render(self) -> List[str]:
        lines = [f"# HELP {self.name} {_escape_help(self.help_text)}",
                 f"# TYPE {self.name} {self.kind}"]
        for key, child in self._sorted_children():
            cumulative = 0
            for bound, bucket in zip(self.buckets, child.bucket_counts):
                cumulative += bucket
                suffix = _label_suffix(key, [("le", _format_value(bound))])
                lines.append(f"{self.name}_bucket{suffix} {cumulative}")
            cumulative += child.bucket_counts[-1]
            suffix = _label_suffix(key, [("le", "+Inf")])
            lines.append(f"{self.name}_bucket{suffix} {cumulative}")
            lines.append(f"{self.name}_sum{_label_suffix(key)} "
                         f"{_format_value(child.total)}")
            lines.append(f"{self.name}_count{_label_suffix(key)} "
                         f"{child.count}")
        return lines

    def as_dict(self) -> Dict[str, Dict[str, object]]:
        out: Dict[str, Dict[str, object]] = {}
        for key, _ in self._sorted_children():
            out[_label_suffix(key) or ""] = self.child_snapshot(**dict(key))
        return out


class MetricsRegistry:
    """A process-local family registry with two render targets."""

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}
        self._collectors: List[Callable[["MetricsRegistry"], None]] = []
        self._lock = threading.Lock()

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def names(self) -> List[str]:
        return sorted(self._families)

    def _register(self, family: _Family) -> _Family:
        with self._lock:
            existing = self._families.get(family.name)
            if existing is not None:
                if existing.signature() != family.signature():
                    raise ValueError(
                        f"metric {family.name!r} re-registered with a "
                        f"different signature")
                return existing
            self._families[family.name] = family
            return family

    def counter(self, name: str, help_text: str,
                labelnames: Sequence[str] = ()) -> Counter:
        family = self._register(Counter(name, help_text, labelnames))
        assert isinstance(family, Counter)
        return family

    def gauge(self, name: str, help_text: str,
              labelnames: Sequence[str] = ()) -> Gauge:
        family = self._register(Gauge(name, help_text, labelnames))
        assert isinstance(family, Gauge)
        return family

    def histogram(self, name: str, help_text: str,
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        family = self._register(Histogram(name, help_text, labelnames, buckets))
        assert isinstance(family, Histogram)
        return family

    def register_collector(
            self, collect: Callable[["MetricsRegistry"], None]) -> None:
        """Run ``collect(registry)`` before every render (live gauges)."""
        self._collectors.append(collect)

    def _collect(self) -> None:
        for collect in list(self._collectors):
            collect(self)

    def render_prometheus(self) -> str:
        """Prometheus text exposition format 0.0.4 (trailing newline)."""
        self._collect()
        lines: List[str] = []
        for name in sorted(self._families):
            lines.extend(self._families[name].render())
        return "\n".join(lines) + "\n"

    def as_dict(self) -> Dict[str, object]:
        """Nested JSON-friendly snapshot for the legacy metrics endpoint."""
        self._collect()
        return {name: family.as_dict()
                for name, family in sorted(self._families.items())}


def parse_prometheus(text: str) -> Dict[str, Dict[str, object]]:
    """Parse exposition text back into ``{name: {type, help, samples}}``.

    ``samples`` maps the full sample line key (sample name + label suffix)
    to the float value.  Covers what :meth:`MetricsRegistry.render_prometheus`
    emits; raises ``ValueError`` on lines it cannot interpret, which is the
    point — the round-trip test fails loudly on malformed output.
    """
    families: Dict[str, Dict[str, object]] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            families.setdefault(name, {"samples": {}})["help"] = help_text
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            families.setdefault(name, {"samples": {}})["type"] = kind
            continue
        if line.startswith("#"):
            continue
        # Sample line: name{labels} value  |  name value
        if "{" in line:
            brace = line.index("{")
            close = line.rindex("}")
            if close < brace:
                raise ValueError(f"malformed sample line: {raw!r}")
            sample_name = line[:brace]
            key = line[:close + 1]
            value_text = line[close + 1:].strip()
        else:
            sample_name, _, value_text = line.partition(" ")
            key = sample_name
            value_text = value_text.strip()
        if not value_text:
            raise ValueError(f"malformed sample line: {raw!r}")
        value = float(value_text.replace("+Inf", "inf"))
        base = sample_name
        for suffix in ("_bucket", "_sum", "_count"):
            if base.endswith(suffix) and base[:-len(suffix)] in families:
                base = base[:-len(suffix)]
                break
        family = families.setdefault(base, {"samples": {}})
        family["samples"][key] = value  # type: ignore[index]
    return families
