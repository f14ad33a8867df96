"""Unit coverage for the observability plane (:mod:`repro.obs`).

Three layers, none of which touch the serving stack:

* the :class:`Tracer` ring buffer and its Chrome-trace export;
* the :class:`MetricsRegistry` families, including the idempotent
  re-registration contract and the render -> parse round trip;
* property-based invariants (hypothesis): histogram bucket counts are
  cumulative-monotone and label children never bleed into each other.

The serving-integration half (span determinism, golden signatures under
``EUDOXUS_TRACE=1``) lives in tests/test_obs_serving.py.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    DEFAULT_BUCKETS,
    DEFAULT_TRACE_CAPACITY,
    MetricsRegistry,
    SpanEvent,
    TRACE_CAPACITY_ENV,
    TRACE_ENV,
    Tracer,
    parse_prometheus,
    quantize_us,
    trace_capacity,
    tracer_from_env,
    tracing_enabled,
)

# ----------------------------------------------------------------- tracer


class TestTracer:
    def test_dropped_exposed_in_prometheus_exposition(self):
        """Ring overflow is a first-class metric, not just an attribute:
        binding the tracer surfaces ``eudoxus_tracer_dropped_total``,
        collector-driven so later drops show up without re-binding."""
        tracer = Tracer(capacity=2)
        registry = MetricsRegistry()
        tracer.bind_metrics(registry)
        tracer.bind_metrics(registry)  # idempotent per registry
        for index in range(5):
            tracer.instant("tick", "engine", float(index))
        assert tracer.dropped == 3
        parsed = parse_prometheus(registry.render_prometheus())
        assert parsed["eudoxus_tracer_dropped_total"]["samples"][
            "eudoxus_tracer_dropped_total"] == 3.0
        tracer.instant("tick", "engine", 9.0)
        parsed = parse_prometheus(registry.render_prometheus())
        assert parsed["eudoxus_tracer_dropped_total"]["samples"][
            "eudoxus_tracer_dropped_total"] == 4.0

    def test_span_quantizes_to_integer_microseconds(self):
        tracer = Tracer()
        tracer.span("frame", "engine", 1.2345678, 0.25, stream="s-0")
        event = tracer.events[0]
        assert event.timestamp_us == 1234568
        assert event.duration_us == 250000
        assert event.phase == "X"
        assert event.clock == "virtual"
        assert event.args_dict() == {"stream": "s-0"}

    def test_instant_has_zero_duration(self):
        tracer = Tracer()
        tracer.instant("switch", "session", 2.0, clock="virtual", track="t")
        event = tracer.events[0]
        assert event.phase == "i"
        assert event.duration_us == 0

    def test_unknown_clock_domain_rejected(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            tracer.span("x", "engine", 0.0, clock="lamport")
        with pytest.raises(ValueError):
            tracer.instant("x", "engine", 0.0, clock="lamport")

    def test_args_are_frozen_and_order_insensitive(self):
        a = SpanEvent("n", "c", "X", "virtual", 0, 0, "t",
                      args=(("a", 1), ("b", 2)))
        tracer = Tracer()
        tracer.span("n", "c", 0.0, 0.0, track="t", b=2, a=1)
        assert tracer.events[0] == a

    def test_ring_overflow_drops_oldest_and_counts(self):
        tracer = Tracer(capacity=3)
        for index in range(5):
            tracer.instant(f"e{index}", "engine", float(index))
        assert len(tracer) == 3
        assert tracer.dropped == 2
        assert [event.name for event in tracer.events] == ["e2", "e3", "e4"]

    def test_wall_span_measures_nonnegative_duration(self):
        tracer = Tracer()
        with tracer.wall_span("work", "kernel", track="kernels", n=3):
            pass
        event = tracer.events[0]
        assert event.clock == "wall"
        assert event.duration_us >= 0
        assert event.args_dict() == {"n": 3}

    def test_wall_span_records_even_when_body_raises(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.wall_span("work", "kernel"):
                raise RuntimeError("boom")
        assert len(tracer) == 1

    def test_by_category_and_by_clock_filter(self):
        tracer = Tracer()
        tracer.instant("a", "session", 0.0)
        tracer.instant("b", "engine", 0.0)
        tracer.instant("c", "engine", 0.1, clock="wall")
        assert [event.name for event in tracer.by_category("engine")] == ["b", "c"]
        assert [event.name for event in tracer.events if event.clock == "wall"] == ["c"]

    def test_clear_resets_buffer_and_dropped(self):
        tracer = Tracer(capacity=1)
        tracer.instant("a", "x", 0.0)
        tracer.instant("b", "x", 0.0)
        assert tracer.dropped == 1
        tracer.clear()
        assert len(tracer) == 0 and tracer.dropped == 0

    def test_chrome_export_separates_clock_domains(self, tmp_path):
        tracer = Tracer()
        tracer.span("deterministic", "engine", 0.0, 1.0, clock="virtual")
        tracer.span("telemetry", "maps", 0.0, 1.0, clock="wall", track="maps")
        path = tracer.export_chrome(tmp_path / "nested" / "trace.json")
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        pids = {entry["pid"] for entry in events if entry["ph"] == "X"}
        assert pids == {1, 2}
        meta_names = {entry["args"]["name"] for entry in events
                      if entry["ph"] == "M" and entry["name"] == "process_name"}
        assert meta_names == {"virtual clock", "wall clock"}
        assert doc["otherData"]["dropped_events"] == 0

    def test_chrome_export_spans_and_instants_shape(self):
        tracer = Tracer()
        tracer.span("s", "engine", 0.5, 0.25)
        tracer.instant("i", "engine", 0.75)
        entries = [entry for entry in tracer.to_chrome()["traceEvents"]
                   if entry["ph"] in ("X", "i")]
        span, instant = entries
        assert span["dur"] == 250000 and span["ts"] == 500000
        assert instant["s"] == "t" and "dur" not in instant


class TestEnvKnobs:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(TRACE_ENV, raising=False)
        assert not tracing_enabled()
        assert tracer_from_env() is None

    @pytest.mark.parametrize("value", ["0", "false", "no", ""])
    def test_falsy_values_stay_disabled(self, monkeypatch, value):
        monkeypatch.setenv(TRACE_ENV, value)
        assert not tracing_enabled()

    def test_enabled_builds_tracer_with_env_capacity(self, monkeypatch):
        monkeypatch.setenv(TRACE_ENV, "1")
        monkeypatch.setenv(TRACE_CAPACITY_ENV, "128")
        tracer = tracer_from_env()
        assert tracer is not None and tracer.capacity == 128

    def test_malformed_capacity_falls_back(self, monkeypatch):
        monkeypatch.setenv(TRACE_CAPACITY_ENV, "not-a-number")
        assert trace_capacity() == DEFAULT_TRACE_CAPACITY
        monkeypatch.setenv(TRACE_CAPACITY_ENV, "-5")
        assert trace_capacity() == 1

    def test_quantize_rounds_half_away_sensibly(self):
        assert quantize_us(0.0000015) == 2
        assert quantize_us(1.0) == 1000000


# ---------------------------------------------------------------- metrics


class TestCounter:
    def test_inc_and_value_with_labels(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "help", ("mode",))
        counter.inc(mode="vio")
        counter.inc(2.0, mode="vio")
        counter.inc(mode="slam")
        assert counter.value(mode="vio") == 3.0
        assert counter.value(mode="slam") == 1.0

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("c_total", "help")
        with pytest.raises(ValueError):
            counter.inc(-1.0)

    def test_wrong_label_set_rejected(self):
        counter = MetricsRegistry().counter("c_total", "help", ("mode",))
        with pytest.raises(ValueError):
            counter.inc(moed="vio")


class TestGauge:
    def test_set_overwrites(self):
        gauge = MetricsRegistry().gauge("g", "help")
        gauge.set(4.0)
        gauge.set(2.5)
        assert gauge.value() == 2.5


class TestHistogram:
    def test_snapshot_buckets_sum_count(self):
        histogram = MetricsRegistry().histogram(
            "h_ms", "help", buckets=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            histogram.observe(value)
        snap = histogram.child_snapshot()
        assert snap["buckets"] == {"1": 1, "10": 2, "+Inf": 3}
        assert snap["count"] == 3
        assert snap["sum"] == pytest.approx(55.5)

    def test_buckets_must_be_strictly_increasing(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("h", "help", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            registry.histogram("h2", "help", buckets=())


class TestRegistry:
    def test_reregistration_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("c_total", "help", ("mode",))
        second = registry.counter("c_total", "help", ("mode",))
        assert first is second

    def test_conflicting_reregistration_raises(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "help", ("mode",))
        with pytest.raises(ValueError):
            registry.counter("c_total", "different help", ("mode",))
        with pytest.raises(ValueError):
            registry.gauge("c_total", "help", ("mode",))

    def test_collector_runs_at_render_time(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("live", "help")
        state = {"value": 7.0}
        registry.register_collector(lambda reg: gauge.set(state["value"]))
        assert "live 7" in registry.render_prometheus()
        state["value"] = 9.0
        assert "live 9" in registry.render_prometheus()

    def test_contains_and_names(self):
        registry = MetricsRegistry()
        registry.counter("b_total", "help")
        registry.gauge("a", "help")
        assert "a" in registry and "missing" not in registry
        assert registry.names() == ["a", "b_total"]

    def test_as_dict_is_json_serialisable(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "help", ("mode",)).inc(mode="vio")
        registry.histogram("h_ms", "help").observe(3.0)
        json.dumps(registry.as_dict())


# -------------------------------------------------- prometheus round trip


class TestPrometheusRoundTrip:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter(
            "eudoxus_demo_total", "Counts with labels.",
            ("mode", "outcome")).inc(3, mode="vio", outcome="ok")
        registry.gauge("eudoxus_demo_gauge", "A gauge.").set(1.5)
        hist = registry.histogram("eudoxus_demo_ms", "A histogram.",
                                  buckets=(1.0, 5.0))
        for value in (0.2, 2.0, 9.0):
            hist.observe(value)
        return registry

    def test_round_trip_preserves_samples(self):
        registry = self._registry()
        parsed = parse_prometheus(registry.render_prometheus())
        assert parsed["eudoxus_demo_total"]["type"] == "counter"
        assert parsed["eudoxus_demo_total"]["samples"][
            'eudoxus_demo_total{mode="vio",outcome="ok"}'] == 3.0
        assert parsed["eudoxus_demo_gauge"]["samples"][
            "eudoxus_demo_gauge"] == 1.5
        samples = parsed["eudoxus_demo_ms"]["samples"]
        assert samples['eudoxus_demo_ms_bucket{le="1"}'] == 1.0
        assert samples['eudoxus_demo_ms_bucket{le="5"}'] == 2.0
        assert samples['eudoxus_demo_ms_bucket{le="+Inf"}'] == 3.0
        assert samples["eudoxus_demo_ms_count"] == 3.0

    def test_rendering_is_deterministic(self):
        assert (self._registry().render_prometheus()
                == self._registry().render_prometheus())

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "help", ("reason",)).inc(
            reason='say "hi"\nbye\\')
        parsed = parse_prometheus(registry.render_prometheus())
        assert len(parsed["c_total"]["samples"]) == 1

    def test_escaped_label_value_key_is_exact(self):
        """The sample key carries the escaped form verbatim — quotes,
        newlines and backslashes all inside the one brace pair."""
        registry = MetricsRegistry()
        registry.counter("c_total", "help", ("reason",)).inc(
            reason='say "hi"\nbye\\')
        parsed = parse_prometheus(registry.render_prometheus())
        key = 'c_total{reason="say \\"hi\\"\\nbye\\\\"}'
        assert parsed["c_total"]["samples"][key] == 1.0

    def test_malformed_line_raises(self):
        with pytest.raises(ValueError):
            parse_prometheus("metric_without_value\n")

    def test_inf_bucket_parses(self):
        parsed = parse_prometheus(
            "# TYPE h histogram\n" 'h_bucket{le="+Inf"} 4\n')
        assert parsed["h"]["samples"]['h_bucket{le="+Inf"}'] == 4.0

    def test_empty_exposition_parses_to_no_families(self):
        assert parse_prometheus("") == {}
        assert parse_prometheus("\n\n") == {}

    def test_family_with_no_samples_round_trips_empty(self):
        """A declared-but-never-incremented labeled family renders only its
        HELP/TYPE header; the parser must keep it as an empty family
        rather than dropping it or inventing a sample."""
        registry = MetricsRegistry()
        registry.counter("c_idle_total", "Never incremented.", ("mode",))
        parsed = parse_prometheus(registry.render_prometheus())
        assert parsed["c_idle_total"]["type"] == "counter"
        assert parsed["c_idle_total"]["samples"] == {}


# -------------------------------------------------------------- hypothesis


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e4,
                          allow_nan=False), max_size=64))
def test_histogram_bucket_counts_are_cumulative_monotone(values):
    histogram = MetricsRegistry().histogram("h_ms", "help")
    for value in values:
        histogram.observe(value)
    snap = histogram.child_snapshot()
    counts = [snap["buckets"][key] for key in
              [k for k in snap["buckets"] if k != "+Inf"] + ["+Inf"]]
    assert all(b >= a for a, b in zip(counts, counts[1:]))
    assert counts[-1] == snap["count"] == len(values)
    assert snap["sum"] == pytest.approx(math.fsum(values))


@settings(max_examples=50, deadline=None)
@given(st.dictionaries(
    st.sampled_from(["vio", "slam", "registration", "idle"]),
    st.integers(min_value=0, max_value=20), min_size=1))
def test_counter_label_children_are_isolated(per_mode):
    counter = MetricsRegistry().counter("c_total", "help", ("mode",))
    for mode, count in per_mode.items():
        for _ in range(count):
            counter.inc(mode=mode)
    for mode, count in per_mode.items():
        assert counter.value(mode=mode) == count


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(
    st.sampled_from(["a", "b"]),
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False)),
    max_size=40))
def test_histogram_label_children_are_isolated(observations):
    histogram = MetricsRegistry().histogram("h_ms", "help", ("track",))
    expected = {"a": 0, "b": 0}
    for track, value in observations:
        histogram.observe(value, track=track)
        expected[track] += 1
    for track, count in expected.items():
        assert histogram.child_snapshot(track=track)["count"] == count
