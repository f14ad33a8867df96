"""Outside-in per-layer timing: wrap each layer's public entry points.

The program is not modified.  :class:`LayerTrace` replaces a fixed set of
public methods with timing wrappers for the duration of a traced pass and
restores the originals afterwards, so untraced passes run the program
exactly as shipped.

Each wrapped call is a span.  Spans nest through a stack, so every layer
gets a *self* time (its span minus the spans of the layers it called) and
the self times of one serve call add up to its wall.  Sharded waves serve
in forked worker processes: the wrapped ``ServingEngine.serve`` attaches
the worker's span totals to the report it returns, and the wrapped
``fan_out`` (the coordinator's side of the process boundary) takes them off
again and folds them into a separate worker ledger.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict
from typing import Dict, List, Tuple

#: (module, class, method, layer).  A class of ``None`` wraps a module-level
#: function (the coordinator's fan-out helper, looked up at call time).
TARGETS: Tuple[Tuple[str, object, str, str], ...] = (
    ("repro.sensors.dataset", "SequenceBuilder", "build", "sensors.build"),
    ("repro.core.framework", "EudoxusLocalizer", "prepare", "core.prepare"),
    ("repro.core.framework", "EudoxusLocalizer", "process_frame", "core.process_frame"),
    ("repro.frontend.frontend", "VisualFrontend", "process", "frontend.process"),
    ("repro.backend.slam", "SlamBackend", "process", "backend.slam"),
    ("repro.backend.vio", "VioBackend", "process", "backend.vio"),
    ("repro.backend.registration", "RegistrationBackend", "process",
     "backend.registration"),
    ("repro.maps.store", "MapStore", "publish", "maps.publish"),
    ("repro.maps.store", "MapStore", "apply_updates", "maps.apply_updates"),
    ("repro.maps.merger", "MapMerger", "merge", "maps.merge"),
    ("repro.serving.engine", "ServingEngine", "serve", "serving.serve"),
    ("repro.cluster.engine", "ShardedServingEngine", "serve", "cluster.serve"),
    ("repro.cluster.engine", None, "fan_out", "runner.fan_out"),
)

# Attribute a worker's serve wrapper hangs its span totals on.
_SHIPPED = "_servbench_layers"


class Ledger:
    """Span totals per layer: self seconds, inclusive seconds, calls."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)

    def snapshot(self) -> Dict[str, Dict]:
        return {"self_s": dict(self.self_s), "total_s": dict(self.total_s),
                "calls": dict(self.calls)}

    def add(self, delta: Dict[str, Dict]) -> None:
        for name in ("self_s", "total_s", "calls"):
            target = getattr(self, name)
            for layer, value in delta[name].items():
                target[layer] += value

    def since(self, before: Dict[str, Dict]) -> Dict[str, Dict]:
        now = self.snapshot()
        return {name: {layer: value - before[name].get(layer, 0)
                       for layer, value in now[name].items()}
                for name in now}


class LayerTrace:
    """Install/uninstall the wrappers; hold the coordinator and worker ledgers."""

    def __init__(self) -> None:
        self.ledger = Ledger()          # spans in this process
        self.workers = Ledger()         # spans shipped back from shard workers
        self._stack: List[List[float]] = []
        self._owner = os.getpid()
        self._saved: List[Tuple[object, str, object]] = []

    # ----------------------------------------------------------- wrappers

    def _span(self, layer: str, fn):
        trace = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            trace._stack.append(frame)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                trace._stack.pop()
                trace.ledger.self_s[layer] += elapsed - frame[0]
                trace.ledger.total_s[layer] += elapsed
                trace.ledger.calls[layer] += 1
                if trace._stack:
                    trace._stack[-1][0] += elapsed
        return wrapper

    def _serve_span(self, fn):
        """The engine's serve span; in a worker it also ships the totals."""
        timed = self._span("serving.serve", fn)
        trace = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() == trace._owner:
                return timed(*args, **kwargs)
            before = trace.ledger.snapshot()
            report = timed(*args, **kwargs)
            setattr(report, _SHIPPED, trace.ledger.since(before))
            return report
        return wrapper

    def _fan_out_span(self, fn):
        """Time only the coordinator's waits inside the fan-out generator."""
        timed_next = self._span("runner.fan_out", next)
        trace = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            results = fn(*args, **kwargs)
            while True:
                try:
                    index, result = timed_next(results)
                except StopIteration:
                    return
                shipped = vars(result).pop(_SHIPPED, None)
                if shipped is not None:
                    trace.workers.add(shipped)
                yield index, result
        return wrapper

    # ------------------------------------------------------ install/undo

    def install(self) -> None:
        if self._saved:
            return
        for module_name, class_name, attribute, layer in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            original = getattr(owner, attribute)
            if layer == "serving.serve":
                wrapped = self._serve_span(original)
            elif layer == "runner.fan_out":
                wrapped = self._fan_out_span(original)
            else:
                wrapped = self._span(layer, original)
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)
