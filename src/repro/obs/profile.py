"""Low-overhead profiling hooks for the hot kernels.

The backends call :func:`profile_kernel` around their expensive blocks
(bundle-adjustment solve, MSCKF update, stereo triangulation).  The hooks
are **off by default** and gated twice:

* process-globally by :func:`enable_kernel_tracing` / the
  ``EUDOXUS_TRACE_KERNELS`` env knob (read once at first use), and
* structurally: when disabled, :func:`profile_kernel` returns one shared
  reusable null context manager — no allocation, no clock read, just a
  module-global load and an ``is None`` check.  Kernel call sites are
  per-keyframe / per-filter-update, so even the enabled path (two
  ``perf_counter`` reads and one deque append) is noise next to the
  linear-algebra they wrap.

Kernel spans land in a dedicated process-global :class:`~repro.obs.trace.Tracer`
(wall clock, track ``"kernels"``) rather than the engine's tracer: kernels
run inside worker processes where no engine tracer exists, and keeping the
buffers separate preserves the engine trace's determinism guarantee.
:func:`enable_kernel_tracing` returns it.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.obs.trace import TRACE_KERNELS_ENV, Tracer, trace_capacity

__all__ = [
    "disable_kernel_tracing",
    "enable_kernel_tracing",
    "profile_kernel",
]


class _NullContext:
    """Reusable no-op context manager (the disabled fast path)."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL = _NullContext()

#: The process-global kernel tracer; None means the hooks are disabled.
_KERNEL_TRACER: Optional[Tracer] = None
_ENV_CHECKED = False


def enable_kernel_tracing(tracer: Optional[Tracer] = None) -> Tracer:
    """Turn the hooks on, optionally into a caller-provided tracer."""
    global _KERNEL_TRACER, _ENV_CHECKED
    _ENV_CHECKED = True
    _KERNEL_TRACER = tracer if tracer is not None else Tracer(
        capacity=trace_capacity())
    return _KERNEL_TRACER


def disable_kernel_tracing() -> None:
    """Turn the hooks off and drop the buffer."""
    global _KERNEL_TRACER, _ENV_CHECKED
    _ENV_CHECKED = True
    _KERNEL_TRACER = None


def _check_env() -> None:
    # Deferred once-only env read: worker processes inherit the knob via
    # their environment without the parent having to call enable_*.
    global _ENV_CHECKED
    _ENV_CHECKED = True
    if os.environ.get(TRACE_KERNELS_ENV, "").strip().lower() not in (
            "", "0", "false", "no"):
        enable_kernel_tracing()


def profile_kernel(name: str, **args: object):
    """Context manager timing one kernel invocation (or the shared no-op)."""
    if not _ENV_CHECKED:
        _check_env()
    tracer = _KERNEL_TRACER
    if tracer is None:
        return _NULL
    return tracer.wall_span(name, "kernel", track="kernels", **args)
