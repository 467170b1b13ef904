"""Span-timed wrappers for the hot batch kernels.

Per-call spans around kernels would swamp a trace — one solve can make
thousands of kernel calls — so :func:`timed_kernels` wraps the active
:class:`~repro.backend.KernelBackend` with *accumulating* timers and
emits **one** synthetic span per kernel on exit
(``kernel.propagate_x`` etc., with ``calls`` and ``backend`` attrs, via
:func:`repro.obs.trace.emit_timing`).  The wrappers call the wrapped
kernels unchanged, so the bit-for-bit contract is untouched;
they are only installed inside already-traced solves
(:func:`repro.service.pool.solve_group_traced`, the traced DAG block
job), never on the default path.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import fields, replace

from ..backend import KernelBackend, activate_backend, get_backend
from .trace import emit_timing, tracing_active

__all__ = ["KERNEL_NAMES", "timed_kernels"]

#: The :class:`~repro.backend.KernelBackend` kernel attributes.
KERNEL_NAMES = tuple(f.name for f in fields(KernelBackend) if f.name != "name")


class _KernelTimer:
    """Accumulated call counts and seconds per kernel of one backend."""

    __slots__ = ("backend", "calls", "seconds")

    def __init__(self, backend):
        self.backend = backend
        self.calls = dict.fromkeys(KERNEL_NAMES, 0)
        self.seconds = dict.fromkeys(KERNEL_NAMES, 0.0)

    def _timed(self, name: str, kernel):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return kernel(*args, **kwargs)
            finally:
                self.seconds[name] += time.perf_counter() - start
                self.calls[name] += 1

        return wrapper

    def wrapped(self):
        return replace(
            self.backend,
            **{
                name: self._timed(name, getattr(self.backend, name))
                for name in KERNEL_NAMES
            },
        )

    def emit(self) -> None:
        for name in KERNEL_NAMES:
            if self.calls[name]:
                emit_timing(
                    f"kernel.{name}",
                    self.seconds[name],
                    calls=self.calls[name],
                    backend=self.backend.name,
                )


@contextlib.contextmanager
def timed_kernels():
    """Time the active backend's kernels for the enclosed solve.

    No-op while tracing is inactive.  On exit, emits one aggregated
    span per kernel that was called, parented at the current span.
    """
    if not tracing_active():
        yield
        return
    timer = _KernelTimer(get_backend())
    with activate_backend(timer.wrapped()):
        try:
            yield
        finally:
            timer.emit()
