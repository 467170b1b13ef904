"""Runtime-selected kernel backends for the hot batch loops.

The batch modules (:mod:`repro.batch.evaluation`,
:mod:`repro.batch.incremental`) and the batched bisection driver
(:mod:`repro.heuristics.binary_search`) spend essentially all of their
time in a handful of inner kernels: the backward ``x`` propagation, the
row-wise scatter-add of task contributions into machine periods, the
single-move candidate probe, and the first-feasible machine selection of
the greedy placement.  This package puts those kernels behind a small
registry so they can be swapped at runtime:

* ``numpy`` — the default, extracted behavior-identically from the
  previously inlined code; always available.
* ``numba`` — optional JIT-compiled kernels (``pip install -e
  .[numba]``) with ``cache=True``; selecting it without numba installed
  falls back to numpy with a single warning.

Selection order: explicit :func:`set_backend` (the CLI's ``--backend``
flag) > the ``REPRO_BACKEND`` environment variable > auto-detection
(numba when importable and functional, numpy otherwise).

Every backend is held to the same bit-for-bit contract as the original
inlined kernels: identical operation order, identical accumulation
order, so batch results stay bit-for-bit equal to the scalar reference
path regardless of the backend in use (enforced by the parametrized
equivalence suite in ``tests/unit/test_backend.py``).
"""

from __future__ import annotations

import os
import warnings
from collections.abc import Callable
from dataclasses import dataclass

from ..exceptions import ReproError

__all__ = [
    "KernelBackend",
    "BackendUnavailableError",
    "register_backend",
    "registered_backends",
    "available_backends",
    "get_backend",
    "set_backend",
    "use_backend",
    "activate_backend",
    "backend_info",
    "BACKEND_ENV_VAR",
    "AUTO_BACKEND",
]

#: Environment variable consulted when no backend was set programmatically.
BACKEND_ENV_VAR = "REPRO_BACKEND"
#: Pseudo-name that resolves to the fastest functional backend.
AUTO_BACKEND = "auto"


class BackendUnavailableError(ReproError):
    """A backend's factory cannot produce a working kernel set."""


@dataclass(frozen=True, slots=True)
class KernelBackend:
    """The kernel set one backend provides.

    Every function must be a drop-in for the numpy reference in
    :mod:`repro.backend.numpy_backend` — same signatures, same dtypes,
    same operation and accumulation order (the bit-for-bit contract).

    Attributes
    ----------
    name:
        Registry name ("numpy", "numba", ...).
    propagate_x:
        ``(order, succ, f_used) -> x`` — backward expected-product
        recursion over an ``(R, n)`` stack; ``order`` is the reverse
        topological task order, ``succ[t]`` the successor of ``t`` or -1.
    scatter_periods:
        ``(assignments, contributions, num_machines) -> periods`` —
        row-wise segment sum of ``(R, n)`` task contributions into
        ``(R, m)`` machine periods, tasks visited in ascending order.
    scatter_add_rows:
        ``(out, cols, vals) -> None`` — in-place row-wise scatter-add of
        ``(R, k)`` values into an ``(R, m)`` accumulator (the
        ``np.add.at`` pattern of the incremental probes).
    critical_mask:
        ``(machine_periods, rel_tol) -> mask`` — boolean ``(R, m)`` mask
        of machines attaining each row's maximum period.
    probe_candidates:
        ``(base, rest, ratios, x_task, w_task) -> (R, m)`` — the fused
        single-move candidate probe: per row ``r`` and destination ``v``,
        the max over machines ``u`` of ``base[r, u] + rest[r, u] *
        ratios[r, v]`` with ``(x_task[r] * ratios[r, v]) * w_task[r, v]``
        added at ``u == v``.  Compiled backends fuse the max instead of
        materialising the ``(R, m, m)`` candidate tensor.
    first_feasible:
        ``(feasible, primary, secondary) -> chosen`` — per row, the
        ``feasible`` machine that sorts first by ascending ``(primary,
        secondary, index)``, all ``(R, m)``: the first feasible machine
        of the greedy placement's preference order, picked with
        comparisons only (0 when no machine is feasible).
    """

    name: str
    propagate_x: Callable
    scatter_periods: Callable
    scatter_add_rows: Callable
    critical_mask: Callable
    probe_candidates: Callable
    first_feasible: Callable


_FACTORIES: dict[str, Callable[[], KernelBackend]] = {}
_INSTANCES: dict[str, KernelBackend] = {}
_ACTIVE: KernelBackend | None = None
_EXPLICIT: str | None = None
_WARNED: set[str] = set()


def register_backend(name: str, factory: Callable[[], KernelBackend]) -> None:
    """Register a backend factory under ``name``.

    The factory is called lazily on first use and may raise
    :class:`BackendUnavailableError` (e.g. a missing optional
    dependency); resolution then falls back to numpy.
    """
    key = name.lower()
    if key in _FACTORIES:
        raise ReproError(f"kernel backend {name!r} is already registered")
    _FACTORIES[key] = factory


def registered_backends() -> list[str]:
    """Every registered backend name, loadable or not."""
    return list(_FACTORIES)


def _load(name: str) -> KernelBackend:
    """Instantiate (and cache) one backend; raises if it cannot load."""
    if name not in _INSTANCES:
        _INSTANCES[name] = _FACTORIES[name]()
    return _INSTANCES[name]


def available_backends() -> list[str]:
    """The registered backends whose factories actually load here.

    ``numpy`` is always included; ``numba`` only when the import (and a
    smoke compilation) succeeds — this is what the parametrized
    equivalence tests iterate over.
    """
    names = []
    for name in _FACTORIES:
        try:
            _load(name)
        except BackendUnavailableError:
            continue
        names.append(name)
    return names


def _resolve(name: str) -> KernelBackend:
    key = name.lower()
    if key == AUTO_BACKEND:
        # Auto-detect: prefer the compiled backend when it loads, without
        # warning on the (expected) numpy-only installs.
        try:
            return _load("numba")
        except BackendUnavailableError:
            return _load("numpy")
    if key not in _FACTORIES:
        raise ReproError(
            f"unknown kernel backend {name!r}; registered: {registered_backends()}"
        )
    try:
        return _load(key)
    except BackendUnavailableError as exc:
        if key not in _WARNED:
            _WARNED.add(key)
            warnings.warn(
                f"kernel backend {name!r} is unavailable ({exc}); "
                "falling back to the numpy backend",
                RuntimeWarning,
                stacklevel=3,
            )
        return _load("numpy")


def get_backend(name: str | None = None) -> KernelBackend:
    """The active kernel backend (or the one named ``name``).

    Without ``name``, resolves once per process in selection order —
    :func:`set_backend` > ``REPRO_BACKEND`` > auto-detect — and caches
    the result; :func:`set_backend` invalidates the cache.
    """
    global _ACTIVE
    if name is not None:
        return _resolve(name)
    if _ACTIVE is None:
        requested = _EXPLICIT or os.environ.get(BACKEND_ENV_VAR) or AUTO_BACKEND
        _ACTIVE = _resolve(requested)
    return _ACTIVE


def set_backend(name: str | None) -> KernelBackend:
    """Select the process-wide backend; ``None`` resets to auto-detect.

    Returns the backend now active.  An unavailable explicit choice
    (e.g. ``"numba"`` without numba installed) warns once and activates
    the numpy fallback, mirroring ``REPRO_BACKEND`` handling.
    """
    global _ACTIVE, _EXPLICIT
    _EXPLICIT = name
    _ACTIVE = None
    return get_backend()


class use_backend:
    """Context manager pinning the active backend (tests, benchmarks)."""

    def __init__(self, name: str | None):
        self._name = name
        self._previous: str | None = None

    def __enter__(self) -> KernelBackend:
        self._previous = _EXPLICIT
        return set_backend(self._name)

    def __exit__(self, *exc_info) -> None:
        set_backend(self._previous)


class activate_backend:
    """Temporarily install a :class:`KernelBackend` *instance* as active.

    The seam the tracing instrumentation uses to swap in a span-timed
    wrapper of the current backend for the duration of one solve
    (:mod:`repro.obs.instrument`).  Unlike :func:`use_backend` it takes
    an instance, not a registry name, so wrappers never pollute the
    registry.  Concurrent activations on different threads may briefly
    see each other's instance; that is harmless for wrappers that keep
    the wrapped kernels' bit-for-bit behaviour (the only supported use).
    """

    __slots__ = ("_backend", "_previous")

    def __init__(self, backend: KernelBackend):
        self._backend = backend
        self._previous: KernelBackend | None = None

    def __enter__(self) -> KernelBackend:
        global _ACTIVE
        self._previous = _ACTIVE
        _ACTIVE = self._backend
        return self._backend

    def __exit__(self, *exc_info) -> None:
        global _ACTIVE
        _ACTIVE = self._previous


def numba_status() -> tuple[bool, str | None]:
    """``(available, version)`` of the optional numba dependency."""
    try:
        import numba
    except Exception:  # pragma: no cover - exercised via sys.modules patching
        return False, None
    return True, getattr(numba, "__version__", None)


def backend_info() -> dict:
    """Active backend description for ``/stats`` and run metadata."""
    available, version = numba_status()
    return {
        "name": get_backend().name,
        "registered": registered_backends(),
        "numba": {"available": available, "version": version},
    }


def _register_builtins() -> None:
    from . import numpy_backend

    register_backend("numpy", numpy_backend.make_backend)

    def _numba_factory() -> KernelBackend:
        from . import numba_backend

        return numba_backend.make_backend()

    register_backend("numba", _numba_factory)


_register_builtins()
