"""Reproducible random-number streams for simulations and experiments.

Every stochastic component of the library (instance generation, heuristic
H1, failure sampling in the simulator) takes a ``numpy.random.Generator``.
This module centralises how those generators are derived from a single
experiment seed so that:

* two runs with the same seed produce identical results;
* independent components (e.g. repetition 7 of figure 5 versus
  repetition 8) get *independent* streams, obtained by spawning from a
  ``numpy.random.SeedSequence`` rather than by reusing or offsetting seeds.
"""

from __future__ import annotations

import zlib
from collections.abc import Iterator

import numpy as np

__all__ = ["RandomStreamFactory"]


def _label_key(label: str) -> int:
    """Stable 32-bit key for a stream label.

    Deliberately *not* Python's ``hash()``: string hashing is salted per
    process (PYTHONHASHSEED), which would silently break the "same seed,
    same results" guarantee across interpreter restarts and in worker
    processes of the parallel experiment runner.
    """
    return zlib.crc32(label.encode("utf-8")) & 0xFFFFFFFF


class RandomStreamFactory:
    """Named, reproducible sub-streams derived from a single root seed.

    Each distinct ``(label, index)`` pair maps to a deterministic child
    stream, regardless of the order in which streams are requested.  This
    lets an experiment ask for, say, the stream of repetition 13 without
    generating the first twelve.

    Parameters
    ----------
    seed:
        Root seed of the experiment (``None`` = non-reproducible).
    """

    __slots__ = ("_root",)

    def __init__(self, seed: int | np.random.SeedSequence | None = None):
        self._root = (
            seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        )

    @property
    def entropy(self):
        """The full root entropy (int or tuple of ints).

        Enough to reconstruct an identical factory in another process:
        ``RandomStreamFactory(np.random.SeedSequence(entropy))`` produces
        the same streams, because :meth:`stream` derives children from the
        entropy alone.
        """
        return self._root.entropy

    @property
    def root_entropy(self) -> int | None:
        """The root entropy (useful for logging the effective seed)."""
        entropy = self._root.entropy
        if isinstance(entropy, (list, tuple)):
            return int(entropy[0]) if entropy else None
        return int(entropy) if entropy is not None else None

    def stream(self, label: str, index: int = 0) -> np.random.Generator:
        """Deterministic generator for the given ``(label, index)`` pair.

        The label is digested with a process-independent CRC so that the
        same ``(seed, label, index)`` triple yields the same stream in any
        process — a requirement of the parallel experiment runner, whose
        workers re-derive their streams independently.
        """
        child = np.random.SeedSequence(
            entropy=self._root.entropy, spawn_key=(_label_key(label), int(index))
        )
        return np.random.default_rng(child)

    def streams(self, label: str, count: int) -> Iterator[np.random.Generator]:
        """Iterator over ``count`` streams ``(label, 0..count-1)``."""
        for index in range(count):
            yield self.stream(label, index)
