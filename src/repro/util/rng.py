"""Deterministic randomness helpers.

All stochastic behaviour in the library (OS noise, execution jitter, chunk
placement tie-breaking, failure injection) flows through
``numpy.random.Generator`` instances created by :func:`make_rng`, seeded from
stable string keys.  Two runs with the same configuration therefore produce
bit-identical results, which the test-suite relies on.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np


def stable_hash(*parts: object) -> int:
    """Return a 64-bit hash of ``parts`` that is stable across processes.

    Python's built-in :func:`hash` is salted per interpreter run for strings,
    so it cannot be used for reproducible seeding.
    """
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(repr(part).encode("utf-8"))
        h.update(b"\x00")
    return int.from_bytes(h.digest(), "little")


def stable_seed(*parts: object) -> int:
    """Return a non-negative 32-bit seed derived from ``parts``."""
    return stable_hash(*parts) & 0x7FFFFFFF


def make_rng(*parts: object) -> np.random.Generator:
    """Create a :class:`numpy.random.Generator` seeded from ``parts``."""
    return np.random.default_rng(stable_hash(*parts))


@lru_cache(maxsize=8192)
def _first_uniform(seed: int, low: float, high: float) -> float:
    return float(np.random.default_rng(seed).uniform(low, high))


def keyed_uniform(low: float, high: float, *parts: object) -> float:
    """The first ``make_rng(*parts).uniform(low, high)`` draw, as a float.

    Memoised on ``stable_hash(*parts)``, the seed :func:`make_rng` uses, not
    on ``parts``: keys that are equal in Python but seed differently (``1``,
    ``1.0`` and ``True``) keep their own draws.
    """
    return _first_uniform(stable_hash(*parts), low, high)
