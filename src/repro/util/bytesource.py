"""Payload representation that scales from bytes to (virtual) gigabytes.

The functional layer of the reproduction moves *actual data* through the
storage stack so that round-trip correctness can be asserted.  The paper's
experiments, however, involve payloads of 50--200 MB per VM across up to 120
VMs plus 2 GB base images -- materialising those as ``bytes`` objects would be
wasteful and slow for a timing-oriented simulation.

:class:`ByteSource` solves this: it is an immutable, sized, sliceable,
checksummable description of a byte string.  Small payloads use
:class:`LiteralBytes` (real data, exact round-trips); large payloads use
:class:`SyntheticBytes` (deterministic pseudo-random content generated on
demand from a seed) or :class:`ZeroBytes`.  All variants materialise a
window through one primitive, ``readinto(offset, buffer)``, which writes the
bytes straight into a caller-owned buffer; ``read(offset, length)`` is the
same window returned as ``bytes``.  Consumers that only *look* at content
(hashing, verification) stream through ``readinto`` with one reusable window
buffer, so any code path can be exercised with real bytes at test scale
without ever holding a payload twice.

Equality compares content identity cheaply via ``fingerprint()`` (size plus a
content hash computed without materialising synthetic payloads).
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from bisect import bisect_right
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from repro.util.rng import stable_hash

_MATERIALISE_LIMIT = 64 * 1024 * 1024  # refuse accidental >64 MiB materialisation

#: synthetic content is defined block by block so that any window can be
#: produced without generating everything before it
_BLOCK = 65536
#: generated blocks kept for an immediate re-read of the same window (1 MiB)
_CACHED_BLOCKS = 16
#: comparison window: one block short of the cache, so a window that straddles
#: block boundaries still fits and the second side's read of it is all hits
_COMPARE_WINDOW = (_CACHED_BLOCKS - 1) * _BLOCK


class ByteSource(ABC):
    """Immutable description of a byte payload."""

    __slots__ = ()

    # -- required interface -------------------------------------------------

    @property
    @abstractmethod
    def size(self) -> int:
        """Number of bytes represented."""

    @abstractmethod
    def read(self, offset: int = 0, length: int | None = None) -> bytes:
        """Materialise ``length`` bytes starting at ``offset``."""

    @abstractmethod
    def _fill(self, offset: int, view: memoryview) -> None:
        """Write ``[offset, offset + len(view))`` into ``view`` (a flat byte
        view over a non-empty window that :meth:`readinto` already checked)."""

    @abstractmethod
    def slice(self, offset: int, length: int) -> "ByteSource":
        """Return a view of ``[offset, offset + length)`` as a new source."""

    @abstractmethod
    def fingerprint(self) -> str:
        """A content hash that is equal iff the contents are equal.

        For synthetic sources the fingerprint is derived from the generating
        parameters, so no materialisation happens.
        """

    # -- shared behaviour ----------------------------------------------------

    def readinto(self, offset: int, buffer: bytearray | memoryview) -> int:
        """Fill the writable ``buffer`` with the bytes starting at ``offset``.

        The window is the whole buffer (any writable C-contiguous buffer
        object) and must lie inside the source.  This is the materialisation
        primitive: ``read`` and every streaming consumer are built on it.
        Returns the number of bytes written.
        """
        view = memoryview(buffer).cast("B")
        offset, length = self._check_materialise(offset, len(view))
        if length:
            self._fill(offset, view)
        return length

    def to_bytes(self) -> bytes:
        """Materialise the whole payload (guarded against huge sources)."""
        return self.read(0, self.size)

    def _read_filled(self, offset: int, length: int | None) -> bytes:
        """``read`` for sources whose content only exists through ``_fill``."""
        offset, length = self._check_materialise(offset, length)
        out = bytearray(length)
        if length:
            self._fill(offset, memoryview(out))
        return bytes(out)

    def _check_window(self, offset: int, length: int | None) -> tuple[int, int]:
        if length is None:
            length = self.size - offset
        if offset < 0 or length < 0 or offset + length > self.size:
            raise ValueError(
                f"window [{offset}, {offset + length}) out of range for size {self.size}"
            )
        return offset, length

    def _check_materialise(self, offset: int, length: int | None) -> tuple[int, int]:
        """Window check of every path that produces real bytes."""
        offset, length = self._check_window(offset, length)
        if length > _MATERIALISE_LIMIT:
            raise ValueError(
                f"refusing to materialise {length} bytes; limit is {_MATERIALISE_LIMIT}"
            )
        return offset, length

    def __len__(self) -> int:  # pragma: no cover - trivial
        return self.size

    def __eq__(self, other: object) -> bool:
        """Content equality.

        Equal fingerprints settle it without touching content.  Fingerprints
        are representation-sensitive (a concatenation of two literals hashes
        differently from one literal with the same bytes), so sources of up to
        ``_MATERIALISE_LIMIT`` bytes fall back to :func:`content_equal`.
        Above that the comparison is fingerprint-only: two larger sources
        with equal content but different representations compare unequal.
        """
        if not isinstance(other, ByteSource):
            return NotImplemented
        if self.size != other.size:
            return False
        if self.fingerprint() == other.fingerprint():
            return True
        return self.size <= _MATERIALISE_LIMIT and content_equal(self, other)

    def __hash__(self) -> int:
        return hash(self.size)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"{type(self).__name__}(size={self.size})"


class LiteralBytes(ByteSource):
    """A payload backed by an in-memory ``bytes`` object."""

    __slots__ = ("_data",)

    def __init__(self, data: bytes | bytearray | memoryview):
        self._data = bytes(data)

    @property
    def size(self) -> int:
        return len(self._data)

    def read(self, offset: int = 0, length: int | None = None) -> bytes:
        offset, length = self._check_materialise(offset, length)
        return self._data[offset : offset + length]

    def _fill(self, offset: int, view: memoryview) -> None:
        view[:] = memoryview(self._data)[offset : offset + len(view)]

    def slice(self, offset: int, length: int) -> ByteSource:
        if offset == 0 and length == len(self._data):
            return self  # immutable: a full-window slice is the source itself
        offset, length = self._check_window(offset, length)
        return LiteralBytes(self._data[offset : offset + length])

    def fingerprint(self) -> str:
        return "lit:" + hashlib.blake2b(self._data, digest_size=16).hexdigest()


class ZeroBytes(ByteSource):
    """A payload of ``size`` zero bytes (sparse regions of disk images)."""

    __slots__ = ("_size",)

    def __init__(self, size: int):
        if size < 0:
            raise ValueError("size must be non-negative")
        self._size = int(size)

    @property
    def size(self) -> int:
        return self._size

    def read(self, offset: int = 0, length: int | None = None) -> bytes:
        offset, length = self._check_materialise(offset, length)
        return bytes(length)

    def _fill(self, offset: int, view: memoryview) -> None:
        view[:] = bytes(len(view))

    def slice(self, offset: int, length: int) -> ByteSource:
        if offset == 0 and length == self._size:
            return self
        offset, length = self._check_window(offset, length)
        return ZeroBytes(length)

    def fingerprint(self) -> str:
        return f"zero:{self._size}"


@lru_cache(maxsize=_CACHED_BLOCKS)
def _block(seed: int, index: int) -> bytes:
    """Block ``index`` of the synthetic stream of ``seed``.

    Raw PCG64 words are covered by numpy's strict bit-generator stream
    guarantee, and the explicit ``"<u8"`` keeps the bytes the same on
    big-endian hosts.  The small LRU turns the immediate re-read of a window
    (verification reads the stored and the expected side back to back) into
    a copy; entries are immutable, so sharing them is safe.
    """
    words = np.random.PCG64(np.random.SeedSequence((seed, index))).random_raw(_BLOCK // 8)
    return words.astype("<u8", copy=False).tobytes()


class SyntheticBytes(ByteSource):
    """Deterministic pseudo-random payload generated from ``(seed, size)``.

    Content is defined in 64 KiB blocks: block ``i`` is the raw 64-bit output
    of a PCG64 bit generator seeded with ``(seed, i)``, laid out little-endian
    (see :func:`_block`).  ``offset`` slicing is honoured exactly, so
    ``s.slice(a, n).read() == s.read(a, n)`` holds for all windows.
    """

    __slots__ = ("_seed", "_size", "_origin")

    def __init__(self, seed: object, size: int, _origin: int = 0):
        if size < 0:
            raise ValueError("size must be non-negative")
        self._seed = stable_hash("synthetic-bytes", seed)
        self._size = int(size)
        self._origin = int(_origin)

    @property
    def size(self) -> int:
        return self._size

    @property
    def generator_key(self) -> tuple[int, int, int]:
        """``(seed, origin, size)``: the window's bytes are a pure function of
        it, so equal keys mean equal content (equal content across different
        keys is possible but never assumed)."""
        return (self._seed, self._origin, self._size)

    def read(self, offset: int = 0, length: int | None = None) -> bytes:
        return self._read_filled(offset, length)

    def _fill(self, offset: int, view: memoryview) -> None:
        seed = self._seed
        position = self._origin + offset
        written = 0
        while written < len(view):
            index, start = divmod(position, _BLOCK)
            take = min(_BLOCK - start, len(view) - written)
            view[written : written + take] = memoryview(_block(seed, index))[start : start + take]
            written += take
            position += take

    def slice(self, offset: int, length: int) -> ByteSource:
        if offset == 0 and length == self._size:
            return self
        offset, length = self._check_window(offset, length)
        clone = SyntheticBytes.__new__(SyntheticBytes)
        clone._seed = self._seed
        clone._size = length
        clone._origin = self._origin + offset
        return clone

    def fingerprint(self) -> str:
        return f"syn:{self._seed}:{self._origin}:{self._size}"


class _ConcatBytes(ByteSource):
    """Concatenation of several sources without copying their contents."""

    __slots__ = ("_parts", "_offsets", "_size")

    def __init__(self, parts: Sequence[ByteSource]):
        self._parts = tuple(parts)
        self._offsets: list[int] = []
        total = 0
        for part in self._parts:
            self._offsets.append(total)
            total += part.size
        self._size = total

    @property
    def size(self) -> int:
        return self._size

    def _first_part(self, cursor: int) -> int:
        """Index of the part containing ``cursor`` (parts never have size 0,
        so the offsets are strictly increasing and bisect is exact)."""
        return bisect_right(self._offsets, cursor) - 1 if cursor else 0

    def read(self, offset: int = 0, length: int | None = None) -> bytes:
        return self._read_filled(offset, length)

    def _fill(self, offset: int, view: memoryview) -> None:
        parts = self._parts
        offsets = self._offsets
        i = self._first_part(offset)
        written = 0
        while written < len(view):
            part = parts[i]
            local_off = offset + written - offsets[i]
            take = min(part.size - local_off, len(view) - written)
            part._fill(local_off, view[written : written + take])
            written += take
            i += 1

    def slice(self, offset: int, length: int) -> ByteSource:
        if offset == 0 and length == self._size:
            return self
        offset, length = self._check_window(offset, length)
        pieces: list[ByteSource] = []
        remaining = length
        cursor = offset
        parts = self._parts
        offsets = self._offsets
        i = self._first_part(cursor)
        while remaining and i < len(parts):
            part = parts[i]
            local_off = cursor - offsets[i]
            take = min(part.size - local_off, remaining)
            pieces.append(part.slice(local_off, take))
            cursor += take
            remaining -= take
            i += 1
        return concat(pieces)

    def fingerprint(self) -> str:
        inner = ",".join(p.fingerprint() for p in self._parts if p.size)
        return "cat:" + hashlib.blake2b(inner.encode(), digest_size=16).hexdigest()


def concat(parts: Iterable[ByteSource]) -> ByteSource:
    """Concatenate byte sources into at most one level: empty parts are
    dropped and the parts of a concatenation are spliced in, not nested."""
    flat: list[ByteSource] = []
    for part in parts:
        if type(part) is _ConcatBytes:
            flat.extend(part._parts)
        elif part.size > 0:
            flat.append(part)
    if not flat:
        return LiteralBytes(b"")
    if len(flat) == 1:
        return flat[0]
    return _ConcatBytes(flat)


def content_equal(a: ByteSource, b: ByteSource) -> bool:
    """Compare two sources byte for byte, whatever their representations.

    Streams both sides through two reusable window buffers and stops at the
    first window that differs, so neither side is ever held in one piece.
    """
    if a.size != b.size:
        return False
    left = right = bytearray()
    for offset in range(0, a.size, _COMPARE_WINDOW):
        take = min(_COMPARE_WINDOW, a.size - offset)
        if take != len(left):  # the first window, and a shorter last one
            left, right = bytearray(take), bytearray(take)
        a.readinto(offset, left)
        b.readinto(offset, right)
        if left != right:  # bytearray comparison is one memcmp; memoryview's is per element
            return False
    return True
