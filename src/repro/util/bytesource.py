"""Payload representation that scales from bytes to (virtual) gigabytes.

The functional layer of the reproduction moves *actual data* through the
storage stack so that round-trip correctness can be asserted.  The paper's
experiments, however, involve payloads of 50--200 MB per VM across up to 120
VMs plus 2 GB base images -- materialising those as ``bytes`` objects would be
wasteful and slow for a timing-oriented simulation.

:class:`ByteSource` solves this: it is an immutable, sized, sliceable
description of a byte string.  Small payloads use :class:`LiteralBytes` (real
data, exact round-trips); large payloads use :class:`SyntheticBytes`
(deterministic pseudo-random content generated on demand from a seed) or
:class:`ZeroBytes`.  All variants materialise a window through one primitive,
``readinto(offset, buffer)``, which writes the bytes straight into a
caller-owned buffer; ``read(offset, length)`` is the same window returned as
``bytes``.  Consumers that only *look* at content (hashing) stream through
``readinto`` with one reusable window buffer, so any code path can be
exercised with real bytes at test scale without ever holding a payload twice.

Sources compare and hash by identity.  The one content equality is
:func:`content_equal`: exact over whole sources, it settles a window of the
same generator stream at the same position from the representation and
streams every other window.
"""

from __future__ import annotations

import hashlib
import operator
from abc import ABC, abstractmethod
from array import array
from bisect import bisect_right
from typing import Iterable, Sequence

import numpy as np

from repro.util.rng import stable_hash

_MATERIALISE_LIMIT = 64 * 1024 * 1024  # refuse accidental >64 MiB materialisation

#: synthetic content is defined block by block so that any window can be
#: produced without generating everything before it
_BLOCK = 65536
#: streaming window of :func:`content_equal` (each side has one buffer of it)
_COMPARE_WINDOW = 1 << 20


def _checked_size(size: int) -> int:
    """``size`` as a non-negative ``int``; a fractional or negative size is refused."""
    try:
        size = operator.index(size)
    except TypeError:
        raise ValueError(f"size must be an integer, got {size!r}") from None
    if size < 0:
        raise ValueError(f"size must be non-negative, got {size}")
    return size


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
        """A hash of the representation: equal fingerprints mean equal
        content, but equal content can have different fingerprints.

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
        self._size = _checked_size(size)

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


def _block(seed: int, index: int) -> bytes:
    """Block ``index`` of the synthetic stream of ``seed``.

    Raw PCG64 words are covered by numpy's strict bit-generator stream
    guarantee, and the explicit ``"<u8"`` keeps the bytes the same on
    big-endian hosts.
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
        self._size = _checked_size(size)
        self._seed = stable_hash("synthetic-bytes", seed)
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

    @classmethod
    def from_generator_key(cls, key: tuple[int, int, int]) -> SyntheticBytes:
        """The window whose :attr:`generator_key` is ``key``, built as
        :meth:`slice` builds one."""
        window = cls.__new__(cls)
        window._seed, window._origin, window._size = key
        return window

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
        offsets = []
        total = 0
        for part in self._parts:
            offsets.append(total)
            total += part.size
        # each part's start in a C array: the source keeps no int object per part
        self._offsets = array("q", offsets)
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

    Walks the parts of both sides in step.  Where both are windows of the
    same generator stream at the same position (same seed, same
    ``_origin + offset``; see :attr:`SyntheticBytes.generator_key`), the bytes
    are equal by construction and nothing is read.  Every other pair of
    windows is streamed through two reusable buffers, stopping at the first
    one that differs, so neither side is ever held in one piece.
    """
    if a.size != b.size:
        return False
    a_parts = a._parts if type(a) is _ConcatBytes else (a,)
    b_parts = b._parts if type(b) is _ConcatBytes else (b,)
    left = right = bytearray()
    i = j = a_local = b_local = 0
    while i < len(a_parts):  # both sides end their last part in the same step
        x, y = a_parts[i], b_parts[j]
        take = min(x.size - a_local, y.size - b_local)
        if not (
            type(x) is SyntheticBytes
            and type(y) is SyntheticBytes
            and x._seed == y._seed
            and x._origin + a_local == y._origin + b_local
        ):
            for offset in range(0, take, _COMPARE_WINDOW):
                n = min(_COMPARE_WINDOW, take - offset)
                if n != len(left):  # the first window, and a shorter one
                    left, right = bytearray(n), bytearray(n)
                x.readinto(a_local + offset, left)
                y.readinto(b_local + offset, right)
                if left != right:  # bytearray comparison is one memcmp; memoryview's is per element
                    return False
        a_local += take
        b_local += take
        if a_local == x.size:
            i, a_local = i + 1, 0
        if b_local == y.size:
            j, b_local = j + 1, 0
    return True
