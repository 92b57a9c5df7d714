"""Guest-visible block devices.

A :class:`BlockDevice` is what the guest file system and the hypervisor see:
a byte-addressable array of ``size`` bytes supporting reads and writes of
arbitrary windows.  The concrete implementations store data sparsely at a
fixed internal block granularity so that a 2 GB image with a few hundred MB
of content costs only what was actually written, and keep it as *runs* of
consecutive whole blocks (:class:`~repro.util.runmap.RunMap`) so that a 200 MB
file written in one piece is one entry rather than 800.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.util.bytesource import ByteSource, LiteralBytes, ZeroBytes, concat
from repro.util.errors import StorageError
from repro.util.runmap import RunMap


class BlockDevice(ABC):
    """Abstract byte-addressable device."""

    @property
    @abstractmethod
    def size(self) -> int:
        """Device capacity in bytes."""

    @abstractmethod
    def read(self, offset: int, length: int) -> ByteSource:
        """Read ``length`` bytes starting at ``offset``."""

    @abstractmethod
    def write(self, offset: int, data: ByteSource) -> None:
        """Write ``data`` starting at ``offset``: the one-piece :meth:`writev`."""

    @abstractmethod
    def writev(self, pieces: Sequence[Tuple[int, ByteSource]]) -> None:
        """Write the ``(offset, data)`` pieces in order, as one request.

        The writable devices check every window before the first piece is
        applied, and leave content and accounting as the same writes issued
        one by one would.
        """

    # -- helpers shared by implementations ---------------------------------------

    def _check_window(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > self.size:
            raise StorageError(
                f"I/O window [{offset}, {offset + length}) outside device of size {self.size}"
            )


def read_through(base: Optional[BlockDevice], offset: int, length: int) -> ByteSource:
    """The unwritten window of an overlay: ``base`` content, zeros beyond it."""
    if base is not None and offset < base.size:
        span = min(length, base.size - offset)
        piece = base.read(offset, span)
        if span < length:
            piece = concat([piece, ZeroBytes(length - span)])
        return piece
    return ZeroBytes(length)


class SparseDevice(BlockDevice):
    """An in-memory sparse block device initialised to zeros.

    Optionally layered on top of a read-only ``base`` device: reads of
    unwritten regions fall through to the base (this is how the mirroring
    module exposes a remotely stored image with local copy-on-write).
    """

    def __init__(
        self,
        size: int,
        block_size: int = 256 * 1024,
        base: Optional[BlockDevice] = None,
        name: str = "",
    ):
        if size <= 0:
            raise StorageError(f"device size must be positive: {size}")
        if base is not None and base.size > size:
            raise StorageError("base device larger than the overlay device")
        self._size = size
        self._map = RunMap(block_size)
        self._base = base
        self.name = name or "sparse-device"

    @property
    def size(self) -> int:
        return self._size

    def _background(self, offset: int, length: int) -> ByteSource:
        return read_through(self._base, offset, length)

    def read(self, offset: int, length: int) -> ByteSource:
        self._check_window(offset, length)
        if length == 0:
            return LiteralBytes(b"")
        return self._map.read(offset, length, self._background)

    def write(self, offset: int, data: ByteSource) -> None:
        self.writev([(offset, data)])

    def writev(self, pieces: Sequence[Tuple[int, ByteSource]]) -> None:
        for offset, data in pieces:
            self._check_window(offset, data.size)
        self._map.writev(pieces, self._background)

    # -- introspection -------------------------------------------------------------

    @property
    def allocated_bytes(self) -> int:
        """Bytes of locally materialised (written) block content."""
        return self._map.block_count() * self._map.block_size

    def stored_runs(
        self, offset: int = 0, length: Optional[int] = None
    ) -> Iterator[Tuple[int, ByteSource]]:
        """``(offset, content)`` of the locally stored runs inside a byte window
        (default: the whole device), ascending.  Runs are clipped to the window
        and to the device: the padding of a last, partial block is not content."""
        end = self._size if length is None else min(offset + length, self._size)
        return self._map.stored(offset, end - offset)

    def block_payload(self, index: int) -> Optional[ByteSource]:
        return self._map.block(index)

    def fresh_blocks(self) -> List[Tuple[int, int]]:
        """``(first, count)`` of each stored run no snapshot flag holds: the
        blocks written since the flag was last set, ascending."""
        runs = zip(self._map.starts, self._map.runs)
        return [(first, count) for first, (count, _payload, shared) in runs if not shared]

    def share(self, blocks: Iterable[Tuple[int, int]], shared: bool = True) -> None:
        """Set (or clear) the snapshot flag of the runs that start inside the
        ``(first, count)`` block ranges."""
        for first, count in blocks:
            self._map.share(first, first + count, shared)
