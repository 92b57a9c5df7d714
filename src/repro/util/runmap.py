"""Sparse storage of fixed-size blocks as runs of consecutive whole blocks.

:class:`RunMap` is the one sorted-runs map of the library.  The virtual-disk
layer keeps device and image content in it (a block is a device block or a
qcow2 cluster), and a BlobSeer ``write_batch`` settles in it which piece of a
batch wins each stripe (a block is a stripe).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.util.bytesource import ByteSource, concat
from repro.util.errors import StorageError

#: ``background(offset, length)``: what a device shows where nothing was written
Background = Callable[[int, int], ByteSource]


class RunMap:
    """Sparse fixed-granularity block storage: sorted runs of whole blocks.

    The stored unit is the *run*: ``count`` consecutive whole blocks backed by
    one :class:`ByteSource` of ``count * block_size`` bytes.  ``starts`` holds
    the first block of every run in ascending order (``bisect`` finds a block)
    and ``runs`` the matching ``(count, payload, shared)``.  Runs never
    overlap and are never merged.  ``shared`` marks content that an internal
    snapshot references too (qcow2): overwriting it allocates a new cluster
    instead of rewriting one in place, and both remnants of a split run keep
    the flag.
    """

    __slots__ = ("block_size", "starts", "runs")

    def __init__(self, block_size: int):
        if block_size <= 0:
            raise StorageError(f"block size must be positive: {block_size}")
        self.block_size = block_size
        self.starts: List[int] = []
        self.runs: List[Tuple[int, ByteSource, bool]] = []

    def copy(self) -> "RunMap":
        """An independent map over the same (immutable) payloads."""
        twin = RunMap(self.block_size)
        twin.starts = list(self.starts)
        twin.runs = list(self.runs)
        return twin

    def share_all(self) -> None:
        """Flag every stored block as referenced by a snapshot."""
        self.runs = [(count, payload, True) for count, payload, _shared in self.runs]

    def block_count(self) -> int:
        return sum(run[0] for run in self.runs)

    def block(self, index: int) -> Optional[ByteSource]:
        """The content of one stored block, ``None`` for a hole."""
        i = bisect_right(self.starts, index) - 1
        if i < 0 or index >= self.starts[i] + self.runs[i][0]:
            return None
        return self.runs[i][1].slice((index - self.starts[i]) * self.block_size, self.block_size)

    def put(self, first: int, count: int, payload: ByteSource) -> int:
        """Store ``payload`` as the run of blocks ``[first, first + count)``.

        Runs it overlaps are cut back to what lies outside the range.  Returns
        how many of the blocks were not rewritten in place: absent before, or
        shared with a snapshot.
        """
        block_size = self.block_size
        if payload.size != count * block_size:
            raise StorageError(
                f"run of {count} blocks of {block_size} bytes given {payload.size} bytes"
            )
        end = first + count
        starts, runs = self.starts, self.runs
        lo = bisect_right(starts, first) - 1
        if lo < 0 or starts[lo] + runs[lo][0] <= first:
            lo += 1
        hi = bisect_left(starts, end, lo)
        new_starts, new_runs = [first], [(count, payload, False)]
        in_place = 0
        for i in range(lo, hi):
            start = starts[i]
            held, old, shared = runs[i]
            if not shared:
                in_place += min(start + held, end) - max(start, first)
            if start < first:
                keep = first - start
                new_starts.insert(0, start)
                new_runs.insert(0, (keep, old.slice(0, keep * block_size), shared))
            if start + held > end:
                keep = start + held - end
                new_starts.append(end)
                new_runs.append(
                    (keep, old.slice((held - keep) * block_size, keep * block_size), shared)
                )
        starts[lo:hi] = new_starts
        runs[lo:hi] = new_runs
        return count - in_place

    def stored(self, offset: int, length: int) -> Iterator[Tuple[int, ByteSource]]:
        """Yield ``(offset, content)`` for each run's part of a byte window, ascending."""
        block_size = self.block_size
        end = offset + length
        starts, runs = self.starts, self.runs
        for i in range(max(bisect_right(starts, offset // block_size) - 1, 0), len(starts)):
            run_start = starts[i] * block_size
            if run_start >= end:
                break
            payload = runs[i][1]
            lo = max(run_start, offset)
            hi = min(run_start + payload.size, end)
            if lo < hi:
                yield lo, payload.slice(lo - run_start, hi - lo)

    def read(self, offset: int, length: int, background: Background) -> ByteSource:
        """Read a window: one slice per run, ``background`` for the holes.

        Each maximal hole issues a *single* ranged background read: the
        fallback's content and accounting are both additive over contiguous
        windows, and one call per hole instead of one per block is what keeps
        restoring a mostly-remote image from paying a full plan/fetch
        round-trip per 256 KB block.
        """
        pieces: List[ByteSource] = []
        cursor = offset
        for start, piece in self.stored(offset, length):
            if start > cursor:
                pieces.append(background(cursor, start - cursor))
            pieces.append(piece)
            cursor = start + piece.size
        if cursor < offset + length:
            pieces.append(background(cursor, offset + length - cursor))
        return concat(pieces)

    def writev(self, pieces: Sequence[Tuple[int, ByteSource]], background: Background) -> int:
        """Write ``(offset, data)`` windows in order; returns the sum of
        :meth:`put`'s counts.

        The windows are cut into *stretches*: runs of ascending, disjoint
        windows with no wholly untouched block between them.  A stretch is
        stored with one :meth:`put` over the blocks it touches, backed by one
        flat concatenation of its data and, in the gaps, slices of each
        partially covered block's current content: :meth:`block` if stored,
        else one ``background`` call per block, in ascending order.  A block
        the stretch's windows cover entirely is never read, and only blocks
        that hold a window edge are looked at, so the work is linear in the
        windows however many blocks they span.  Stretches are stored in
        order, so content and counts are those of writing the windows one by
        one.  Empty windows touch nothing.
        """
        block_size = self.block_size
        fresh = 0
        parts: List[ByteSource] = []  # the open stretch, from the start of its first block
        first = end = 0  # its first block, and where its last window ends
        held, content = -1, None  # the partial block last read, and its content

        def gap(lo: int, hi: int) -> None:
            nonlocal held, content
            while lo < hi:
                index = lo // block_size
                if index != held:
                    content = self.block(index)
                    if content is None:
                        content = background(index * block_size, block_size)
                    held = index
                start = index * block_size
                stop = min(hi, start + block_size)
                parts.append(content.slice(lo - start, stop - lo))
                lo = stop

        def close() -> int:
            stop = -(-end // block_size)
            gap(end, stop * block_size)
            return self.put(first, stop - first, concat(parts))

        for offset, data in pieces:
            size = data.size
            if size == 0:
                continue
            if parts:
                if end <= offset and offset // block_size <= (end - 1) // block_size + 1:
                    gap(end, offset)
                else:
                    fresh += close()
                    parts, held = [], -1
            if not parts:
                first = offset // block_size
                gap(first * block_size, offset)
            parts.append(data)
            end = offset + size
        return fresh + close() if parts else fresh
