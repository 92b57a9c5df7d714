"""Block-granular dirty tracking.

The mirroring module needs to know which blocks of the virtual disk changed
since the last COMMIT so that only incremental differences are shipped to the
checkpoint repository.  :class:`DirtyTracker` records the block indices written
in the open *epoch*; taking a snapshot closes it and starts a new, empty one.
"""

from __future__ import annotations

from typing import Iterable, List, Set, Tuple


def block_ranges(indices: Iterable[int]) -> List[Tuple[int, int]]:
    """The maximal ranges of consecutive block indices, as ``(first, count)``."""
    ordered = sorted(indices)
    ranges: List[Tuple[int, int]] = []
    start = 0
    for i in range(1, len(ordered) + 1):
        if i == len(ordered) or ordered[i] != ordered[i - 1] + 1:
            ranges.append((ordered[start], i - start))
            start = i
    return ranges


class DirtyTracker:
    """Tracks dirty block indices between snapshots."""

    def __init__(self, block_size: int):
        self.block_size = block_size
        self._current: Set[int] = set()

    # -- recording ------------------------------------------------------------

    def mark_window(self, offset: int, length: int) -> None:
        """Mark every block overlapping the byte window ``[offset, offset+length)``."""
        if length <= 0:
            return
        first = offset // self.block_size
        last = (offset + length - 1) // self.block_size
        self._current.update(range(first, last + 1))

    # -- epochs ------------------------------------------------------------------

    @property
    def dirty_blocks(self) -> Set[int]:
        """Blocks dirtied in the current (open) epoch."""
        return set(self._current)

    @property
    def dirty_bytes(self) -> int:
        """Upper bound of bytes to ship for the current epoch."""
        return len(self._current) * self.block_size

    def close_epoch(self) -> Set[int]:
        """Finish the current epoch and return its dirty set."""
        closed = self._current
        self._current = set()
        return closed
