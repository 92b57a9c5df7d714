"""Block-granular dirty tracking.

The mirroring module needs to know which blocks of the virtual disk changed
since the last COMMIT so that only incremental differences are shipped to the
checkpoint repository.  :class:`DirtyTracker` records the blocks written in the
open *epoch* as sorted, disjoint ``(first, stop)`` block ranges
(:mod:`repro.util.ranges`); taking a snapshot closes it and starts a new,
empty one.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.util.ranges import add_range


class DirtyTracker:
    """Tracks the blocks dirtied between snapshots, as block ranges."""

    def __init__(self, block_size: int):
        self.block_size = block_size
        #: the open epoch's dirty blocks, as ``(first, stop)`` ranges
        self.ranges: List[Tuple[int, int]] = []

    def mark_window(self, offset: int, length: int) -> None:
        """Mark every block overlapping the byte window ``[offset, offset+length)``."""
        if length > 0:
            block_size = self.block_size
            add_range(self.ranges, offset // block_size, (offset + length - 1) // block_size + 1)

    @property
    def dirty_bytes(self) -> int:
        """Upper bound of bytes to ship for the current epoch."""
        return sum(stop - first for first, stop in self.ranges) * self.block_size

    def close_epoch(self) -> List[Tuple[int, int]]:
        """Finish the current epoch and return its dirty block ranges."""
        closed = self.ranges
        self.ranges = []
        return closed
