"""Block-granular dirty tracking.

The mirroring module needs to know which blocks of the virtual disk changed
since the last COMMIT so that only incremental differences are shipped to the
checkpoint repository.  :class:`DirtyTracker` records written block indices
per *epoch*; taking a snapshot closes the current epoch and starts a new one.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple


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
        self._epochs: List[Set[int]] = []

    # -- recording ------------------------------------------------------------

    def mark(self, block_index: int) -> None:
        self._current.add(block_index)

    def mark_many(self, block_indices: Iterable[int]) -> None:
        self._current.update(block_indices)

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
        self._epochs.append(closed)
        self._current = set()
        return set(closed)

    @property
    def epochs(self) -> List[Set[int]]:
        return [set(e) for e in self._epochs]

    def blocks_dirty_since(self, epoch_index: int) -> Set[int]:
        """Union of dirty blocks from ``epoch_index`` onwards (incl. current)."""
        result: Set[int] = set()
        for epoch in self._epochs[epoch_index:]:
            result |= epoch
        result |= self._current
        return result

    def stats(self) -> Dict[str, int]:
        return {
            "epochs": len(self._epochs),
            "current_dirty_blocks": len(self._current),
            "total_dirty_blocks": sum(len(e) for e in self._epochs) + len(self._current),
        }
