"""Sorted, disjoint half-open ``(first, stop)`` ranges of integer ids.

The one idiom for sets of consecutive ids: the lazy-boot prefetch state
keeps chunk ids in it, and the mirroring module's dirty tracking keeps block
indices in it.  A range list stays sorted, its ranges never overlap nor touch,
and none is empty, so a contiguous run of ids costs one tuple whatever its
length.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Sequence, Tuple


def add_range(ranges: List[Tuple[int, int]], first: int, stop: int) -> None:
    """Merge ``[first, stop)`` into sorted, disjoint, non-touching ``ranges``."""
    if first >= stop:
        return
    i = bisect_left(ranges, (first,))
    if i and ranges[i - 1][1] >= first:
        i -= 1
        first = ranges[i][0]
    j = i
    while j < len(ranges) and ranges[j][0] <= stop:
        stop = max(stop, ranges[j][1])
        j += 1
    ranges[i:j] = [(first, stop)]


def overlap(ranges: Sequence[Tuple[int, int]], other: Sequence[Tuple[int, int]]) -> int:
    """How many ids two sorted, disjoint range lists share."""
    count = i = j = 0
    while i < len(ranges) and j < len(other):
        (first, stop), (other_first, other_stop) = ranges[i], other[j]
        count += max(0, min(stop, other_stop) - max(first, other_first))
        if stop < other_stop:
            i += 1
        else:
            j += 1
    return count
