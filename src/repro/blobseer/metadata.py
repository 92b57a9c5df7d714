"""Segment-tree metadata with shadowing for BlobSeer.

BlobSeer's metadata layer maps, for every published version of a BLOB, each
stripe (chunk-sized range of the BLOB) to the descriptor of the chunk that
holds its data.  Versions are created by *shadowing*: the tree of the new
version shares every unchanged subtree with the tree it was derived from and
allocates new nodes only along the paths to the modified stripes.  The same
mechanism implements *cloning*: a clone simply starts from the root of the
origin version.

The implementation below is a persistent (immutable, structure-sharing)
binary segment tree over stripe indices.  What it stores is the *run*: a
maximal sequence of consecutive stripes written by one version
(:class:`StripeRun`), which points at the
:class:`~repro.blobseer.provider.StoredRun` that holds its data -- the only
way a version reaches stored content.  A subtree whose whole span lies inside
one run is a single leaf pointing at it, so committing 800 consecutive stripes
builds O(log n) nodes, not 1 599; per-stripe :class:`ChunkDescriptor` views
are materialised on demand.  The store still *counts* one node per
stripe-level tree node an update allocates, which the deployment layer uses to
charge metadata-provider I/O, and exposes the range queries used by the read
path.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.blobseer.provider import ChunkKey, StoredRun
from repro.util.errors import StorageError, VersionNotFoundError


@dataclass(frozen=True)
class ChunkDescriptor:
    """Metadata entry mapping one stripe of a BLOB version to stored data."""

    #: stripe index within the BLOB (offset = stripe_index * chunk_size)
    stripe_index: int
    #: size in bytes of the data actually stored for this stripe
    length: int
    #: identity of the chunk holding the data
    key: ChunkKey
    #: provider ids that were asked to store the replicas
    providers: Tuple[str, ...]
    #: ``(blob_id, version)`` that first introduced this descriptor; used for
    #: incremental-size accounting and garbage collection
    created_by: Tuple[int, int]
    #: physical bytes this descriptor added to the store when it was created:
    #: ``None`` means "stored verbatim" (= ``length``), a smaller value means
    #: the chunk was compressed, and 0 means the content was deduplicated
    #: against an already-stored canonical chunk (nothing was shipped)
    physical_length: Optional[int] = None

    @property
    def stored_bytes(self) -> int:
        """Physical bytes introduced by this descriptor (dedup/compression aware)."""
        return self.length if self.physical_length is None else self.physical_length


@dataclass(slots=True, eq=False)
class StripeRun:
    """Consecutive stripes written by one version: what the metadata stores.

    Chunk ids are arithmetic (stripe ``first_stripe + i`` is held by chunk
    ``first_chunk_id + i``) and every stripe but the last is
    ``stripe_length`` bytes long.  A lone partial or deduplicated stripe is a
    run of one.
    """

    first_stripe: int
    blob_id: int
    first_chunk_id: int
    stripe_length: int
    last_length: int
    #: ``(blob_id, version)`` that wrote the run
    created_by: Tuple[int, int]
    #: the stored run that holds these stripes: the one the providers were
    #: handed for them or, for a stripe whose content was already stored (a
    #: dedup hit: a run of one, ``physical_length`` 0), the one that content
    #: was shipped as
    stored: StoredRun
    #: see :attr:`ChunkDescriptor.physical_length`; holds for every stripe
    physical_length: Optional[int] = None

    @property
    def providers(self) -> Sequence[Tuple[str, ...]]:
        """Per stripe, the provider ids that were asked to store the replicas."""
        return self.stored.placements

    @property
    def last_stripe(self) -> int:
        return self.first_stripe + len(self.stored.placements) - 1

    def keys(self, first: int, last: int) -> List[ChunkKey]:
        """Keys of the chunks holding stripes ``first..last``."""
        blob_id = self.blob_id
        shift = self.first_chunk_id - self.first_stripe
        return [ChunkKey(blob_id, stripe + shift) for stripe in range(first, last + 1)]

    def descriptor(self, stripe: int) -> ChunkDescriptor:
        index = stripe - self.first_stripe
        return ChunkDescriptor(
            stripe_index=stripe,
            length=self.last_length if stripe == self.last_stripe else self.stripe_length,
            key=ChunkKey(self.blob_id, self.first_chunk_id + index),
            providers=self.stored.placements[index],
            created_by=self.created_by,
            physical_length=self.physical_length,
        )

    def span_bytes(self, first: int, last: int, *, physical: bool = False) -> int:
        """Logical (or stored) bytes of stripes ``first..last``."""
        count = last - first + 1
        if physical and self.physical_length is not None:
            return count * self.physical_length
        total = count * self.stripe_length
        if last == self.last_stripe:
            total += self.last_length - self.stripe_length
        return total


#: a piece of a run as a tree query reports it: (run, first stripe, last stripe)
Extent = Tuple[StripeRun, int, int]


class SegmentNode:
    """A node of the persistent segment tree.

    A leaf covers ``[lo, hi)`` inside one ``run``; an inner node covers it
    with two children of half the span (``None`` where nothing is mapped).
    """

    __slots__ = ("lo", "hi", "left", "right", "run")

    def __init__(
        self,
        lo: int,
        hi: int,
        left: Optional["SegmentNode"] = None,
        right: Optional["SegmentNode"] = None,
        run: Optional[StripeRun] = None,
    ):
        self.lo = lo
        self.hi = hi
        self.left = left
        self.right = right
        self.run = run

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<SegmentNode [{self.lo},{self.hi}) leaf={self.run is not None}>"


def _next_power_of_two(n: int) -> int:
    power = 1
    while power < n:
        power *= 2
    return power


class _TreeBuilder:
    """Builds a shadowed tree for the runs of one version, counting new nodes.

    ``new_nodes`` is what a tree with one leaf per stripe would allocate:
    a span a run covers whole collapses to one leaf here but counts the
    ``2 * span - 1`` nodes of the subtree it stands for.
    """

    def __init__(self, runs: Sequence[StripeRun]):
        self._runs = runs
        self._starts = [run.first_stripe for run in runs]
        self._ends = [run.last_stripe + 1 for run in runs]
        self.new_nodes = 0

    def build(self, node: Optional[SegmentNode], lo: int, hi: int) -> Optional[SegmentNode]:
        """The new subtree over ``[lo, hi)``.  ``node`` is the base version's
        subtree there -- or a leaf of it that spans more, whose halves only
        come into being where a sibling is overwritten."""
        pos = bisect_right(self._ends, lo)  # the first run ending beyond lo
        if pos == len(self._runs) or self._starts[pos] >= hi:
            if node is not None and node.hi - node.lo > hi - lo:
                return SegmentNode(lo, hi, run=node.run)
            return node
        if self._starts[pos] <= lo and hi <= self._ends[pos]:
            self.new_nodes += 2 * (hi - lo) - 1
            return SegmentNode(lo, hi, run=self._runs[pos])
        self.new_nodes += 1
        mid = (lo + hi) // 2
        if node is None or node.run is not None:
            left = right = node
        else:
            left, right = node.left, node.right
        return SegmentNode(lo, hi, self.build(left, lo, mid), self.build(right, mid, hi))


class MetadataStore:
    """Versioned stripe → chunk-descriptor maps for every BLOB.

    The store is keyed by ``(blob_id, version)``; building version *v+1* from
    version *v* shares all untouched subtrees (shadowing).  Cloning re-uses a
    root under a different blob id.
    """

    def __init__(self) -> None:
        self._roots: Dict[Tuple[int, int], Optional[SegmentNode]] = {}
        self._capacity: Dict[Tuple[int, int], int] = {}
        #: total segment-tree nodes ever allocated (metadata I/O accounting)
        self.nodes_allocated = 0

    # -- version management ------------------------------------------------------

    def create_empty(self, blob_id: int, version: int = 0, stripes_hint: int = 1) -> None:
        """Register an empty version (no stripes mapped)."""
        key = (blob_id, version)
        if key in self._roots:
            raise StorageError(f"metadata for blob {blob_id} v{version} already exists")
        self._roots[key] = None
        self._capacity[key] = _next_power_of_two(max(1, stripes_hint))

    def _root(self, blob_id: int, version: int) -> Tuple[Optional[SegmentNode], int]:
        key = (blob_id, version)
        try:
            return self._roots[key], self._capacity[key]
        except KeyError:
            raise VersionNotFoundError(
                f"no metadata for blob {blob_id} version {version}"
            ) from None

    def derive_version(
        self, blob_id: int, base_version: int, new_version: int, updates: Sequence[StripeRun]
    ) -> int:
        """Publish ``new_version`` of ``blob_id`` derived from ``base_version``.

        ``updates`` holds the runs the version wrote (disjoint, any order).
        Returns the number of tree nodes the shadowed update allocated,
        counted per stripe (see :class:`_TreeBuilder`).
        """
        runs = sorted(updates, key=lambda run: run.first_stripe)
        for before, after in zip(runs, runs[1:]):
            if after.first_stripe <= before.last_stripe:
                raise StorageError(f"runs {before} and {after} of one version overlap")
        root, capacity = self._root(blob_id, base_version)
        max_stripe = runs[-1].last_stripe if runs else -1
        while capacity <= max_stripe:
            # Grow the addressable range: the old root becomes the left child
            # of a taller tree (a standard persistent-tree growth trick).
            if root is not None:
                grown = SegmentNode(0, capacity * 2, left=root, right=None)
                self.nodes_allocated += 1
                root = grown
            capacity *= 2
        builder = _TreeBuilder(runs)
        new_root = builder.build(root, 0, capacity)
        self.nodes_allocated += builder.new_nodes
        key = (blob_id, new_version)
        if key in self._roots:
            raise StorageError(f"metadata for blob {blob_id} v{new_version} already exists")
        self._roots[key] = new_root
        self._capacity[key] = capacity
        return builder.new_nodes

    def clone_version(self, src_blob: int, src_version: int, dst_blob: int) -> None:
        """Create version 0 of ``dst_blob`` sharing the whole tree of the source."""
        root, capacity = self._root(src_blob, src_version)
        key = (dst_blob, 0)
        if key in self._roots:
            raise StorageError(f"metadata for blob {dst_blob} v0 already exists")
        self._roots[key] = root
        self._capacity[key] = capacity

    def drop_version(self, blob_id: int, version: int) -> None:
        """Forget a version's root (garbage collection of metadata)."""
        self._roots.pop((blob_id, version), None)
        self._capacity.pop((blob_id, version), None)

    def resolve_chunk(self, key: ChunkKey) -> ChunkKey:
        """``key`` itself: a dedup hit shares the stored run, there is no alias
        table to resolve.  Named by the benchmark's boundary table; leaves
        with that row."""
        return key

    # -- queries ---------------------------------------------------------------------

    def lookup(self, blob_id: int, version: int, stripe_index: int) -> Optional[ChunkDescriptor]:
        root, capacity = self._root(blob_id, version)
        if stripe_index < 0:
            raise StorageError(f"negative stripe index {stripe_index}")
        if stripe_index >= capacity:
            return None
        node = root
        while node is not None:
            if node.run is not None:
                return node.run.descriptor(stripe_index)
            node = node.left if stripe_index < (node.lo + node.hi) // 2 else node.right
        return None

    def extents_in_range(
        self, blob_id: int, version: int, first_stripe: int, last_stripe: int
    ) -> List[Extent]:
        """The mapped part of stripes ``first_stripe..last_stripe``, in stripe
        order, as ``(run, first, last)`` pieces -- one per run crossed."""
        root, _capacity = self._root(blob_id, version)
        out: List[Extent] = []
        self._collect(root, first_stripe, last_stripe, out)
        return out

    def descriptors_in_range(
        self, blob_id: int, version: int, first_stripe: int, last_stripe: int
    ) -> List[ChunkDescriptor]:
        """All descriptors with ``first_stripe <= stripe_index <= last_stripe``.
        Named by the benchmark's boundary table (no workload calls it); when
        that row leaves, this folds into :meth:`iter_descriptors`."""
        return [
            run.descriptor(stripe)
            for run, first, last in self.extents_in_range(
                blob_id, version, first_stripe, last_stripe
            )
            for stripe in range(first, last + 1)
        ]

    def iter_descriptors(self, blob_id: int, version: int) -> Iterator[ChunkDescriptor]:
        _root, capacity = self._root(blob_id, version)
        return iter(self.descriptors_in_range(blob_id, version, 0, capacity - 1))

    def _collect(
        self, node: Optional[SegmentNode], first: int, last: int, out: List[Extent]
    ) -> None:
        if node is None or last < node.lo or first > node.hi - 1:
            return
        run = node.run
        if run is None:
            self._collect(node.left, first, last, out)
            self._collect(node.right, first, last, out)
            return
        lo = max(node.lo, first)
        hi = min(node.hi - 1, last)
        if out and out[-1][0] is run and out[-1][2] == lo - 1:
            lo = out.pop()[1]  # the next leaf of the run the previous one was cut from
        out.append((run, lo, hi))

    # -- statistics ------------------------------------------------------------------

    def version_footprint(self, blob_id: int, version: int) -> int:
        """Total bytes of data referenced by a version (shared chunks counted once)."""
        seen: set[ChunkKey] = set()
        total = 0
        for desc in self.iter_descriptors(blob_id, version):
            if desc.key not in seen:
                seen.add(desc.key)
                total += desc.length
        return total

    def incremental_footprint(self, blob_id: int, version: int, *, physical: bool = False) -> int:
        """Bytes introduced by ``version`` itself (descriptors it created).

        ``physical=True`` reports what the version actually added to the
        providers' disks: 0 for deduplicated stripes, the compressed size for
        compressed ones.
        """
        _root, capacity = self._root(blob_id, version)
        return sum(
            run.span_bytes(first, last, physical=physical)
            for run, first, last in self.extents_in_range(blob_id, version, 0, capacity - 1)
            if run.created_by == (blob_id, version)
        )
