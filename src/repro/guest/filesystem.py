"""An extent-based guest file system persisted on a block device.

The file system is deliberately simple (flat namespace with ``/``-separated
paths, whole-file extents, a bump allocator) but it has the two properties
the paper depends on:

1. **Everything lives on the virtual disk.**  File data is written to
   allocated extents and the inode table is serialised into a fixed metadata
   region at the start of the device, so snapshotting the device captures the
   file system and rolling the device back rolls every file back -- including
   "difficult" cases like truncating lines appended to a log after the last
   checkpoint (Section 2.2 of the paper).

2. **A page cache with an explicit ``sync``.**  Writes are buffered in memory
   and only reach the device on :meth:`GuestFileSystem.sync`, as one
   vectored write of the dirty files and the inode table.  BlobCR's extended
   checkpoint protocol calls ``sync`` right before requesting a disk
   snapshot; skipping it produces a snapshot that misses recent writes,
   which the tests exercise.
"""

from __future__ import annotations

import json
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from repro.util.bytesource import ByteSource, LiteralBytes, ZeroBytes, concat
from repro.util.errors import FileSystemError
from repro.vdisk.blockdev import BlockDevice

#: size of the on-disk metadata region holding the serialised inode table
METADATA_REGION = 4 * 1024 * 1024
#: allocation granularity for file extents
FS_BLOCK = 4096


#: the JSON text of an inode-table key; the guests of a cloud share their paths
_json_key = lru_cache(maxsize=4096)(json.dumps)

#: the zeros after a fresh extent's content, one object per length
_padding = lru_cache(maxsize=FS_BLOCK)(ZeroBytes)


#: one file of the inode table: path, flushed size, extent offset and length, and
#: the length of its line
_Entry = Tuple[str, int, int, int, int]


def _line(path: str, size: int, offset: int, length: int) -> str:
    """A file's line of the inode table: what ``json.dumps`` writes for it with
    ``sort_keys``."""
    return f'{_json_key(path)}: {{"extents": [[{offset}, {length}]], "size": {size}}}'


def _entry(path: str, size: int, offset: int, length: int) -> _Entry:
    return (path, size, offset, length, len(_line(path, size, offset, length)))


class _InodeTable(ByteSource):
    """The inode table as its entries, sorted by path, and the allocator's mark.

    Its bytes are ``json.dumps(table, sort_keys=True)`` and exist only while
    something reads them: a snapshot keeps the entries, which successive
    tables of one guest, every guest of one base image, and the file systems
    mounted from them share.
    """

    __slots__ = ("entries", "next_free", "_size")

    def __init__(self, entries: Tuple[_Entry, ...], next_free: int):
        self.entries = entries
        self.next_free = next_free
        # the lines are ASCII (``json.dumps`` escapes the rest): characters are bytes
        lines = sum(entry[4] + 2 for entry in entries) - 2 * bool(entries)
        self._size = len(f'{{"files": {{}}, "next_free": {next_free}}}') + lines

    @property
    def size(self) -> int:
        return self._size

    def read(self, offset: int = 0, length: int | None = None) -> bytes:
        return self._read_filled(offset, length)

    def _fill(self, offset: int, view: memoryview) -> None:
        lines = ", ".join([_line(*entry[:4]) for entry in self.entries])
        text = f'{{"files": {{{lines}}}, "next_free": {self.next_free}}}'.encode("utf-8")
        view[:] = memoryview(text)[offset : offset + len(view)]

    def slice(self, offset: int, length: int) -> ByteSource:
        if offset == 0 and length == self._size:
            return self
        return LiteralBytes(self.read(offset, length))

    def fingerprint(self) -> str:
        return LiteralBytes(self.read()).fingerprint()


class GuestFileSystem:
    """A small file system stored entirely on a :class:`BlockDevice`.

    Its state is the inode table as the device holds it (``_entries``, path
    to entry, in table order and then in the order files were first
    flushed) and the page cache (``_cache``, the content of each dirty file,
    in the order it was first written).  A clean file is its entry alone.
    """

    def __init__(self, device: BlockDevice):
        if device.size <= METADATA_REGION + FS_BLOCK:
            raise FileSystemError(
                f"device of {device.size} bytes is too small for the file system"
            )
        self.device = device
        self._entries: Dict[str, _Entry] = {}
        self._cache: Dict[str, ByteSource] = {}
        self._next_free = METADATA_REGION
        self._mounted = False
        #: counters for tests and experiment accounting
        self.sync_count = 0

    # -- lifecycle -------------------------------------------------------------

    @classmethod
    def format(cls, device: BlockDevice) -> "GuestFileSystem":
        """Create an empty file system on ``device`` (mkfs)."""
        fs = cls(device)
        fs._mounted = True
        fs._flush(())
        return fs

    @classmethod
    def mount(cls, device: BlockDevice) -> "GuestFileSystem":
        """Mount an existing file system from ``device``."""
        fs = cls(device)
        length = int.from_bytes(device.read(0, 8).read(), "little")
        if length <= 0 or length > METADATA_REGION - 8:
            raise FileSystemError("no valid file system found on the device")
        table = device.read(8, length)
        if type(table) is _InodeTable:  # rendered by a file system: no text to parse
            entries, fs._next_free = table.entries, table.next_free
        else:  # a byte copy, a hand-written or a corrupted table
            try:
                parsed = json.loads(table.to_bytes().decode("utf-8"))
                fs._next_free = next_free = int(parsed["next_free"])
                if not METADATA_REGION <= next_free <= device.size:
                    raise ValueError(f"next_free {next_free} is outside the data region")
                entries = []
                for path, entry in parsed["files"].items():
                    if cls._normalise(path) != path:
                        raise ValueError(f"{path!r} is not a normalised path")
                    extents = entry["extents"]
                    if len(extents) != 1:
                        raise ValueError(f"{path} does not have exactly one extent")
                    ((offset, length),) = extents
                    size, offset, length = int(entry["size"]), int(offset), int(length)
                    if offset < METADATA_REGION or offset + length > next_free:
                        raise ValueError(f"the extent of {path} is outside the allocated region")
                    if not 0 <= size <= length:
                        raise ValueError(f"{path} does not fit its extent")
                    entries.append(_entry(path, size, offset, length))
                spans = sorted((entry[2], entry[2] + entry[3]) for entry in entries)
                for (_start, end), (start, _end) in zip(spans, spans[1:]):
                    if start < end:
                        raise ValueError(f"two extents overlap at {start}")
            except (ValueError, LookupError, TypeError, AttributeError, FileSystemError) as exc:
                # a JSON or UTF-8 error is a ValueError; the rest is a table of the wrong shape
                raise FileSystemError(f"corrupted file-system metadata: {exc}") from exc
        fs._entries = {entry[0]: entry for entry in entries}
        fs._mounted = True
        return fs

    def _require_mounted(self) -> None:
        if not self._mounted:
            raise FileSystemError("file system is not mounted")

    # -- path helpers --------------------------------------------------------------

    @staticmethod
    @lru_cache(maxsize=4096)  # the guests of a cloud share their paths
    def _normalise(path: str) -> str:
        if not path or not path.startswith("/"):
            raise FileSystemError(f"paths must be absolute, got {path!r}")
        parts = [p for p in path.split("/") if p]
        if not parts:
            raise FileSystemError("the root directory is not a file")
        return "/" + "/".join(parts)

    # -- file operations -------------------------------------------------------------

    def write_file(self, path: str, data: ByteSource | bytes, append: bool = False) -> int:
        """Create or overwrite (or append to) a file in the page cache.

        Returns the new file size.  Data reaches the device only on
        :meth:`sync`.
        """
        self._require_mounted()
        path = self._normalise(path)
        if isinstance(data, (bytes, bytearray)):
            data = LiteralBytes(bytes(data))
        if append and (path in self._cache or path in self._entries):
            current = self._content(path)
            if current.size:
                data = concat([current, data])
        self._cache[path] = data
        return data.size

    def read_file(self, path: str) -> ByteSource:
        """Read a whole file (from the cache if dirty, from disk otherwise)."""
        self._require_mounted()
        path = self._normalise(path)
        if path not in self._cache and path not in self._entries:
            raise FileSystemError(f"no such file: {path}")
        return self._content(path)

    def _content(self, path: str) -> ByteSource:
        cached = self._cache.get(path)
        if cached is not None:
            return cached
        _path, size, offset, _length, _line_length = self._entries[path]
        return self.device.read(offset, size) if size else LiteralBytes(b"")

    def delete(self, path: str) -> None:
        self._require_mounted()
        path = self._normalise(path)
        if path not in self._cache and path not in self._entries:
            raise FileSystemError(f"no such file: {path}")
        # Space is not reclaimed (log-structured allocation); the inode goes away.
        self._cache.pop(path, None)
        self._entries.pop(path, None)

    def exists(self, path: str) -> bool:
        self._require_mounted()
        try:
            path = self._normalise(path)
        except FileSystemError:
            return False
        return path in self._cache or path in self._entries

    def listdir(self, prefix: str = "/") -> List[str]:
        """All file paths under ``prefix``."""
        self._require_mounted()
        if not prefix.endswith("/"):
            prefix = prefix + "/"
        if prefix == "//":
            prefix = "/"
        return sorted(p for p in self._entries.keys() | self._cache.keys() if p.startswith(prefix))

    def file_extents(self, path: str) -> List[Tuple[int, int]]:
        """On-disk extents of a file as ``(device offset, length)`` pairs.

        This is the block mapping a post-copy migration needs to translate
        "the guest touched this file" into the virtual-disk blocks that must
        be faulted in from the source.  Dirty (unflushed) cache content has
        no extents yet and is not included: a dirty file that was flushed
        before reports the extent it was flushed to.
        """
        self._require_mounted()
        path = self._normalise(path)
        entry = self._entries.get(path)
        if entry is not None:
            return [(entry[2], entry[3])]
        if path not in self._cache:
            raise FileSystemError(f"no such file: {path}")
        return []

    # -- persistence -----------------------------------------------------------------

    @property
    def dirty_files(self) -> List[str]:
        return sorted(self._cache)

    def sync(self) -> int:
        """Flush every dirty file and the inode table; returns bytes written.

        Files already on the device go first, in table order, then the new
        ones in the order they were first written: the allocator hands out
        extents in that order.
        """
        self._require_mounted()
        cache = self._cache
        dirty = [path for path in self._entries if path in cache]
        dirty += [path for path in cache if path not in self._entries]
        written = self._flush(dirty)
        self.sync_count += 1
        return written

    def _flush(self, paths: Sequence[str]) -> int:
        """Put the dirty ``paths`` and the inode table on the device as one
        vectored write; returns the bytes of file content and table written.

        What was gathered when an allocation or the table fails still reaches
        the device, as it did when every file was its own write.
        """
        pieces: List[Tuple[int, ByteSource]] = []
        try:
            written = sum(self._flush_file(path, pieces) for path in paths)
            return written + self._write_metadata(pieces)
        finally:
            self.device.writev(pieces)

    def _allocate(self, length: int) -> Tuple[int, int]:
        length = ((length + FS_BLOCK - 1) // FS_BLOCK) * FS_BLOCK
        if self._next_free + length > self.device.size:
            raise FileSystemError(
                f"device full: cannot allocate {length} bytes "
                f"(free: {self.device.size - self._next_free})"
            )
        extent = (self._next_free, length)
        self._next_free += length
        return extent

    def _flush_file(self, path: str, pieces: List[Tuple[int, ByteSource]]) -> int:
        content = self._cache[path]
        size = content.size
        entry = self._entries.get(path)
        if entry is None or size > entry[3]:
            # Allocate a fresh contiguous extent for the whole file (the old
            # one is abandoned, log-structured style) and write it whole: the
            # zeros after the content need nothing read from the device.
            offset, length = self._allocate(max(size, 1))
            pieces.append((offset, concat([content, _padding(length - size)]) if size else content))
            self._entries[path] = _entry(path, size, offset, length)
        else:
            pieces.append((entry[2], content))
            if size != entry[1]:
                self._entries[path] = _entry(path, size, entry[2], entry[3])
        del self._cache[path]
        return size

    def _write_metadata(self, pieces: List[Tuple[int, ByteSource]]) -> int:
        table = _InodeTable(tuple(sorted(self._entries.values())), self._next_free)
        if table.size + 8 > METADATA_REGION:
            raise FileSystemError("inode table exceeds the metadata region")
        pieces.append((0, concat([LiteralBytes(table.size.to_bytes(8, "little")), table])))
        return table.size + 8

    # -- accounting ---------------------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        """Bytes allocated on the device for file data."""
        return self._next_free - METADATA_REGION

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<GuestFileSystem files={len(self._entries.keys() | self._cache.keys())} "
            f"used={self.used_bytes} dirty={len(self.dirty_files)}>"
        )
