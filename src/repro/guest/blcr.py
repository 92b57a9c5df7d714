"""BLCR-style process-level checkpointing.

The Berkeley Lab Checkpoint/Restart library dumps the complete image of a
process (registers, every mapped memory region) into a context file that can
later be used to recreate the process.  The paper's ``*-blcr`` settings rely
on it inside the modified MPICH2 coordinated checkpoint protocol.

The dump format used here is: an 8-byte little-endian header length, a JSON
header describing the process (name, pid, registers, segment names/sizes,
iteration counter) and the concatenation of all memory segments.  The header
and the per-process software overhead reproduce BLCR's key property: the
context file size is essentially *all memory the process has allocated*,
regardless of how much of it is live application state.
"""

from __future__ import annotations

import json
from typing import Tuple

from repro.guest.process import GuestProcess, ProcessState
from repro.util.bytesource import ByteSource, LiteralBytes, ZeroBytes, concat
from repro.util.errors import ProcessError

#: fixed metadata BLCR adds to every context file (signal state, file table,
#: credentials, ...) -- small compared to the memory image
BLCR_HEADER_OVERHEAD = 64 * 1024


def blcr_dump(process: GuestProcess) -> ByteSource:
    """Dump a process image to a context-file payload.

    The process must not be dead.  The dump includes every allocated memory
    segment -- BLCR cannot know which parts of memory the application
    actually needs, which is why process-level checkpoints are larger than
    application-level ones (Section 4.4).
    """
    if process.state is ProcessState.DEAD:
        raise ProcessError(f"cannot checkpoint dead process {process.pid}")
    segments = process.segments
    header = {
        "name": process.name,
        "pid": process.pid,
        "registers": dict(process.registers),
        "iteration": process.iteration,
        "segments": [[name, segments[name].size] for name in sorted(segments)],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    padding = max(0, BLCR_HEADER_OVERHEAD - len(header_bytes) - 8)
    # the pad is an extent of zeros, not bytes: a slice of it stays a ZeroBytes
    length = len(header_bytes).to_bytes(8, "little")
    pieces = [LiteralBytes(length + header_bytes), ZeroBytes(padding)]
    for name in sorted(segments):
        pieces.append(segments[name])
    return concat(pieces)


def _parse_header(dump: ByteSource) -> Tuple[dict, int]:
    if dump.size < 8:
        raise ProcessError("context file too small to contain a header")
    length = int.from_bytes(dump.read(0, 8), "little")
    if length <= 0 or length + 8 > dump.size:
        raise ProcessError("corrupted BLCR context file header")
    header = json.loads(dump.read(8, length).decode("utf-8"))
    data_start = max(8 + length, BLCR_HEADER_OVERHEAD)
    return header, data_start


def blcr_restore(dump: ByteSource) -> GuestProcess:
    """Recreate a process from a context-file payload."""
    header, cursor = _parse_header(dump)
    process = GuestProcess(header["name"], pid=header["pid"])
    process.registers = {k: int(v) for k, v in header["registers"].items()}
    process.iteration = int(header["iteration"])
    for name, size in header["segments"]:
        size = int(size)
        if cursor + size > dump.size:
            raise ProcessError(f"context file truncated: segment {name!r} incomplete")
        process.allocate(name, dump.slice(cursor, size))
        cursor += size
    return process
