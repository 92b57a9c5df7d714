"""Output checks: what makes a cell count as failed, and the pre-flight round trip.

The scenario layer's own ``verify_restored_state`` samples the first and last
64 KiB of each buffer; the pre-flight here writes distinct literal bytes per
instance through the public ``Session`` API and compares them *in full*
after checkpoint + restart, once per backend, before any workload is timed.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Mapping, Optional, Sequence

#: payload flags that must be true / must be false for a cell to pass
MUST_BE_TRUE = ("restored_ok", "verified", "survivors_ok")
MUST_BE_FALSE = ("unrecoverable",)

PREFLIGHT_BACKENDS = ("blobcr", "qcow2-disk", "qcow2-full")
_PREFLIGHT_BYTES = 300_000  # well past the 2 x 64 KiB the scenario-level check samples


def payload_failure(payload: Mapping[str, Any]) -> Optional[str]:
    """Why this payload fails the output check, or ``None`` if it passes."""
    for flag in MUST_BE_TRUE:
        if flag in payload and not payload[flag]:
            return f"{flag} is false"
    for flag in MUST_BE_FALSE:
        if payload.get(flag):
            return f"{flag} is true"
    return None


def payload_digest(payload: Mapping[str, Any]) -> str:
    """Digest of the canonical JSON form (floats round-trip exactly)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def failed_cells(
    expected: Sequence[str], passes: Sequence[Mapping[str, Mapping[str, Any]]]
) -> Dict[str, str]:
    """``{"<pass index>:<cell key>": reason}`` over all passes of one seed.

    ``passes`` maps cell key -> payload, one mapping per pass.  A cell fails
    when it did not report (it raised, or the workload drifted), when a
    payload flag says so, or when its payload differs from the first pass's
    -- determinism for a fixed seed is part of the contract.
    """
    failures: Dict[str, str] = {}
    reference = {key: payload_digest(p) for key, p in passes[0].items()} if passes else {}
    for index, cells in enumerate(passes):
        for key in expected:
            payload = cells.get(key)
            if payload is None:
                reason: Optional[str] = "no result (the cell raised or was not enumerated)"
            else:
                reason = payload_failure(payload)
                if reason is None and key in reference and payload_digest(payload) != reference[key]:
                    reason = "payload differs from the first pass of the same seed"
            if reason is not None:
                failures[f"{index}:{key}"] = reason
        for key in cells:
            if key not in expected:
                failures[f"{index}:{key}"] = "unexpected cell (the workload drifted)"
    return failures


def preflight() -> List[str]:
    """Full-content checkpoint/restart round trip per backend; returns problems."""
    from repro.api import Session

    problems: List[str] = []
    for backend in PREFLIGHT_BACKENDS:
        session = Session()
        session.deploy(backend, n=4)
        written = {}
        for instance_id in session.instance_ids:
            seed = f"perfbench-preflight:{backend}:{instance_id}".encode()
            written[instance_id] = hashlib.shake_256(seed).digest(_PREFLIGHT_BYTES)
            session.guest_write(instance_id, "/data/preflight.bin", written[instance_id])
        session.restart(session.checkpoint())
        for instance_id, data in written.items():
            if session.guest_read(instance_id, "/data/preflight.bin") != data:
                problems.append(f"{backend}: {instance_id} read back different bytes after restart")
    return problems
