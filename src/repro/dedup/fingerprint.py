"""Content fingerprinting over :class:`~repro.util.bytesource.ByteSource`.

The dedup layer must recognise identical chunk *content* regardless of how the
payload is represented: a :class:`LiteralBytes`, a :class:`SyntheticBytes`
window or a :class:`ZeroBytes` run with the same bytes must all map to the same
digest.  ``ByteSource.fingerprint()`` is representation-sensitive, and
:func:`~repro.util.bytesource.content_equal` compares two payloads rather than
naming one, so the dedup engine uses its own digest computed by streaming the
content through BLAKE2b: each window is written by ``readinto`` into one
reusable buffer and hashed in place -- no payload is ever materialised in one
piece.

Digests embed the payload size so that a (vanishingly unlikely) hash collision
between payloads of different lengths can never confuse them.
"""

from __future__ import annotations

import hashlib
from typing import Dict

from repro.util.bytesource import ByteSource, ZeroBytes

#: streaming window; keeps peak memory bounded for arbitrarily large chunks
_WINDOW = 1 << 20

#: digests of all-zero payloads, keyed by size (zero runs are extremely common
#: in sparse disk images, so this cache avoids re-hashing them)
_ZERO_DIGESTS: Dict[int, str] = {}


def content_digest(data: ByteSource) -> str:
    """Stable digest of the payload's content: equal iff the bytes are equal."""
    if isinstance(data, ZeroBytes):
        cached = _ZERO_DIGESTS.get(data.size)
        if cached is not None:
            return cached
    digest = _hash_stream(data)
    if isinstance(data, ZeroBytes):
        _ZERO_DIGESTS[data.size] = digest
    return digest


def zero_digest(size: int) -> str:
    """Digest of ``size`` zero bytes (used to spot perfectly compressible chunks)."""
    cached = _ZERO_DIGESTS.get(size)
    if cached is None:
        cached = _hash_stream(ZeroBytes(size))
        _ZERO_DIGESTS[size] = cached
    return cached


def is_zero_content(digest: str, size: int) -> bool:
    """True if ``digest`` is the digest of ``size`` zero bytes."""
    return digest == zero_digest(size)


def _hash_stream(data: ByteSource) -> str:
    hasher = hashlib.blake2b(digest_size=16)
    window = memoryview(bytearray(min(_WINDOW, data.size)))
    for offset in range(0, data.size, _WINDOW):
        view = window[: data.size - offset]  # clamps: only the last window is shorter
        data.readinto(offset, view)
        hasher.update(view)
    return f"{data.size}:{hasher.hexdigest()}"
