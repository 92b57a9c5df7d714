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

A zero run's bytes are a pure function of its size, and a generated window's
of its ``generator_key``, so their digests are memoised per process by that
content key (:func:`_keyed_digest`): each is hashed once, whichever engine or
cell meets it.  Every other source is hashed on every call.

Digests embed the payload size so that a (vanishingly unlikely) hash collision
between payloads of different lengths can never confuse them.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

from repro.util.bytesource import ByteSource, SyntheticBytes, ZeroBytes

#: streaming window; keeps peak memory bounded for arbitrarily large chunks
_WINDOW = 1 << 20

#: the tags of the two kinds of content key, so that their keys never collide
_ZERO, _SYNTHETIC = "zero", "synthetic"


def content_digest(data: ByteSource) -> str:
    """Stable digest of the payload's content: equal iff the bytes are equal."""
    kind = type(data)
    if kind is SyntheticBytes:
        return _keyed_digest((_SYNTHETIC, data.generator_key))
    if kind is ZeroBytes:
        return _keyed_digest((_ZERO, data.size))
    return _hash_stream(data)


def zero_digest(size: int) -> str:
    """Digest of ``size`` zero bytes (used to spot perfectly compressible chunks)."""
    return _keyed_digest((_ZERO, size))


def is_zero_content(digest: str, size: int) -> bool:
    """True if ``digest`` is the digest of ``size`` zero bytes."""
    return digest == zero_digest(size)


@lru_cache(maxsize=4096)
def _keyed_digest(key: tuple) -> str:
    """Digest of the source a content key names, rebuilt from the key alone.

    ``(_ZERO, size)`` names a zero run, ``(_SYNTHETIC, generator_key)`` a
    generated window.  An entry never goes stale, so the bound only limits
    memory: an evicted key is hashed again to the same digest.
    """
    tag, value = key
    if tag == _ZERO:
        return _hash_stream(ZeroBytes(value))
    return _hash_stream(SyntheticBytes.from_generator_key(value))


def _hash_stream(data: ByteSource) -> str:
    hasher = hashlib.blake2b(digest_size=16)
    window = memoryview(bytearray(min(_WINDOW, data.size)))
    for offset in range(0, data.size, _WINDOW):
        view = window[: data.size - offset]  # clamps: only the last window is shorter
        data.readinto(offset, view)
        hasher.update(view)
    return f"{data.size}:{hasher.hexdigest()}"
