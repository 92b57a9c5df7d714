"""Unit tests for the ByteSource payload abstraction."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dedup.fingerprint import content_digest
from repro.util import LiteralBytes, SyntheticBytes, ZeroBytes, concat
from repro.util import bytesource
from repro.util.bytesource import ByteSource, _ConcatBytes, content_equal


class TestLiteralBytes:
    def test_size_and_read(self):
        src = LiteralBytes(b"hello world")
        assert src.size == 11
        assert src.read() == b"hello world"
        assert src.read(6, 5) == b"world"

    def test_slice_matches_read(self):
        src = LiteralBytes(bytes(range(100)))
        assert src.slice(10, 20).read() == src.read(10, 20)

    def test_out_of_range_read_raises(self):
        src = LiteralBytes(b"abc")
        with pytest.raises(ValueError):
            src.read(1, 5)
        with pytest.raises(ValueError):
            src.read(-1, 1)

    def test_equality_by_content(self):
        assert content_equal(LiteralBytes(b"abc"), LiteralBytes(b"abc"))
        assert not content_equal(LiteralBytes(b"abc"), LiteralBytes(b"abd"))
        assert not content_equal(LiteralBytes(b"abc"), LiteralBytes(b"abcd"))
        assert LiteralBytes(b"abc") != LiteralBytes(b"abc")  # sources compare by identity

    def test_to_bytes(self):
        assert LiteralBytes(b"xyz").to_bytes() == b"xyz"


class TestZeroBytes:
    def test_reads_zeros(self):
        src = ZeroBytes(16)
        assert src.read() == b"\x00" * 16
        assert src.read(4, 4) == b"\x00" * 4

    def test_slice(self):
        assert ZeroBytes(10).slice(2, 5).size == 5

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            ZeroBytes(-1)

    def test_equals_literal_zeros(self):
        assert content_equal(ZeroBytes(8), LiteralBytes(b"\x00" * 8))


class TestSyntheticBytes:
    def test_deterministic(self):
        a = SyntheticBytes("seed", 4096)
        b = SyntheticBytes("seed", 4096)
        assert a.read() == b.read()
        assert content_equal(a, b)

    def test_different_seed_different_content(self):
        a = SyntheticBytes("seed-a", 1024)
        b = SyntheticBytes("seed-b", 1024)
        assert a.read() != b.read()

    def test_slice_consistency(self):
        src = SyntheticBytes("slices", 200_000)
        assert src.slice(70_000, 1000).read() == src.read(70_000, 1000)

    def test_nested_slicing(self):
        src = SyntheticBytes("nested", 100_000)
        outer = src.slice(10_000, 50_000)
        assert outer.slice(5_000, 100).read() == src.read(15_000, 100)

    def test_huge_size_not_materialised(self):
        src = SyntheticBytes("huge", 10 * 1024**3)
        assert src.size == 10 * 1024**3
        with pytest.raises(ValueError):
            src.to_bytes()
        # but small windows can still be read
        assert len(src.read(5 * 1024**3, 64)) == 64

    def test_fingerprint_distinguishes_windows(self):
        src = SyntheticBytes("fp", 4096)
        assert src.slice(0, 1024).fingerprint() != src.slice(1024, 1024).fingerprint()


class TestConcat:
    def test_concat_roundtrip(self):
        parts = [LiteralBytes(b"abc"), ZeroBytes(3), LiteralBytes(b"def")]
        joined = concat(parts)
        assert joined.size == 9
        assert joined.read() == b"abc\x00\x00\x00def"

    def test_concat_window_read(self):
        joined = concat([LiteralBytes(b"0123"), LiteralBytes(b"4567"), LiteralBytes(b"89")])
        assert joined.read(2, 5) == b"23456"

    def test_concat_slice(self):
        joined = concat([LiteralBytes(b"0123"), LiteralBytes(b"4567")])
        assert joined.slice(3, 3).read() == b"345"

    def test_concat_empty(self):
        assert concat([]).size == 0
        assert concat([LiteralBytes(b"")]).size == 0

    def test_concat_single_passthrough(self):
        part = LiteralBytes(b"solo")
        assert concat([part]) is part

    def test_equals_equivalent_literal(self):
        joined = concat([LiteralBytes(b"ab"), LiteralBytes(b"cd")])
        assert content_equal(joined, LiteralBytes(b"abcd"))


@settings(max_examples=50, deadline=None)
@given(
    data=st.binary(min_size=0, max_size=2000),
    window=st.tuples(st.integers(0, 1999), st.integers(0, 1999)),
)
def test_property_literal_slice_equals_python_slice(data, window):
    """slice/read must agree with Python byte slicing for every window."""
    start, length = window
    src = LiteralBytes(data)
    start = min(start, len(data))
    length = min(length, len(data) - start)
    assert src.read(start, length) == data[start : start + length]
    assert src.slice(start, length).read() == data[start : start + length]


@settings(max_examples=30, deadline=None)
@given(
    sizes=st.lists(st.integers(0, 500), min_size=1, max_size=6),
    seed=st.integers(0, 10),
)
def test_property_concat_equals_joined_bytes(sizes, seed):
    """Concatenation behaves exactly like joining the materialised parts."""
    parts = [SyntheticBytes((seed, i), n) for i, n in enumerate(sizes)]
    joined = concat(parts)
    reference = b"".join(p.read() for p in parts)
    assert joined.size == len(reference)
    assert joined.read() == reference
    if joined.size >= 2:
        mid = joined.size // 2
        assert joined.read(1, mid) == reference[1 : 1 + mid]


@settings(max_examples=30, deadline=None)
@given(
    size=st.integers(1, 100_000),
    offset=st.integers(0, 99_999),
    length=st.integers(0, 4096),
)
def test_property_synthetic_slice_window(size, offset, length):
    """Any window of a SyntheticBytes equals the same window of its slices."""
    src = SyntheticBytes("prop", size)
    offset = min(offset, size)
    length = min(length, size - offset)
    assert src.slice(offset, length).read() == src.read(offset, length)


def test_bytesource_is_abstract():
    with pytest.raises(TypeError):
        ByteSource()  # type: ignore[abstract]


# -- the synthetic stream is pinned ---------------------------------------------------


def _blake2b16(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


class TestGoldenStream:
    """Vectors taken from the original ``default_rng(...).integers`` generator:
    stored checkpoints, digests and baseline cells all depend on these bytes."""

    def test_first_bytes(self):
        s = SyntheticBytes("golden", 1 << 20)
        assert s.read(0, 16).hex() == "1a4763ac63a7a2c6d063418ad9c4e7d6"

    def test_block_boundary_straddle(self):
        s = SyntheticBytes("golden", 1 << 20)
        assert s.read(65530, 12).hex() == "21aae683d38629be09cd5bd4"

    def test_whole_payload_and_unaligned_window(self):
        s = SyntheticBytes("golden", 1 << 20)
        assert _blake2b16(s.read()) == "0b720d5cbb18dcd6f71b098c9460e75a"
        assert _blake2b16(s.read(100_001, 300_007)) == "980061f2fd016e0928a7baa9cd02abdb"

    def test_content_digest_of_a_fig7_block(self):
        digest = content_digest(SyntheticBytes(("fig7", 3, 2), 262144))
        assert digest == "262144:cba0222cbee2c2e5cc3d7ad725c6f600"


# -- readinto: the materialisation primitive ------------------------------------------


@st.composite
def _leaf(draw):
    kind = draw(st.sampled_from(["literal", "zero", "synthetic"]))
    if kind == "literal":
        return LiteralBytes(draw(st.binary(min_size=0, max_size=3000)))
    if kind == "zero":
        return ZeroBytes(draw(st.integers(0, 100_000)))
    # up to three 64 KiB generator blocks, so windows straddle block boundaries
    return SyntheticBytes(draw(st.integers(0, 5)), draw(st.integers(0, 200_000)))


@st.composite
def _windowed(draw, source):
    """A slice of ``source`` -- over all of it half of the time."""
    src = draw(source)
    if draw(st.booleans()):
        return src
    offset = draw(st.integers(0, src.size))
    return src.slice(offset, draw(st.integers(0, src.size - offset)))


#: every source class, slices of them, and concatenations of concatenations
_sources = st.recursive(
    _windowed(_leaf()),
    lambda inner: _windowed(st.lists(inner, min_size=0, max_size=4).map(concat)),
    max_leaves=8,
)


@settings(max_examples=100, deadline=None)
@given(parts=st.lists(_sources, max_size=4))
def test_property_a_concatenation_stays_one_level_deep(parts):
    """``concat`` splices the parts of a concatenation in, whatever it is built from."""
    joined = concat(parts)
    assert joined.read() == b"".join(part.read() for part in parts)
    for source in (joined, joined.slice(joined.size // 3, joined.size // 2)):
        if isinstance(source, _ConcatBytes):
            assert len(source._parts) > 1
            assert all(p.size and not isinstance(p, _ConcatBytes) for p in source._parts)


@st.composite
def _source_and_window(draw):
    src = draw(_sources)
    offset = draw(st.integers(0, src.size))
    return src, offset, draw(st.integers(0, src.size - offset))


@settings(max_examples=150, deadline=None)
@given(_source_and_window())
def test_property_readinto_equals_read(case):
    src, offset, length = case
    buffer = bytearray(b"\xaa" * (length + 2))
    assert src.readinto(offset, memoryview(buffer)[1 : 1 + length]) == length
    assert bytes(buffer[1 : 1 + length]) == src.read(offset, length)
    assert buffer[0] == buffer[-1] == 0xAA  # nothing outside the window is touched


@settings(max_examples=100, deadline=None)
@given(src=_sources, cuts=st.lists(st.integers(0, 1 << 20), max_size=8))
def test_property_window_partition_reassembles_the_whole(src, cuts):
    """Any partition of the payload into windows, read window by window (as
    chunks are read back from providers), reassembles to the whole."""
    bounds = sorted({0, src.size, *(cut % (src.size + 1) for cut in cuts)})
    whole = src.read()
    via_read = b"".join(src.read(a, b - a) for a, b in zip(bounds, bounds[1:]))
    via_readinto = bytearray(src.size)
    for a, b in zip(bounds, bounds[1:]):
        src.readinto(a, memoryview(via_readinto)[a:b])
    assert via_read == whole
    assert bytes(via_readinto) == whole
    assert content_equal(src, LiteralBytes(whole))


@settings(max_examples=60, deadline=None)
@given(src=_sources, data=st.data())
def test_property_zero_length_window_writes_nothing(src, data):
    offset = data.draw(st.integers(0, src.size))  # offset == size is a valid empty window
    guard = bytearray(b"\xaa" * 8)
    assert src.readinto(offset, memoryview(guard)[4:4]) == 0
    assert src.readinto(offset, bytearray()) == 0
    assert guard == b"\xaa" * 8
    assert src.read(offset, 0) == b""


@settings(max_examples=60, deadline=None)
@given(src=_sources, beyond=st.integers(1, 64), data=st.data())
def test_property_out_of_range_window_raises_and_writes_nothing(src, beyond, data):
    offset = data.draw(st.integers(0, src.size))
    buffer = bytearray(b"\xaa" * (src.size - offset + beyond))
    with pytest.raises(ValueError):
        src.readinto(offset, buffer)
    with pytest.raises(ValueError):
        src.readinto(-1, bytearray(1))
    with pytest.raises(ValueError):
        src.read(offset, len(buffer))
    assert buffer == b"\xaa" * len(buffer)


@settings(max_examples=60, deadline=None)
@given(
    windows=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 40 * 65536 - 1), st.integers(1, 300_000)),
        min_size=1,
        max_size=6,
    )
)
def test_property_content_is_independent_of_read_order(windows):
    """Windows of four seeds read in order, read again, and read one by one in
    fresh sources all give the same bytes."""
    sources = [SyntheticBytes(("cache", seed), 40 * 65536) for seed in range(4)]
    windows = [(seed, off, min(length, 40 * 65536 - off)) for seed, off, length in windows]

    def read_all():
        return [sources[seed].read(off, length) for seed, off, length in windows]

    first = read_all()
    again = read_all()
    isolated = [
        SyntheticBytes(("cache", seed), 40 * 65536).read(off, length)
        for seed, off, length in windows
    ]
    assert first == again == isolated


def test_readinto_accepts_any_contiguous_writable_buffer():
    src = SyntheticBytes("buffers", 1000)
    array = np.zeros(125, dtype=np.uint64)
    assert src.readinto(0, memoryview(array)) == 1000
    assert array.tobytes() == src.read()
    with pytest.raises(TypeError):
        src.readinto(0, bytes(10))  # read-only
    with pytest.raises(TypeError):
        src.readinto(0, memoryview(bytearray(20))[::2])  # not contiguous


# -- regressions ------------------------------------------------------------------------


class TestContentEquality:
    def test_eq_compares_content_above_one_mebibyte(self):
        """An equality capped at 1 MiB once answered False above it."""
        s = SyntheticBytes("eq", 2 << 20)
        halves = concat([s.slice(0, 1 << 20), s.slice(1 << 20, 1 << 20)])
        assert halves.fingerprint() != s.fingerprint()
        assert halves.read() == s.read()
        assert content_equal(halves, s)
        assert content_equal(s, halves)
        assert content_equal(LiteralBytes(s.read()), halves)

    def test_eq_sees_a_difference_in_the_last_window(self):
        size = (2 << 20) + 17
        data = SyntheticBytes("eq-tail", size).read()
        flipped = data[:-1] + bytes([data[-1] ^ 1])
        split = concat([LiteralBytes(flipped[:1000]), LiteralBytes(flipped[1000:])])
        assert not content_equal(LiteralBytes(data), split)
        assert not content_equal(SyntheticBytes("eq-tail", size), split)
        assert not content_equal(LiteralBytes(data), LiteralBytes(flipped))
        assert content_equal(SyntheticBytes("eq-tail", size), LiteralBytes(data))

    def test_content_equal_is_exact_above_the_materialise_limit(self):
        big = bytesource._MATERIALISE_LIMIT + 65536
        assert content_equal(concat([ZeroBytes(65536), ZeroBytes(big - 65536)]), ZeroBytes(big))
        s = SyntheticBytes("eq-big", big)
        other_split = concat([s.slice(0, 12_345), s.slice(12_345, big - 12_345)])
        assert content_equal(s, other_split)
        shifted = SyntheticBytes("eq-big", big + 1).slice(1, big)
        assert not content_equal(s, shifted)

    def test_fingerprint_is_representation_sensitive(self):
        """``fingerprint`` tells apart representations that ``content_equal``
        finds equal."""
        zeros, literal = ZeroBytes(8), LiteralBytes(bytes(8))
        split = concat([LiteralBytes(bytes(4)), LiteralBytes(bytes(4))])
        assert content_equal(zeros, literal) and content_equal(literal, split)
        assert len({zeros.fingerprint(), literal.fingerprint(), split.fingerprint()}) == 3

    def test_content_equal_sizes_and_empty(self):
        assert content_equal(LiteralBytes(b""), ZeroBytes(0))
        assert not content_equal(ZeroBytes(3), ZeroBytes(4))


#: the generator streams the content-equality property draws its windows from
_EQ_STREAM = 3 * bytesource._BLOCK


@st.composite
def _stream_windows(draw):
    """``(kind, seed, origin, length)`` windows of three generator streams:
    each a ``SyntheticBytes`` window, its literal copy, or a zero run."""
    windows = []
    for _ in range(draw(st.integers(1, 4))):
        origin = draw(st.integers(0, _EQ_STREAM - 1))
        length = draw(st.integers(1, min(_EQ_STREAM - origin, bytesource._BLOCK + 3)))
        kind = draw(st.sampled_from(["synthetic", "synthetic", "literal", "zero"]))
        windows.append((kind, draw(st.integers(0, 2)), origin, length))
    return windows


def _parts(windows):
    parts = []
    for kind, seed, origin, length in windows:
        stream = SyntheticBytes(("eq", seed), _EQ_STREAM + bytesource._BLOCK)
        window = stream.slice(origin, length)
        if kind == "literal":
            window = LiteralBytes(window.read())
        elif kind == "zero":
            window = ZeroBytes(length)
        parts.append(window)
    return parts


def _resplit(source, cuts, literal):
    """The bytes of ``source`` cut at other part boundaries, as slices or as literals."""
    bounds = sorted({0, source.size, *(cut % (source.size + 1) for cut in cuts)})
    return concat(
        LiteralBytes(source.read(a, b - a)) if literal else source.slice(a, b - a)
        for a, b in zip(bounds, bounds[1:])
    )


@st.composite
def _equality_pair(draw):
    """Two sources that are equal, or differ in the ways representation-based
    equality could get wrong: one window of the same stream shifted by one
    byte or by one generator block (its origin moved, or its bytes slid inside
    their slot behind an equal literal), another seed at the same origin, one
    flipped byte."""
    windows = draw(_stream_windows())
    parts = _parts(windows)
    left = concat(parts)
    how = draw(
        st.sampled_from(["same", "resplit", "literal", "shift", "slide", "reseed", "flip", "other"])
    )
    if how in ("resplit", "literal"):
        cuts = draw(st.lists(st.integers(0, 1 << 20), max_size=5))
        return left, _resplit(left, cuts, literal=how == "literal")
    if how == "flip":
        at = draw(st.integers(0, left.size - 1))
        flipped = LiteralBytes(bytes([left.read(at, 1)[0] ^ 1]))
        return left, concat([left.slice(0, at), flipped, left.slice(at + 1, left.size - at - 1)])
    if how == "other":
        return left, concat(_parts(draw(_stream_windows())))
    i = draw(st.integers(0, len(windows) - 1))
    kind, seed, origin, length = windows[i]
    part = parts[i]
    if how == "slide":
        by = min(draw(st.sampled_from([1, bytesource._BLOCK])), length)
        if draw(st.booleans()):  # part[:by] + part[:-by]
            part = concat([LiteralBytes(part.read(0, by)), part.slice(0, length - by)])
        else:  # part[by:] + part[-by:]
            part = concat([part.slice(by, length - by), LiteralBytes(part.read(length - by, by))])
    elif how == "shift":
        delta = draw(st.sampled_from([-1, 1, -bytesource._BLOCK, bytesource._BLOCK]))
        origin = min(max(origin + delta, 0), _EQ_STREAM)
        (part,) = _parts([(kind, seed, origin, length)])
    elif how == "reseed":
        (part,) = _parts([(kind, seed + 1, origin, length)])
    return left, concat([*parts[:i], part, *parts[i + 1 :]])


# tier-1 budget: 200 examples of up to four windows of at most 64 KiB + 3, under 2 s
@settings(max_examples=200, deadline=None)
@given(_equality_pair())
def test_property_content_equal_is_byte_equality(pair):
    left, right = pair
    expected = left.read() == right.read()
    assert content_equal(left, right) is expected
    assert content_equal(right, left) is expected


class TestMaterialisationGuard:
    """Every class refuses an oversized window, naming its size, before allocating."""

    LIMIT = bytesource._MATERIALISE_LIMIT

    @pytest.mark.parametrize(
        "source",
        [
            ZeroBytes(10 * 1024**3),
            SyntheticBytes("guard", 10 * 1024**3),
            concat([ZeroBytes(5 * 1024**3), SyntheticBytes("guard", 5 * 1024**3)]),
        ],
        ids=["zero", "synthetic", "concat"],
    )
    def test_oversized_window_is_refused(self, source):
        oversized = (
            source.read,
            source.to_bytes,
            lambda: source.read(1024, self.LIMIT + 1),
            lambda: source.readinto(1024, bytearray(self.LIMIT + 1)),
        )
        for call in oversized:
            with pytest.raises(ValueError, match=r"refusing to materialise \d+ bytes"):
                call()
        # a window inside the limit is still served, and slicing stays lazy
        assert source.read(3 * 1024**3, 64) == source.slice(3 * 1024**3, 64).read()
        assert source.slice(0, source.size // 2).size == source.size // 2

    def test_window_of_exactly_the_limit_is_allowed(self):
        assert len(ZeroBytes(self.LIMIT + 1).read(1, self.LIMIT)) == self.LIMIT
