"""Unit tests for units, rng and configuration helpers."""

import dataclasses

import pytest

from repro.util import (
    GRAPHENE,
    ClusterSpec,
    DiskSpec,
    NetworkSpec,
    format_bytes,
    format_duration,
    make_rng,
    stable_hash,
    stable_seed,
)
from repro.util.config import BlobSeerSpec, CheckpointSpec, PVFSSpec, VMSpec
from repro.util.errors import ConfigurationError
from repro.util.rng import keyed_uniform


class TestUnits:
    def test_format_bytes(self):
        assert format_bytes(512) == "512 B"
        assert format_bytes(256 * 1024) == "256.0 KiB"
        assert format_bytes(3 * 1024**2) == "3.0 MiB"
        assert format_bytes(2 * 1024**3) == "2.0 GiB"

    def test_format_bytes_negative(self):
        assert format_bytes(-1024) == "-1.0 KiB"

    def test_format_duration(self):
        assert format_duration(5e-7).endswith("us")
        assert format_duration(0.0021) == "2.1 ms"
        assert format_duration(3.5) == "3.50 s"
        assert format_duration(75) == "1m 15.0s"
        assert format_duration(3700).startswith("1h")


class TestRng:
    def test_stable_hash_is_stable(self):
        assert stable_hash("a", 1) == stable_hash("a", 1)
        assert stable_hash("a", 1) != stable_hash("a", 2)

    def test_stable_seed_range(self):
        for i in range(20):
            assert 0 <= stable_seed("x", i) < 2**31

    def test_make_rng_deterministic(self):
        a = make_rng("node", 3).integers(0, 1000, size=10)
        b = make_rng("node", 3).integers(0, 1000, size=10)
        assert list(a) == list(b)

    def test_make_rng_distinct_streams(self):
        a = make_rng("node", 1).integers(0, 10**9)
        b = make_rng("node", 2).integers(0, 10**9)
        assert a != b

    def test_keyed_uniform_is_the_first_draw_of_its_key(self):
        for parts in [("jitter", 7, 1), ("jitter", 7, 1.0), ("jitter", 7, True), ("x",)]:
            expected = float(make_rng(*parts).uniform(-0.5, 0.5))
            assert keyed_uniform(-0.5, 0.5, *parts) == expected
            assert keyed_uniform(-0.5, 0.5, *parts) == expected  # memoised
        assert keyed_uniform(-0.5, 0.5, "jitter", 7, 1) != keyed_uniform(-0.5, 0.5, "jitter", 7, 1.0)


class TestConfig:
    def test_graphene_defaults_validate(self):
        GRAPHENE.validate()
        assert GRAPHENE.compute_nodes == 120
        assert GRAPHENE.blobseer.chunk_size == 256 * 1024
        assert GRAPHENE.disk.bandwidth == pytest.approx(55e6)
        assert GRAPHENE.network.nic_bandwidth == pytest.approx(117.5e6)

    def test_specs_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            GRAPHENE.disk.bandwidth = 1.0  # type: ignore[misc]

    def test_scaled_override(self):
        small = GRAPHENE.scaled(compute_nodes=8)
        assert small.compute_nodes == 8
        assert GRAPHENE.compute_nodes == 120

    @pytest.mark.parametrize(
        "spec",
        [
            DiskSpec(bandwidth=0),
            DiskSpec(capacity=-1),
            DiskSpec(latency=-1),
            NetworkSpec(nic_bandwidth=0),
            NetworkSpec(latency=-1),
            VMSpec(vcpus=0),
            BlobSeerSpec(chunk_size=0),
            BlobSeerSpec(replication=0),
            PVFSSpec(io_servers=0),
            PVFSSpec(concurrency_efficiency=0.0),
            CheckpointSpec(cow_block_size=0),
        ],
    )
    def test_invalid_specs_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            spec.validate()

    def test_invalid_cluster_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec(compute_nodes=0).validate()
        with pytest.raises(ConfigurationError):
            ClusterSpec(jitter=1.5).validate()
