#!/usr/bin/env python
"""What one pass of the snapshot collector costs (not Python's: see ``gc_census.py``).

Builds BLOBS blobs of STRIPES 4 KiB stripes, each overwritten whole VERSIONS
times, on PROVIDERS providers without dedup, collects with ``keep_latest=1``
and prints the seconds the pass took and its ``GCReport``::

    python tools/snapshot_gc_probe.py 120 800 3 120 --fail-over 2
"""

from __future__ import annotations

import argparse
import time
from types import SimpleNamespace

from repro.blobseer import BlobClient, DataProvider, ProviderManager
from repro.core import SnapshotGarbageCollector
from repro.util import SyntheticBytes

STRIPE = 4096


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for name, default in (("blobs", 120), ("stripes", 800), ("versions", 3), ("providers", 120)):
        parser.add_argument(name, type=int, nargs="?", default=default)
    parser.add_argument("--fail-over", type=float, metavar="SECONDS", help="exit 1 if slower")
    args = parser.parse_args(argv)
    manager = ProviderManager()
    for index in range(args.providers):
        manager.register(DataProvider(f"node-{index:03d}"))
    client = BlobClient(providers=manager, default_chunk_size=STRIPE)
    for blob in [client.create_blob() for _ in range(args.blobs)]:
        for version in range(args.versions):
            client.write_batch(blob, [(0, SyntheticBytes((blob, version), args.stripes * STRIPE))])
    started = time.perf_counter()
    report = SnapshotGarbageCollector(SimpleNamespace(client=client), keep_latest=1).collect()
    seconds = time.perf_counter() - started
    print(f"pass {seconds:.3f} s: {len(report.dropped_versions)} versions dropped", end="")
    for name in ("examined_blobs", "deleted_chunks", "reclaimed_bytes"):
        print(f", {name} {getattr(report, name)}", end="")
    print()
    return int(args.fail_over is not None and seconds > args.fail_over)


if __name__ == "__main__":
    raise SystemExit(main())
