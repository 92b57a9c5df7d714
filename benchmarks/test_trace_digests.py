"""The deterministic traces, held to their committed digests.

A traced artifact holds simulated time only (no host section), so its bytes
are a fingerprint of the model: span names, their order, every timestamp and
counter.  ``benchmarks/trace_digests.json`` pins the sha256 of the file
``blobcr-repro trace <selector> --trace-artifact PATH`` writes, per selector;
a digest that moves is a model change and is announced by updating that file.
This test is the only digest gate.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.cli import main

DIGESTS = json.loads(Path(__file__).with_name("trace_digests.json").read_text())


@pytest.mark.parametrize("selector", sorted(DIGESTS))
def test_trace_artifact_matches_its_committed_digest(selector, tmp_path, capsys):
    artifact = tmp_path / "trace.json"
    argv = ["trace", selector, "--no-progress", "--trace-artifact", str(artifact)]
    assert main(argv + ["--chrome", str(tmp_path / "trace.chrome.json")]) == 0
    capsys.readouterr()
    assert hashlib.sha256(artifact.read_bytes()).hexdigest() == DIGESTS[selector], (
        f"the trace of {selector} differs from benchmarks/trace_digests.json"
    )
