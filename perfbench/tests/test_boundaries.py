"""Every row of the boundary table must resolve against the code at this commit."""

from perfbench.boundaries import BOUNDARIES
from perfbench.metrics import _ELAPSED_FIELDS, _SELF_LAYERS, _TRACE_FIELDS
from perfbench.tracing import Tracer, install


def test_every_row_resolves_and_uninstall_restores_the_originals():
    from repro.blobseer.client import BlobClient
    from repro.util import bytesource

    import repro.api  # noqa: F401  (what a traced worker has imported before install)

    originals = (BlobClient.write_batch, bytesource.SyntheticBytes.read, bytesource.concat)
    tracer = Tracer()
    installation = install(tracer)
    try:
        assert tracer.unresolved == []
        assert BlobClient.write_batch.__wrapped__ is originals[0]
        assert bytesource.SyntheticBytes.read.__wrapped__ is originals[1]
        # ``from repro.util.bytesource import concat`` bindings are rebound too
        import repro.blobseer.client as client_module

        assert client_module.concat.__wrapped__ is originals[2]
    finally:
        installation.uninstall()
    assert (BlobClient.write_batch, bytesource.SyntheticBytes.read, bytesource.concat) == originals


def test_rows_name_public_entry_points_only():
    for row in BOUNDARIES:
        assert not row.attr.startswith("_"), row.target
        assert row.kind in ("sync", "generator"), row.target


def test_every_traced_metric_is_fed_by_a_row():
    spans = {row.span_name for row in BOUNDARIES}
    for name, (fed_by, _field) in _TRACE_FIELDS.items():
        assert set(fed_by) <= spans, name
    assert set(_ELAPSED_FIELDS.values()) <= {row.span_name for row in BOUNDARIES if row.keep}
    assert set(_SELF_LAYERS) <= {row.layer for row in BOUNDARIES}
