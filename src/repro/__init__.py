"""BlobCR (SC'11) reproduction: VM checkpoint-restart on IaaS clouds.

The public programmatic surface lives in :mod:`repro.api` (session facade,
deployment-backend registry, typed results); the layers below it -- sim,
cluster, blobseer, vdisk, guest, core, baselines, apps, scenarios, runner --
are importable individually and documented in the README's architecture map.
The package ships a ``py.typed`` marker: its inline annotations are part of
the API contract.
"""

__version__ = "0.8.0"

__all__ = ["__version__"]
