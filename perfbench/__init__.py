"""``perfbench`` -- the repo's end-to-end + per-layer benchmark.

Self-contained: it drives the simulator only through ``repro.api.Session``
and wraps layer boundaries from its own files, so nothing under ``src/``
knows it exists.  See ``perfbench/README.md``.
"""
