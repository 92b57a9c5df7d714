"""tools/work_count.py: the counts of one small cell are exact (loaded by file path)."""

import importlib.util
import pathlib

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("work_count", REPO_ROOT / "tools" / "work_count.py")
work_count = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(work_count)

CELL = [("fig3", {"cells": ["fig3:BlobCR-app:4:50MB"]})]


def test_two_fresh_interpreters_count_one_cell_alike():
    first = work_count.run_fresh(str(REPO_ROOT), calls=CELL, opcodes=True)
    second = work_count.run_fresh(str(REPO_ROOT), calls=CELL, opcodes=True)
    assert first == second
    assert first["opcodes"] > first["calls"] > 0
    assert first["calls"] == sum(first["layers"].values()) == sum(first["modules"].values())
    # the layers of the layer map that one BlobCR checkpoint-restart cycle runs through
    assert {"sim", "cluster", "blobseer", "vdisk", "guest", "core"} <= set(first["layers"])
    assert first["modules"]["guest/filesystem.py"] > 0


def test_layers_fold_the_modules_under_src_repro():
    assert work_count._layer("guest/filesystem.py") == "guest"
    assert work_count._layer("cli.py") == "cli"
    assert work_count._layer("other") == "other"
