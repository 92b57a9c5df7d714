"""Every subpackage must import on its own, whatever was imported before it."""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.scenarios

_SRC = str(Path(repro.__file__).resolve().parents[1])


def _cold_import_targets():
    packages = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.") if m.ispkg]
    # the two modules that used to close the blobseer <-> dedup cycle
    dedup = ["repro.dedup.engine", "repro.dedup.fingerprint"]
    # the registry holds ScenarioSpec objects and every scenario module
    # imports the registry: a run-time import of the spec from the registry
    # would close that cycle, so each side must import first on its own
    scenarios = [
        m.name for m in pkgutil.iter_modules(repro.scenarios.__path__, "repro.scenarios.")
    ]
    return packages + dedup + ["repro.runner.registry"] + scenarios


def test_every_subpackage_imports_first_in_a_fresh_interpreter():
    """``import repro.dedup`` used to work only after ``repro.blobseer``.

    One interpreter per target, each importing that target *first*; they run
    side by side because the cost is interpreter + numpy start-up.
    """
    env = {**os.environ, "PYTHONPATH": _SRC}
    targets = _cold_import_targets()
    assert "repro.dedup" in targets and "repro.blobseer" in targets
    assert "repro.scenarios.spec" in targets and "repro.scenarios.fig2_checkpoint" in targets
    running = {
        name: subprocess.Popen(
            [sys.executable, "-c", f"import {name}"],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        for name in targets
    }
    failures = {}
    for name, process in running.items():
        _, stderr = process.communicate(timeout=120)
        if process.returncode != 0:
            failures[name] = stderr.strip().splitlines()[-1]
    assert failures == {}


@pytest.mark.parametrize(
    "first, second",
    [("repro.core.migration", "repro.core.blobcr"), ("repro.core.blobcr", "repro.core.migration")],
)
def test_the_retired_migrate_class_name_resolves_whichever_module_imports_first(first, second):
    """``repro.core.migration.BlobCRMigrateDeployment`` names ``BlobCRDeployment``
    (a perfbench boundary row addresses ``migrate_instance`` through it)."""
    code = (
        f"import sys, {first}\n"
        "alias = sys.modules['repro.core.migration'].BlobCRMigrateDeployment\n"
        f"import {second}\n"
        "from repro.core.blobcr import BlobCRDeployment\n"
        "assert alias is BlobCRDeployment\n"
        "assert 'migrate_instance' in alias.__dict__\n"
    )
    env = {**os.environ, "PYTHONPATH": _SRC}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
