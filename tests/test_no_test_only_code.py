"""No function of ``src/repro`` exists only for its tests.

Every function and method defined under ``src/repro`` must be referenced by
name outside ``tests/``: in ``src``, ``examples``, ``tools``, ``benchmarks``
or ``perfbench``.  A reference is a name or attribute read, an imported
name, or a string constant equal to the name (``getattr`` and perfbench's
boundary rows name methods as strings).  A definition does not reference
itself.  Dunders are exempt, and so is the public surface: the names
``repro.api`` exports and the methods of the classes it exports.

:data:`ALLOWED` lists the functions that only tests reach today, each with
its reason.  It may only shrink: an entry whose function gained an outside
reader, or is gone, fails :func:`test_the_allowlist_only_shrinks`.
"""

import ast
import functools
from pathlib import Path

import repro.api

ROOT = Path(__file__).resolve().parents[1]
#: where a reference may live
READERS = ("src", "examples", "tools", "benchmarks", "perfbench")

#: ``Class.method`` or ``function`` -> why only tests reach it
ALLOWED = {
    "AdmissionQueue.queue_length": "referenced nowhere, tests included: a deletion candidate",
    "BandwidthSystem.active_flows": "observable asserted by test_sim_solver_equivalence.py",
    "BlobCRDeployment.download_checkpoint_image": "paper operation, run by test_core_blobcr.py",
    "BlobCRDeployment.migrate_all": "batch evacuation, run by test_migration.py",
    "CheckpointRepository.snapshot_incremental_size": "observable asserted by test_core_blobcr.py",
    "Cloud.remote_write": "node-to-node transfer, driven by test_cluster.py",
    "Event.trigger": "referenced nowhere, tests included: a deletion candidate",
    "FairShareChannel.active_flows": "observable asserted by test_sim_bandwidth.py",
    "FairShareChannel.bytes_carried": "observable asserted by test_sim_bandwidth.py",
    "GuestFileSystem.fsync": "per-file sync, held to a model by test_guest.py",
    "LocalDisk.reserve": "referenced nowhere, tests included: a deletion candidate",
    "MirroringModule.locally_modified_bytes": "observable asserted by test_guest.py",
    "ProviderManager.deregister": "provider removal, held to a model by test_blobseer_providers.py",
    "QcowImage.allocated_clusters": "observable asserted by test_vdisk_runs.py",
    "QcowImage.guest_visible_bytes": "observable asserted by test_vdisk_runs.py",
    "QcowImage.rebase": "image operation, run by test_vdisk_runs.py",
    "Resource.queue_length": "observable asserted by test_sim_core.py",
    "VersionManager.lineage": "observable asserted by test_blobseer.py",
    "WriteResult.provider_bytes": "observable asserted by test_blobseer_providers.py",
}


def _python_files(top):
    for path in sorted(ROOT.joinpath(top).rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def defined_functions():
    """``Class.method`` / ``function`` -> (bare name, ``file:line``) in ``src/repro``."""
    found = {}

    def visit(node, owner, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, path)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualified = f"{owner}.{child.name}" if owner else child.name
                where = f"{path.relative_to(ROOT)}:{child.lineno}"
                found.setdefault(qualified, (child.name, where))
                visit(child, None, path)
            else:
                visit(child, owner, path)

    for path, tree in _python_files("src/repro"):
        visit(tree, None, path)
    return found


def referenced_names(tree):
    """Names a module reads, imports, or spells as a string constant."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def public_surface():
    """The names ``repro.api`` exports and the method names of its classes."""
    public = set(repro.api.__all__)
    for name in repro.api.__all__:
        exported = getattr(repro.api, name)
        if isinstance(exported, type):
            public |= {attr for klass in exported.__mro__ for attr in vars(klass)}
    return public


@functools.lru_cache(maxsize=None)
def functions_only_tests_reach():
    """``Class.method`` / ``function`` -> ``file:line`` of what only tests reach."""
    referenced = set()
    for top in READERS:
        for _path, tree in _python_files(top):
            referenced |= referenced_names(tree)
    public = public_surface()
    return {
        qualified: where
        for qualified, (name, where) in defined_functions().items()
        if not (name.startswith("__") and name.endswith("__"))
        and name not in public
        and name not in referenced
    }


def test_no_new_test_only_function():
    found = functions_only_tests_reach()
    new = {name: where for name, where in found.items() if name not in ALLOWED}
    assert not new, "functions no code outside tests/ references: " + ", ".join(
        f"{name} ({where})" for name, where in sorted(new.items())
    )


def test_the_allowlist_only_shrinks():
    stale = sorted(set(ALLOWED) - set(functions_only_tests_reach()))
    assert not stale, "allowlisted functions now referenced (or gone): " + ", ".join(stale)


def test_the_rules():
    tree = ast.parse(
        "import pkg.mod\n"
        "from pkg import imported\n"
        "def f(obj):\n"
        "    obj.called()\n"
        "    return getattr(obj, 'named'), read\n"
    )
    names = referenced_names(tree)
    assert {"mod", "imported", "called", "named", "read"} <= names
    assert "f" not in names
