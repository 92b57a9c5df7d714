"""``tests/retired_tests.json`` lists every test removed on purpose, with its reason.

Each entry is ``{"id", "reason", "renamed_to"}``: the test's id as pytest
prints it, one line on why it went, and the id it lives on under (or
``null``).  An entry's test must be gone from ``tests/`` and a rename's new
id must be there, so the list cannot name a test that still runs.
"""

import ast
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REMOVED = json.loads((ROOT / "tests" / "retired_tests.json").read_text())


def is_defined(test_id):
    """Whether ``file::Class::...::function`` names a test function under ``tests/``."""
    path, *names = test_id.split("::")
    source = ROOT / path
    if not source.is_file():
        return False
    scope = ast.parse(source.read_text()).body
    for index, name in enumerate(names):
        last = index == len(names) - 1
        kinds = (ast.FunctionDef, ast.AsyncFunctionDef) if last else (ast.ClassDef,)
        found = [node for node in scope if isinstance(node, kinds) and node.name == name]
        if not found:
            return False
        scope = found[0].body
    return bool(names)


def test_every_removed_test_has_a_reason_and_is_gone():
    assert REMOVED, "the list is empty"
    for entry in REMOVED:
        assert set(entry) == {"id", "reason", "renamed_to"}, entry
        assert entry["id"].startswith("tests/") and entry["reason"].strip(), entry
        assert not is_defined(entry["id"]), f"{entry['id']} still exists"
        if entry["renamed_to"] is not None:
            assert is_defined(entry["renamed_to"]), f"{entry['renamed_to']} does not exist"


def test_an_id_resolves_to_a_test_function():
    this = "tests/test_retired_tests.py"
    assert is_defined(f"{this}::test_an_id_resolves_to_a_test_function")
    assert not is_defined(f"{this}::REMOVED")
    assert not is_defined(f"{this}::Nothing::test_an_id_resolves_to_a_test_function")
    assert not is_defined("tests/no_such_file.py::test_x")
