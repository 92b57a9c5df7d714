"""No attribute of ``src/repro`` is written and never read.

Every ``self.<name> = ...`` / ``self.<name> += ...`` under ``src/repro`` must
be loaded somewhere in the repository: an attribute access ``<expr>.<name>``
read anywhere (``src``, tests, examples, tools, benchmarks, perfbench), or a
string constant equal to the name (``getattr``, ``__slots__``, dataclass
field names).  Two uses of an attribute do not count as reading it: a
mutating call used as a statement (``self.log.append(x)``) and a subscript
store (``self.table[k] = v``), which both only write through it.

:data:`TEST_ONLY` holds the attributes that only tests read today, each with
its reason.  It may only shrink: an attribute that only tests read and is not
listed fails :func:`test_state_that_only_tests_read_only_shrinks`, and so does
a listed one that gained another reader or is gone.  This does for attributes
what ``tests/test_no_test_only_code.py`` does for functions.
"""

import ast
from pathlib import Path

THIS = Path(__file__).resolve()
ROOT = THIS.parents[1]
#: where a read may live
READERS = ("src", "tests", "examples", "tools", "benchmarks", "perfbench")

#: methods that, called as a statement, only write into their receiver
MUTATORS = frozenset(
    {"append", "appendleft", "extend", "add", "update", "clear", "remove", "discard", "insert"}
)


#: attribute -> why it is kept although only tests read it
TEST_ONLY = {
    "boot_count": "reboots of a VM, which the restart tests count across cycles",
    "bytes_delivered": "the bandwidth model's conservation audit: bytes delivered by done flows",
    "cause": "an Interrupt's payload, the kernel's counterpart of an exception argument",
    "clusters_written": "qcow2 write accounting, held to the block oracle",
    "commit_bytes_total": "bytes a disk's COMMITs shipped, summed over migration rounds",
    "completed_flows": "the bandwidth model's audit of how many flows finished",
    "invalidated_chunks": "dedup runs re-stored after their providers were lost",
    "last_pump": "the last post-copy pump, whose serve log audits exactly-once service",
    "migrations": "the results of a deployment's completed live migrations",
    "nodes_allocated": "segment-tree nodes a metadata write allocated (metadata I/O shape)",
    "served": "a post-copy pump's serve log, in service order (exactly-once audit)",
    "state_blocks": "blocks a post-copy pump shipped on the state channel",
    "sync_count": "guest file-system flushes, which the guest tests count",
}


def _python_files(top):
    for path in sorted(ROOT.joinpath(top).rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def assigned_self_attributes():
    """name -> ``file:line`` of its first ``self.<name>`` (augmented) assignment."""
    found = {}
    for path, tree in _python_files("src/repro"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for sub in ast.walk(target):
                    if (
                        isinstance(sub, ast.Attribute)
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == "self"
                        and isinstance(sub.ctx, ast.Store)
                    ):
                        where = f"{path.relative_to(ROOT)}:{node.lineno}"
                        found.setdefault(sub.attr, where)
    return found


def loaded_names(tree):
    """Attribute names read, and string constants, in one module."""
    write_only = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
            and node.value.func.attr in MUTATORS
        ):
            write_only.add(id(node.value.func.value))
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
            write_only.add(id(node.value))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if id(node) not in write_only:
                names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def loaded_in(tops):
    """Every name :func:`loaded_names` finds under the ``tops`` directories.

    This module is left out: the names :data:`TEST_ONLY` lists are not reads.
    """
    loaded = set()
    for top in tops:
        for path, tree in _python_files(top):
            if path != THIS:
                loaded |= loaded_names(tree)
    return loaded


def test_every_assigned_attribute_is_read_somewhere():
    loaded = loaded_in(READERS)
    write_only = {
        name: where for name, where in assigned_self_attributes().items() if name not in loaded
    }
    assert not write_only, "attributes written and never read: " + ", ".join(
        f"{name} ({where})" for name, where in sorted(write_only.items())
    )


def test_state_that_only_tests_read_only_shrinks():
    outside = loaded_in(top for top in READERS if top != "tests")
    tests = loaded_in(["tests"])
    only_tests = {
        name: where
        for name, where in assigned_self_attributes().items()
        if name in tests and name not in outside
    }
    new = sorted(set(only_tests) - set(TEST_ONLY))
    assert not new, "attributes only tests read: " + ", ".join(
        f"{name} ({only_tests[name]})" for name in new
    )
    stale = sorted(set(TEST_ONLY) - set(only_tests))
    assert not stale, "listed, but gone or read outside tests: " + ", ".join(stale)


def test_the_rules():
    tree = ast.parse(
        "class A:\n"
        "    def f(self):\n"
        "        self.log.append(1)\n"
        "        self.table['k'] = 2\n"
        "        x = self.kept\n"
        "        return getattr(self, 'named')\n"
    )
    names = loaded_names(tree)
    assert {"kept", "named"} <= names
    assert not {"log", "table"} & names
