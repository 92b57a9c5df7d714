"""No attribute of ``src/repro`` is written and never read.

Every ``self.<name> = ...`` / ``self.<name> += ...`` under ``src/repro`` must
be loaded somewhere in the repository: an attribute access ``<expr>.<name>``
read anywhere (``src``, tests, examples, tools, benchmarks, perfbench), or a
string constant equal to the name (``getattr``, ``__slots__``, dataclass
field names).  Two uses of an attribute do not count as reading it: a
mutating call used as a statement (``self.log.append(x)``) and a subscript
store (``self.table[k] = v``), which both only write through it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: where a read may live
READERS = ("src", "tests", "examples", "tools", "benchmarks", "perfbench")

#: methods that, called as a statement, only write into their receiver
MUTATORS = frozenset(
    {"append", "appendleft", "extend", "add", "update", "clear", "remove", "discard", "insert"}
)


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


def test_every_assigned_attribute_is_read_somewhere():
    loaded = set()
    for top in READERS:
        for _path, tree in _python_files(top):
            loaded |= loaded_names(tree)
    write_only = {
        name: where for name, where in assigned_self_attributes().items() if name not in loaded
    }
    assert not write_only, "attributes written and never read: " + ", ".join(
        f"{name} ({where})" for name, where in sorted(write_only.items())
    )


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
