"""No function of ``src/repro`` exists only for its tests.

Every function and method defined under ``src/repro`` must be referenced by
name outside ``tests/``: in ``src``, ``examples``, ``tools``, ``benchmarks``
or ``perfbench``.  A method is referenced by an attribute read or a
string constant equal to its name (``getattr`` and perfbench's boundary
rows name methods as strings); a module-level function also by a bare name
read or an imported name.  So a local variable named like a method does not
keep it alive.  A definition does not reference itself.  Dunders are
exempt, and so is the public surface: the names ``repro.api`` exports and
the methods of the classes it exports.

:data:`ALLOWED` holds the functions that only tests reach today: the
``test observable`` lines of ``tools/unreached.txt`` (the reach census,
``tools/reach.py``), each with its reason.  It may only shrink: a line whose
function gained an outside reader, or is gone, fails
:func:`test_the_allowlist_only_shrinks`.
"""

import ast
import functools
import importlib.util
from pathlib import Path

import repro.api

ROOT = Path(__file__).resolve().parents[1]
#: where a reference may live
READERS = ("src", "examples", "tools", "benchmarks", "perfbench")

_spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

#: ``Class.method`` or ``function`` only tests reach: the census's
#: ``test observable`` lines, which carry the reasons
ALLOWED = {
    name.partition("::")[2]
    for name, category in reach.parse_list(reach.UNREACHED.read_text()).items()
    if category == "test observable"
}


def _python_files(top):
    for path in sorted(ROOT.joinpath(top).rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def defined_functions():
    """``Class.method`` / ``function`` -> (bare name, is a method, ``file:line``).

    Only ``src/repro`` is parsed.  A function nested in another function
    counts as a module-level one: it is called by its bare name.
    """
    found = {}

    def visit(node, owner, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, path)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualified = f"{owner}.{child.name}" if owner else child.name
                where = f"{path.relative_to(ROOT)}:{child.lineno}"
                found.setdefault(qualified, (child.name, owner is not None, where))
                visit(child, None, path)
            else:
                visit(child, owner, path)

    for path, tree in _python_files("src/repro"):
        visit(tree, None, path)
    return found


def referenced_names(tree):
    """(bare names, attribute names) a module references.

    A bare name is a ``Name`` read or an imported name: it can only reach a
    module-level function.  An attribute name is an attribute read or a
    string constant equal to it: it can reach a method too.
    """
    bare, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            bare.add(node.id)
        elif isinstance(node, ast.alias):
            bare.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attributes.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            attributes.add(node.value)
    return bare, attributes


def public_surface():
    """The names ``repro.api`` exports and the method names of its classes."""
    public = set(repro.api.__all__)
    for name in repro.api.__all__:
        exported = getattr(repro.api, name)
        if isinstance(exported, type):
            public |= {attr for klass in exported.__mro__ for attr in vars(klass)}
    return public


def is_referenced(name, is_method, bare, attributes):
    """A method is reached through an attribute or a string, a function by name too."""
    return name in attributes or (not is_method and name in bare)


@functools.lru_cache(maxsize=None)
def functions_only_tests_reach():
    """``Class.method`` / ``function`` -> ``file:line`` of what only tests reach."""
    bare, attributes = set(), set()
    for top in READERS:
        for _path, tree in _python_files(top):
            names, attrs = referenced_names(tree)
            bare |= names
            attributes |= attrs
    public = public_surface()
    return {
        qualified: where
        for qualified, (name, is_method, where) in defined_functions().items()
        if not (name.startswith("__") and name.endswith("__"))
        and name not in public
        and not is_referenced(name, is_method, bare, attributes)
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
    bare, attributes = referenced_names(tree)
    assert {"mod", "imported", "read"} <= bare
    assert {"called", "named"} <= attributes
    assert "f" not in bare | attributes
    # A local variable named like a method does not reference the method,
    # only a module-level function of that name.
    source = "def wait(done):\n    finished = done\n    return finished\n"
    local = referenced_names(ast.parse(source))
    assert not is_referenced("finished", True, *local)
    assert is_referenced("finished", False, *local)

