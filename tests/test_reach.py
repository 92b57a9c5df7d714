"""The reach census (tools/reach.py): its mapping, its list and its check.

The tool lives outside the package, so it is loaded here by file path.
"""

import importlib.util
import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("reach", REPO_ROOT / "tools" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

MODULE = '''\
import abc
import functools


def plain():
    return 1


class Shape(abc.ABC):
    @staticmethod
    @functools.lru_cache(maxsize=None)
    def decorated():
        return 2

    @property
    def area(self):
        return 3

    @abc.abstractmethod
    def draw(self):
        """No body to census."""

    def __repr__(self):
        return "<Shape>"

    def unused(self):
        def inner():
            return 4

        return inner()
'''


def census(tmp_path, calls):
    """What ``calls(module)`` leaves unentered of a one-module package."""
    package = tmp_path / "pkg"
    package.mkdir()
    path = package / "shapes.py"
    path.write_text(MODULE)
    spec = importlib.util.spec_from_file_location("shapes_under_census", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    defined = reach.definitions(package)
    return defined, reach.unentered(defined, reach.entered(lambda: calls(module)))


def test_a_decorated_def_maps_from_its_first_decorator_line(tmp_path):
    def calls(module):
        module.plain()
        module.Shape.decorated()

        class Square(module.Shape):
            def draw(self):
                pass

        assert Square().area == 3

    defined, unentered = census(tmp_path, calls)
    first_lines = {qualified: line for (_path, line, _name), qualified in defined.items()}
    decorator = MODULE.splitlines().index("    @staticmethod") + 1
    assert first_lines["shapes.py::Shape.decorated"] == decorator
    assert unentered == {"shapes.py::Shape.unused", "shapes.py::Shape.unused.inner"}


def test_dunders_and_abstract_bodies_are_not_censused(tmp_path):
    defined, unentered = census(tmp_path, lambda module: None)
    assert sorted(defined.values()) == sorted(unentered) == [
        "shapes.py::Shape.area",
        "shapes.py::Shape.decorated",
        "shapes.py::Shape.unused",
        "shapes.py::Shape.unused.inner",
        "shapes.py::plain",
    ]


def test_the_list_parser():
    text = (
        "# a comment, then a blank line\n"
        "\n"
        "a.py::f error path\n"
        "b.py::C.m  generality: a note\n"
        "c.py::g perfbench row (item 5): named by a row\n"
    )
    assert reach.parse_list(text) == {
        "a.py::f": "error path",
        "b.py::C.m": "generality",
        "c.py::g": "perfbench row (item 5)",
    }
    for bad in ("a.py::f", "a.py::f dead", "f error path", "a.py::f error pathway"):
        with pytest.raises(ValueError, match="line 1"):
            reach.parse_list(bad)
    with pytest.raises(ValueError, match="listed twice"):
        reach.parse_list("a.py::f error path\na.py::f generality\n")


def test_the_committed_list_parses():
    assert reach.parse_list(reach.UNREACHED.read_text())


LISTED = {"a.py::f": "error path", "a.py::row": "perfbench row (item 5)"}
DEFINED = {"a.py::f", "a.py::row", "a.py::g", "a.py::h"}
UNENTERED = {"a.py::f", "a.py::row"}


def test_check_passes_on_a_matching_list():
    assert reach.problems(LISTED, DEFINED, UNENTERED) == []
    assert reach.problems(LISTED, DEFINED, UNENTERED, untested={"a.py::row"}) == []


def test_check_fails_when_the_list_grew():
    found = reach.problems(LISTED, DEFINED, UNENTERED | {"a.py::g"})
    assert found == ["not listed, and no entry point enters it: a.py::g"]


def test_check_fails_on_a_stale_line():
    found = reach.problems(LISTED, DEFINED - {"a.py::f"}, {"a.py::row"})
    assert found == ["listed, but no longer exists: a.py::f"]
    found = reach.problems(LISTED, DEFINED, {"a.py::row"})
    assert found == ["listed, but an entry point enters it: a.py::f"]


def test_check_fails_on_a_line_nothing_enters():
    found = reach.problems(LISTED, DEFINED, UNENTERED, untested=UNENTERED)
    assert found == ["listed as 'error path', but tier-1 tests do not enter it: a.py::f"]
