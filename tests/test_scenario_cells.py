"""What every registered scenario enumerates: cell keys and call arguments.

``tests/scenario_cells.json`` pins, for all 13 scenarios at the reduced and
at the paper scale, every cell's key (in enumeration order), the function
the cell calls and the arguments it calls it with.  The arguments are bound
through ``inspect.signature(...).bind(...)`` with defaults applied, so a
constant bound with ``functools.partial`` counts exactly like one passed
explicitly.  ``spec`` is left out: it is the run's cluster override
(``None`` here), and a scenario's cluster plan is the cell function's
business.  Regenerate after an announced change with
``PYTHONPATH=src python tests/test_scenario_cells.py > tests/scenario_cells.json``.
"""

import functools
import inspect
import json
from pathlib import Path

import pytest

from repro.runner import RunConfig, load_all
from repro.scenarios import get_scenario

PINNED_PATH = Path(__file__).resolve().parent / "scenario_cells.json"
SCALES = ("reduced", "paper")


def _function_name(func):
    while isinstance(func, functools.partial):
        func = func.func
    return f"{func.__module__}.{func.__qualname__}"


def _snapshot(name, scale):
    """``[key, function, call arguments]`` of every cell, in order."""
    cells = get_scenario(name).enumerate_cells(RunConfig(paper_scale=scale == "paper"))
    snapshot = []
    for cell in cells:
        bound = inspect.signature(cell.func).bind(**cell.params)
        bound.apply_defaults()
        arguments = {key: value for key, value in bound.arguments.items() if key != "spec"}
        snapshot.append([cell.key, _function_name(cell.func), arguments])
    return snapshot


def _canonical(snapshot):
    # JSON text keeps 0 and 0.0 apart, which a plain == would not
    return [json.dumps(entry, sort_keys=True, default=repr) for entry in snapshot]


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED_PATH.read_text())


def test_every_scenario_is_pinned(pinned):
    assert list(pinned) == load_all()


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("name", load_all())
def test_cell_keys_and_call_arguments(pinned, name, scale):
    got, want = _canonical(_snapshot(name, scale)), _canonical(pinned[name][scale])
    assert [json.loads(entry)[0] for entry in got] == [json.loads(entry)[0] for entry in want]
    for got_cell, want_cell in zip(got, want):
        assert got_cell == want_cell


if __name__ == "__main__":
    lines = []
    for name in load_all():
        scales = []
        for scale in SCALES:
            cells = ",\n".join(f"   {entry}" for entry in _canonical(_snapshot(name, scale)))
            scales.append(f'  "{scale}": [\n{cells}\n  ]')
        lines.append(f' "{name}": {{\n' + ",\n".join(scales) + "\n }")
    print("{\n" + ",\n".join(lines) + "\n}")
