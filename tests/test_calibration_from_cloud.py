"""Every component reads its calibration from its cloud.

The model is one calibrated stack: a ``Cloud`` holds the one ``ClusterSpec``
and every component below it reads its part of that spec through the cloud.
A parameter that lets a caller pass a second spec beside the cloud's
(``spec: Optional[CheckpointSpec] = None``) is how a component ends up
ignoring ``--override cluster.*``, so none of the layers below takes one.
``Cloud(spec)`` is the root, and the one exception.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LAYERS = ("cluster", "core", "baselines", "blobseer", "guest")
#: ``file::function::parameter`` allowed to take an optional spec
ROOTS = {"src/repro/cluster/cloud.py::Cloud.__init__::spec"}

_OPTIONAL_SPEC = re.compile(
    r"Optional\[[\w.]*Spec\]|Union\[[\w.]*Spec, None\]|[\w.]*Spec \| None|None \| [\w.]*Spec"
)


def _is_optional_spec(annotation):
    if annotation is None:
        return False
    text = ast.unparse(annotation)
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        text = annotation.value
    return bool(_OPTIONAL_SPEC.search(text))


def optional_spec_parameters(tree, path):
    """``path::qualified.function::parameter`` of each parameter annotated as an optional spec."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = ".".join((*scope, child.name))
                arguments = child.args
                for arg in (*arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs):
                    if _is_optional_spec(arg.annotation):
                        found.append(f"{path}::{name}::{arg.arg}")
                visit(child, (*scope, child.name))
            elif isinstance(child, ast.ClassDef):
                visit(child, (*scope, child.name))
            else:
                visit(child, scope)

    visit(tree, ())
    return found


def test_no_component_takes_a_second_spec():
    found = []
    for layer in LAYERS:
        for path in sorted((ROOT / "src" / "repro" / layer).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            found += optional_spec_parameters(tree, path.relative_to(ROOT).as_posix())
    assert sorted(set(found) - ROOTS) == []
    assert set(found) == ROOTS, "the root no longer takes its spec"


@pytest.mark.parametrize(
    "signature",
    [
        "spec: Optional[CheckpointSpec] = None",
        "spec: 'Optional[config.PVFSSpec]' = None",
        "*, spec: BlobSeerSpec | None = None",
        "spec: Union[VMSpec, None]",
    ],
)
def test_every_spelling_of_an_optional_spec_is_found(signature):
    tree = ast.parse(f"class C:\n    def __init__(self, {signature}):\n        pass\n")
    assert optional_spec_parameters(tree, "m.py") == ["m.py::C.__init__::spec"]
