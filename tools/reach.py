#!/usr/bin/env python
"""Reach census: every function of ``src/repro`` is entered by an entry point or listed.

    python tools/reach.py list                 # what the entry points leave unentered
    python tools/reach.py check                # hold that to tools/unreached.txt
    python tools/reach.py check --with-tests   # ... and every listed line to tier-1

The census runs the system's entry points in this one process under
``sys.setprofile`` and records the code object of every Python call: all
experiments at reduced scale through the CLI (with ``--artifact`` and
``--json``), ``trace mtc:8``, ``--list-backends``, one ``--cells`` run with an
axis and a ``cluster.*`` override, a two-cell ``--workers 2`` run, the
``examples/`` and a ``Session`` smoke of the public methods the examples
miss.  A code object is mapped to its ``def`` by file and first line (a
decorated def's code starts at its first decorator) and name.  Dunders and
``@abstractmethod`` bodies are not censused.

``tools/unreached.txt`` lists every censused function the entry points do
not enter, one a line, as ``<file under src/repro>::<Class.method>`` then a
reason category (:data:`CATEGORIES`) and an optional ``: note``.  ``check``
fails when a function the entry points leave unentered is not listed (the
list grew), or when a listed function is entered or gone (the list only
shrinks).  With ``--with-tests`` it also runs tier-1 ``tests/`` under the
profiler (fixed hypothesis seed) and fails on a listed function those do not
enter either, except a ``perfbench row`` line: perfbench reads or names it.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
UNREACHED = Path(__file__).with_name("unreached.txt")
#: why a listed function is not entered by any entry point
CATEGORIES = (
    "error path",
    "verify mode",
    "generality",
    "test observable",
    "perfbench row (item 5)",
)
#: the category tier-1 need not enter either
PERFBENCH = "perfbench row (item 5)"


def _is_abstract(node: ast.AST) -> bool:
    return any(
        getattr(decorator, "id", getattr(decorator, "attr", None)) == "abstractmethod"
        for decorator in node.decorator_list
    )


def definitions(package: Path = PACKAGE) -> dict:
    """``(file, first line, name)`` -> ``<file>::<Qual.name>`` of every censused def.

    ``file`` is the real path, ``first line`` the line a code object of the
    def starts at: its first decorator's, else the ``def``'s.  A nested
    function's name carries its enclosing function's (``Session.advance._idle``).
    """
    found = {}

    def visit(node, prefix, path, relative):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", path, relative)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
                dunder = name.startswith("__") and name.endswith("__")
                if not dunder and not _is_abstract(child):
                    first = child.decorator_list[0].lineno if child.decorator_list else child.lineno
                    found[(path, first, name)] = f"{relative}::{prefix}{name}"
                visit(child, f"{prefix}{name}.", path, relative)
            else:
                visit(child, prefix, path, relative)

    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        visit(tree, "", os.path.realpath(path), path.relative_to(package).as_posix())
    return found


def entered(run) -> set:
    """``(real file, first line, name)`` of every Python code object ``run()`` enters."""
    codes = {}

    def hook(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            codes[id(code)] = code

    outer = sys.getprofile(), threading.getprofile()  # a census inside a census
    sys.setprofile(hook)
    threading.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(outer[0])
        threading.setprofile(outer[1])
    real = {}
    return {
        (
            real.setdefault(code.co_filename, os.path.realpath(code.co_filename)),
            code.co_firstlineno,
            code.co_name,
        )
        for code in codes.values()
    }


def unentered(defined: dict, hits: set) -> set:
    """The censused functions ``hits`` does not contain."""
    return {qualified for key, qualified in defined.items() if key not in hits}


def parse_list(text: str) -> dict:
    """``<file>::<Class.method>`` -> category of every line of an unreached list."""
    listed = {}
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, _, reason = line.partition(" ")
        reason = reason.strip()
        category = next((c for c in CATEGORIES if reason == c or reason.startswith(c + ":")), None)
        if "::" not in name or category is None:
            raise ValueError(
                f"line {number}: expected '<file>::<name> <category>[: note]': {raw!r}"
            )
        if name in listed:
            raise ValueError(f"line {number}: {name} is listed twice")
        listed[name] = category
    return listed


def problems(listed: dict, defined: set, unentered_now: set, untested=None) -> list:
    """Why ``check`` fails, one message a function (empty: it passes).

    ``defined`` holds every censused function, ``unentered_now`` those the
    entry points did not enter and ``untested`` those tier-1 did not enter
    (``None``: tier-1 was not run).
    """
    found = [
        f"not listed, and no entry point enters it: {name}"
        for name in sorted(unentered_now - set(listed))
    ]
    for name, category in sorted(listed.items()):
        if name not in defined:
            found.append(f"listed, but no longer exists: {name}")
        elif name not in unentered_now:
            found.append(f"listed, but an entry point enters it: {name}")
        elif untested is not None and name in untested and category != PERFBENCH:
            found.append(f"listed as {category!r}, but tier-1 tests do not enter it: {name}")
    return found


def _cli(*argv: str) -> None:
    from repro.cli import main

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        status = main(list(argv))
    if status:
        raise SystemExit(f"blobcr-repro {' '.join(argv)} exited {status}")


def _session_smoke(scratch: Path) -> None:
    """The public ``Session`` methods the examples do not call."""
    from repro.api import GRAPHENE, Session
    from repro.service import dumps_trace, synthesize_trace

    Session.backends()
    spec = GRAPHENE.scaled(compute_nodes=8, service_nodes=3)
    for mode in ("pre-copy", "post-copy"):
        session = Session.from_spec(spec)
        deployed = session.deploy("blobcr", n=2)
        session.checkpoint()
        session.migrate(session.instance_ids[deployed.instances - 1], mode=mode)
        session.kill()
        session.restart(session.checkpoints[-1])
    report = session.run_scenario(
        "mig", overrides={"mig.flows": 0}, cells=["mig:pre-copy"], progress=lambda *_: None
    )
    report.to_table()
    session.trace("mtc", cells=["mtc:8:1:fifo"]).chrome()
    path = scratch / "trace.jsonl"
    path.write_text(dumps_trace(synthesize_trace(4, 1.0)))
    session.serve(str(path))


def run_entry_points() -> None:
    with tempfile.TemporaryDirectory() as directory:
        scratch = Path(directory)
        _cli(
            "--workers", "1", "--no-progress",
            "--artifact", str(scratch / "artifact.json"), "--json", str(scratch / "tables.json"),
        )  # fmt: skip
        _cli(
            "trace", "mtc:8", "--no-progress",
            "--trace-artifact", str(scratch / "trace.json"),
            "--chrome", str(scratch / "trace.chrome.json"),
        )  # fmt: skip
        _cli("--list-backends")
        _cli(
            "run", "--cells", "ft:BlobCR-app", "--no-progress",
            "--override", "ft.mtbf=300", "--override", "cluster.blobseer.replication=2",
        )  # fmt: skip
        _cli("--cells", "mtc:8", "--workers", "2")  # with the progress lines
        for example in sorted(ROOT.joinpath("examples").glob("*.py")):
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(example), run_name="__main__")
        _session_smoke(scratch)


def run_tier1_tests() -> None:
    import pytest

    status = pytest.main(
        [str(ROOT / "tests"), "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0"]
    )
    if status:
        raise SystemExit(f"tier-1 tests failed under the census (pytest exit {int(status)})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("list", help="print what no entry point enters, with file:line")
    chk = commands.add_parser("check", help="hold the census to tools/unreached.txt")
    chk.add_argument(
        "--with-tests",
        action="store_true",
        help="also fail on a listed function tier-1 tests do not enter",
    )
    args = parser.parse_args(argv)

    defined = definitions()
    unentered_now = unentered(defined, entered(run_entry_points))
    if args.command == "list":
        lines = {qualified: key for key, qualified in defined.items()}
        for name in sorted(unentered_now):
            print(f"{name}  (line {lines[name][1]})")
        print(f"{len(unentered_now)} of {len(defined)} censused functions unentered")
        return 0
    untested = unentered(defined, entered(run_tier1_tests)) if args.with_tests else None
    listed = parse_list(UNREACHED.read_text())
    found = problems(listed, set(defined.values()), unentered_now, untested)
    for line in found:
        print(line)
    print(
        f"reach census: {len(unentered_now)} of {len(defined)} functions unentered, "
        f"{len(found)} problem(s)"
    )
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(main())
