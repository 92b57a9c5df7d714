"""The documentation link checker (tools/check_docs.py) and the real docs.

The checker is stdlib-only and lives outside the package (CI runs it
without installing anything), so it is loaded here by file path.  The
commands the docs show are resolved by the CLI itself.
"""

import importlib.util
import pathlib
import re
import shlex

import pytest

from repro.cli import main

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "check_docs", REPO_ROOT / "tools" / "check_docs.py"
)
check_docs_mod = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_docs_mod)


class TestRepositoryDocs:
    def test_repo_docs_are_healthy(self):
        """The committed README + docs tree has no broken links or orphans."""
        problems = check_docs_mod.check_docs(str(REPO_ROOT))
        assert problems == []

    def test_docs_tree_exists_and_is_linked(self):
        pages = check_docs_mod.collect_pages(str(REPO_ROOT))
        assert "README.md" in pages
        for expected in ("docs/architecture.md", "docs/performance.md", "docs/api.md"):
            assert expected in pages


class TestCheckerDetection:
    def _write(self, root, rel, text):
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)

    def test_broken_relative_link_detected(self, tmp_path):
        self._write(tmp_path, "README.md", "[missing](docs/nope.md)\n")
        self._write(tmp_path, "docs/real.md", "# Real\n[back](../README.md)\n")
        problems = check_docs_mod.check_docs(str(tmp_path))
        assert any("broken link docs/nope.md" in p for p in problems)

    def test_orphan_page_detected(self, tmp_path):
        self._write(tmp_path, "README.md", "no links here\n")
        self._write(tmp_path, "docs/lost.md", "# Lost\n")
        problems = check_docs_mod.check_docs(str(tmp_path))
        assert any("orphaned" in p and "docs/lost.md" in p for p in problems)

    def test_broken_anchor_detected(self, tmp_path):
        self._write(tmp_path, "README.md", "[a](docs/a.md)\n")
        self._write(tmp_path, "docs/a.md", "# Alpha\n[bad](../README.md#no-such-heading)\n")
        problems = check_docs_mod.check_docs(str(tmp_path))
        assert any("no heading #no-such-heading" in p for p in problems)

    def test_valid_anchor_accepted(self, tmp_path):
        self._write(tmp_path, "README.md", "# Top Heading\n[a](docs/a.md)\n")
        self._write(tmp_path, "docs/a.md", "# Alpha\n[ok](../README.md#top-heading)\n")
        assert check_docs_mod.check_docs(str(tmp_path)) == []

    def test_file_line_anchor_bounds_checked(self, tmp_path):
        self._write(tmp_path, "README.md", "see `src/tiny.py:99` and [d](docs/a.md)\n")
        self._write(tmp_path, "docs/a.md", "# A\n")
        self._write(tmp_path, "src/tiny.py", "x = 1\ny = 2\n")
        problems = check_docs_mod.check_docs(str(tmp_path))
        assert any("only" in p and "src/tiny.py:99" in p for p in problems)
        # In range is fine.
        self._write(tmp_path, "README.md", "see `src/tiny.py:2` and [d](docs/a.md)\n")
        assert check_docs_mod.check_docs(str(tmp_path)) == []

    def test_missing_code_span_path_detected(self, tmp_path):
        self._write(tmp_path, "README.md", "see `src/gone.py` and [d](docs/a.md)\n")
        self._write(tmp_path, "docs/a.md", "# A\n")
        problems = check_docs_mod.check_docs(str(tmp_path))
        assert any("src/gone.py" in p for p in problems)

    def test_fenced_code_blocks_are_not_link_checked(self, tmp_path):
        self._write(
            tmp_path,
            "README.md",
            "[d](docs/a.md)\n```\n[not a link](nowhere.md)\n```\n",
        )
        self._write(tmp_path, "docs/a.md", "# A\n")
        assert check_docs_mod.check_docs(str(tmp_path)) == []

    def test_external_links_ignored(self, tmp_path):
        self._write(tmp_path, "README.md", "[x](https://example.org/y) [d](docs/a.md)\n")
        self._write(tmp_path, "docs/a.md", "# A\n")
        assert check_docs_mod.check_docs(str(tmp_path)) == []

    def test_github_slug_rules(self):
        slug = check_docs_mod.github_slug
        assert slug("The public API (`repro.api`)") == "the-public-api-reproapi"
        assert slug("What the incremental solver changed (this PR)") == (
            "what-the-incremental-solver-changed-this-pr"
        )


#: a line that starts a command: ``VAR=value`` assignments, then the program
_COMMAND_START = re.compile(r"^\s*(?:\w+=\S*\s+)*(?:blobcr-repro|python3?)(?:\s|$)")

def documented_commands():
    """``(page:line, argv)`` of every CLI command in a fenced block of the docs.

    A command is a line (with its ``\\`` continuations) that starts, after
    any ``VAR=value`` assignments, with ``blobcr-repro`` or with a
    ``python`` that runs ``-m repro``; ``argv`` is what follows that.
    """
    found = []
    for page in [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]:
        lines = page.read_text().splitlines()
        fenced = False
        for number, line in enumerate(lines, 1):
            if line.lstrip().startswith("```"):
                fenced = not fenced
                continue
            if not fenced or not _COMMAND_START.match(line):
                continue
            command, rest = line, iter(lines[number:])
            while command.rstrip().endswith("\\"):
                command = command.rstrip()[:-1] + " " + next(rest)
            tokens = shlex.split(command, comments=True)
            while tokens and "=" in tokens[0] and not tokens[0].startswith("-"):
                tokens = tokens[1:]
            if tokens[:1] == ["blobcr-repro"]:
                argv = tokens[1:]
            elif tokens[:1] in (["python"], ["python3"]) and "repro" in tokens:
                at = tokens.index("repro")
                if tokens[at - 1] != "-m":
                    continue
                argv = tokens[at + 1:]
            else:
                continue
            found.append((f"{page.relative_to(REPO_ROOT)}:{number}", argv))
    return found


def as_listing(argv):
    """The argv that lists the cells ``argv`` selects (and runs none): a run and
    a trace both take ``--list-cells``."""
    return argv + ["--list-cells"]


_COMMANDS = documented_commands()


class TestDocumentedCommands:
    def test_the_docs_show_commands_of_every_form(self):
        argvs = [argv for _where, argv in _COMMANDS]
        assert len(argvs) >= 15
        assert any(argv[:1] == ["trace"] for argv in argvs)
        assert any(argv[:1] == ["run"] for argv in argvs)

    @pytest.mark.parametrize(
        "argv", [argv for _where, argv in _COMMANDS], ids=[where for where, _argv in _COMMANDS]
    )
    def test_a_documented_command_resolves_its_cells(self, argv, capsys):
        assert main(as_listing(argv)) == 0
        assert capsys.readouterr().out.strip()
