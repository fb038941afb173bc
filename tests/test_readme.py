"""The README's examples run as written."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from cuspsemi import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block_after(heading: str) -> str:
    """The first fenced block under the ``## heading`` section."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(r"```[a-z]*\n(.*?)```", section, re.S).group(1)


CLI_LINES = [line for line in _block_after("CLI").splitlines() if line.startswith("cuspsemi ")]


def test_readme_has_cli_examples():
    assert len(CLI_LINES) >= 5


@pytest.mark.parametrize("line", CLI_LINES)
def test_readme_cli_example_exits_zero(monkeypatch, tmp_path, line):
    monkeypatch.chdir(tmp_path)  # for an --out file
    assert cli.main(shlex.split(line)[1:]) == 0


def test_readme_library_quick_start_runs():
    # each line runs in turn; a comment that is a Python literal is the value shown
    namespace: dict = {}
    for line in _block_after("Library quick start").splitlines():
        code, _, comment = line.partition("#")
        try:
            shown = ast.literal_eval(comment.strip())
        except (SyntaxError, ValueError):
            exec(code, namespace)
        else:
            assert eval(code, namespace) == shown, line
