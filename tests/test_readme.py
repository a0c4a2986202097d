"""README examples run against the code: the library quick start and each
CLI example that shows its output in ``# ...`` lines under the command."""

import contextlib
import io
import re
import shlex
from itertools import takewhile
from pathlib import Path

import pytest

from weyltype.cli import run_command

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _section(title: str) -> str:
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:] if end < 0 else README[start:end]


def _blocks(text: str, lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", text, re.S)


def _cli_examples() -> list:
    examples = []
    for block in _blocks(_section("The CLI"), "sh"):
        lines = block.splitlines()
        for k, line in enumerate(lines):
            shown = list(takewhile(lambda text: text.startswith("# "), lines[k + 1:]))
            if line.startswith("weyl ") and shown:
                examples.append(pytest.param(line, [text[2:] for text in shown],
                                             id=shlex.split(line)[1]))
    return examples


def test_library_quick_start_prints_true_three_times():
    namespace: dict = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for k, code in enumerate(_blocks(_section("Library quick start"), "python")):
            exec(compile(code, f"README quick start block {k}", "exec"), namespace)
    assert out.getvalue() == "True\nTrue\nTrue\n"


def test_cli_examples_with_output_found():
    assert [example.id for example in _cli_examples()] == ["eval", "selftest"]


@pytest.mark.parametrize("line, shown", _cli_examples())
def test_cli_example_prints_what_readme_shows(line, shown, tmp_path, capsys):
    config = tmp_path / "desk.json"
    config.write_text(_blocks(_section("The CLI"), "json")[0], encoding="utf-8")
    argv = [str(config) if arg == "desk.json" else arg for arg in shlex.split(line)[1:]]
    assert run_command(argv) == 0
    assert capsys.readouterr().out.splitlines() == shown
