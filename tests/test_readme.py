"""The README's code runs and prints what its comments say; its CLI table is what the CLI prints."""

from pathlib import Path

import pytest

from rvb_ladder import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_api_block():
    section = README.read_text(encoding="utf-8").split("\n## Python API\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def _command_line_table():
    """The section's second fenced block: the table the command prints."""
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    return section.split("```")[3].strip("\n")


def test_readme_command_line_table_is_the_cli_output(tmp_path, capsys):
    assert cli.main(["sweep", "--sizes", "3,4,5,6", "--out", str(tmp_path / "results")]) == 0
    *table, wrote = capsys.readouterr().out.splitlines()
    assert wrote.startswith("wrote CSVs to ")
    assert table == _command_line_table().splitlines()


def test_readme_python_api_block_runs(capsys):
    code = _python_api_block()
    exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    # each print line ends in a comment with its output, floats to 6 decimals
    comments = [line.split("#", 1)[1].split() for line in code.splitlines()
                if line.startswith("print(")]
    assert len(printed) == len(comments)
    for line, want in zip(printed, comments):
        got = line.split()
        assert len(got) == len(want), (line, want)
        for g, w in zip(got, want):
            assert g == w or float(g) == pytest.approx(float(w), abs=5e-7), (line, want)
