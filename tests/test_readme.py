import contextlib
import io
import shlex
from pathlib import Path

import pytest

from dsvs import fixture_path
from dsvs.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block(heading):
    text = README.read_text(encoding="utf-8")
    section = text[text.index(heading):]
    start = section.index("```python\n") + len("```python\n")
    return section[start:section.index("```", start)]


def test_library_tour_runs_as_written():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_python_block("## Library tour"), {})
    root_line, score_line = out.getvalue().splitlines()
    assert root_line == "[430, 98]"
    assert f"ratio={430 / 528!r}" in score_line


def _transcripts():
    """(argv, stdout) for every "$ dsvs ..." example under Command line."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Command line\n") + 1:]
    section = section[:section.index("\n## ")]
    examples = []
    for block in section.split("```text\n")[1:]:
        for chunk in block[:block.index("```")].split("$ dsvs ")[1:]:
            command, _, out = chunk.partition("\n")
            examples.append((shlex.split(command), out.rstrip("\n") + "\n"))
    return examples


TRANSCRIPTS = _transcripts()


def test_every_command_line_transcript_is_checked():
    assert [argv[0] for argv, _ in TRANSCRIPTS] == ["parse", "disambiguate", "expect"]


@pytest.mark.parametrize("argv,stdout", TRANSCRIPTS, ids=[argv[0] for argv, _ in TRANSCRIPTS])
def test_command_line_transcript_runs_as_written(argv, stdout, capsys):
    argv = [str(fixture_path(a.removesuffix(".lexicon"))) if a.endswith(".lexicon") else a
            for a in argv]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (stdout, "")
