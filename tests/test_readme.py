import contextlib
import io
from pathlib import Path

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
