"""Every command-line output on the bundled fixtures, pinned by hash.

Each case is one in-process main call: parse as text and as JSON, each
with and without --trace, disambiguate, and expect after the same words,
under every strategy, on the three fixtures; plus lexicon build on a
small corpus.  A case's hash covers its exit code, stdout and stderr
(and, for lexicon build, the bytes of the file written).  The fixtures
hold integers only, so no hash depends on the machine's float
arithmetic.

outputs_digest.txt holds one line per case, "HASH NAME".  The test
compares against it and never writes it.  After a change that alters
an output on purpose, rewrite the file by running this module as a
script, from the repository root:

    PYTHONPATH=src python tests/test_outputs_digest.py

and say in the change which cases moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shlex
import tempfile
from pathlib import Path

from dsvs import fixture_path, load_lexicon
from dsvs.cli import main
from dsvs.interpret import STRATEGIES

DIGEST = Path(__file__).with_name("outputs_digest.txt")

# per fixture: the empty sentence, the README's sentences, relative
# clauses, an unknown word and dead ends
SENTENCES = {
    "paper_s4": (
        "", "Babies vomit.", "babies", "footballers score",
        "footballers control balls", "footballers control",
        "babies who vomit", "babies who vomit dribble",
        "footballers who control balls score",
        "babies who footballers control vomit", "babies milk", "vomit",
        "babies zebra",
    ),
    "split_senses": (
        "", "footballers dribble", "footballers dribble balls",
        "babies dribble", "footballers who dribble score",
        "babies who dribble vomit", "dribble", "footballers dribble dribble",
        "zebra",
    ),
    "traces": (
        "", "mary likes john", "john sleeps", "mary likes",
        "mary who snores likes john", "john likes mary who likes john",
        "mary who likes john who sleeps snores", "mary", "likes",
        "mary john", "john who mary likes sleeps",
    ),
}

PARSE_FLAGS = ((), ("--trace",), ("--format", "json"), ("--format", "json", "--trace"))

# the lexicon build the CI workflow runs on an installed copy
BUILD_FILES = {
    "corpus/excerpts.txt": "The baby drank milk, then the baby did vomit.\n\n"
                           "The baby will vomit milk.\n\n"
                           "Footballers vomit after a goal.\n",
    "contexts.txt": "Milk,\ngoal.\n",
    "targets.txt": "Baby e\nvomit et\n",
}
BUILD_ARGV = ["lexicon", "build", "--corpus", "corpus", "--targets", "targets.txt",
              "--contexts", "contexts.txt", "--out", "built.lexicon"]


def _call(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _hash(code: int, out: str, err: str, written: bytes = b"") -> str:
    h = hashlib.sha256(f"{code}\0{out}\0{err}\0".encode())
    h.update(written)
    return h.hexdigest()[:16]


def _build_case() -> str:
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            os.mkdir("corpus")
            for name, text in BUILD_FILES.items():
                Path(name).write_text(text, encoding="utf-8")
            code, out, err = _call(BUILD_ARGV)
            written = Path("built.lexicon").read_bytes() if code == 0 else b""
        finally:
            os.chdir(cwd)
    return _hash(code, out, err, written)


def digests() -> dict[str, str]:
    """Case name -> hash of its outputs, in case order."""
    result = {}
    for fixture, sentences in SENTENCES.items():
        path = str(fixture_path(fixture))
        surfaces = dict.fromkeys(w for s in load_lexicon(path).senses
                                 for w in (s.word, *s.forms))
        candidates = ",".join([*surfaces, "zebra"])
        for strategy in STRATEGIES:
            for words in sentences:
                commands = [["parse", "--strategy", strategy, *flags, words]
                            for flags in PARSE_FLAGS]
                commands.append(["disambiguate", "--strategy", strategy, words])
                commands.append(["expect", "--strategy", strategy, "--after", words,
                                 "--candidates", candidates])
                for argv in commands:
                    code, out, err = _call([argv[0], "--lexicon", path, *argv[1:]])
                    result[shlex.join([fixture, *argv])] = _hash(code, out, err)
    result[shlex.join(BUILD_ARGV)] = _build_case()
    return result


def _read_digest() -> dict[str, str]:
    lines = DIGEST.read_text(encoding="utf-8").splitlines()
    pinned = dict(reversed(line.split(" ", 1)) for line in lines)
    assert len(pinned) == len(lines), "outputs_digest.txt names a case twice"
    return pinned


def test_outputs_match_the_checked_in_digest():
    pinned = _read_digest()
    got = digests()
    differ = [name for name in {**got, **pinned}
              if got.get(name) != pinned.get(name)]
    assert not differ, (
        f"{len(differ)} of {len(got)} cases differ from outputs_digest.txt:\n"
        + "\n".join(differ)
    )


if __name__ == "__main__":
    DIGEST.write_text("".join(f"{h} {name}\n" for name, h in digests().items()),
                      encoding="utf-8")
    print(f"wrote {DIGEST}")
