import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dsvs
from dsvs import (
    canonical_view,
    disambiguate,
    fixture_path,
    load_lexicon,
    parse_sequence,
    render,
)
from dsvs.cli import _tree_json, main

BASE = str(fixture_path("paper_s4"))
SPLIT = str(fixture_path("split_senses"))
TRACES = str(fixture_path("traces"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_text_output(capsys):
    code, out, err = run(capsys, "parse", "--lexicon", BASE, "babies vomit")
    assert code == 0 and err == ""
    assert out == (
        "t = [430, 98] ◊\n"
        "  e = [34, 10, 0, 0]\n"
        "  ⟨e,t⟩ = [[10, 2], [9, 3], [3, 9], [0, 12]]\n"
        "root S = (430, 98)  ratio = 0.8144\n"
    )


def test_parse_trace_shows_one_event_per_word(capsys):
    code, out, _ = run(capsys, "parse", "--lexicon", TRACES, "--trace",
                       "mary likes john")
    assert code == 0
    assert out.count("word ") == 3
    assert "word 1: mary  (1 candidate)" in out
    assert "word 3: john  (1 candidate)" in out
    # the final tree holds no unmet requirement
    final_block = out.split("word 3")[1]
    assert "?" not in final_block
    assert out.rstrip().endswith("ratio = 0.5556")


def test_parse_ranks_once_unless_tracing(capsys, monkeypatch):
    ranked = []

    def counting(state, lexicon, strategy):
        ranked.append(len(state.consumed))
        return disambiguate(state, lexicon, strategy)

    monkeypatch.setattr("dsvs.cli.disambiguate", counting)
    for fmt in ("text", "json"):
        for extra, want in (((), [3]), (("--trace",), [1, 2, 3])):
            ranked.clear()
            code, _, _ = run(capsys, "parse", "--lexicon", TRACES, "--format", fmt,
                             *extra, "mary likes john")
            assert code == 0 and ranked == want
        ranked.clear()
        assert run(capsys, "parse", "--lexicon", TRACES, "--format", fmt, "")[0] == 0
        assert ranked == [0]


@pytest.mark.parametrize("show", [canonical_view, render, _tree_json])
def test_tree_output_leaves_no_reference_cycles(show):
    # a cycle would keep the tree alive until the collector runs
    tree = parse_sequence("mary who likes".split(), load_lexicon(TRACES)).candidates[0].tree
    gc.collect()
    gc.disable()
    try:
        show(tree)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_parse_handles_punctuation_and_case(capsys):
    code, out, _ = run(capsys, "parse", "--lexicon", TRACES, "Mary, who sleeps, snores.")
    assert code == 0
    assert "t = [140, 35]" in out


def test_parse_prefix_with_strategies(capsys):
    code, out, _ = run(capsys, "parse", "--lexicon", BASE, "babies")
    assert code == 0
    assert out.endswith("root S = (1422, 514)  ratio = 0.7345\n")
    code, out, _ = run(capsys, "parse", "--lexicon", BASE, "--strategy", "unit",
                       "babies")
    assert code == 0
    assert out.endswith("root S = (44, 44)  ratio = 0.5000\n")
    code, out, _ = run(capsys, "parse", "--lexicon", BASE,
                       "--strategy", "direct_sum", "babies")
    assert code == 0
    assert out.endswith("root S = (1422, 514)  ratio = 0.7345\n")


def test_parse_json_output_is_exact(capsys):
    code, out, _ = run(capsys, "parse", "--lexicon", BASE, "--format", "json",
                       "--trace", "babies vomit")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "dsvs/1"
    assert doc["words"] == ["babies", "vomit"]
    assert len(doc["candidates"]) == 1
    cand = doc["candidates"][0]
    assert cand["senses"] == ["baby#n", "vomit#v"]
    assert cand["complete"] is True
    assert cand["root"] == [430, 98]
    assert cand["score"]["top"] == 430 and cand["score"]["bottom"] == 98
    tree = cand["tree"]
    assert tree["type"] == "t" and tree["formula"] == [430, 98]
    assert tree["argument"]["formula"] == [34, 10, 0, 0]
    assert tree["functor"]["type"] == "et"
    assert [ev["word"] for ev in doc["trace"]] == ["babies", "vomit"]
    assert doc["trace"][0]["candidates"] == 1


def test_disambiguate_ranks_senses(capsys):
    code, out, _ = run(capsys, "disambiguate", "--lexicon", SPLIT,
                       "footballers dribble")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("1. footballer#n dribble#control")
    assert "ratio = 1.0000" in lines[0]
    assert lines[1].startswith("2. footballer#n dribble#drip")
    assert "ratio = 0.0000" in lines[1]


def test_expect_ranks_continuations(capsys):
    code, out, _ = run(capsys, "expect", "--lexicon", SPLIT,
                       "--after", "footballers dribble", "--candidates", "ball,milk")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1. ball (ball#n)  ratio = 1.0000"
    assert lines[1] == "2. milk (milk#n)  ratio = 0.5000"


def test_expect_reports_dead_candidates(capsys):
    code, out, _ = run(capsys, "expect", "--lexicon", BASE,
                       "--after", "babies vomit", "--candidates", "milk")
    assert code == 0
    assert out.splitlines()[0] == "-. milk (milk#n)  no parse"


def test_expect_tokenizes_candidates_like_sentences(capsys):
    code, out, _ = run(capsys, "expect", "--lexicon", BASE,
                       "--after", "Babies", "--candidates", "Vomit,score.")
    assert code == 0
    assert out.splitlines() == [
        "1. vomit (vomit#v)  ratio = 0.8144",
        "2. score (score#v)  ratio = 0.0966",
    ]


def test_lexicon_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("DSVS_LEXICON", BASE)
    code, out, _ = run(capsys, "parse", "babies vomit")
    assert code == 0 and "root S = (430, 98)" in out


def test_missing_lexicon_is_usage_error(capsys, monkeypatch):
    monkeypatch.delenv("DSVS_LEXICON", raising=False)
    code, _, err = run(capsys, "parse", "babies vomit")
    assert code == 2 and "lexicon" in err


def test_unknown_word_exits_one(capsys):
    code, _, err = run(capsys, "parse", "--lexicon", BASE, "babies sing")
    assert code == 1 and "sing" in err


def test_dead_end_exits_one(capsys):
    code, _, err = run(capsys, "parse", "--lexicon", BASE, "control babies")
    assert code == 1 and "control" in err


def test_unreadable_lexicon_exits_two(capsys):
    code, _, err = run(capsys, "parse", "--lexicon", "/no/such/file", "babies")
    assert code == 2 and "lexicon" in err


@pytest.mark.parametrize("entry", ["true", "NaN", "Infinity", "1e999"])
def test_malformed_tensor_entry_exits_two(capsys, tmp_path, entry):
    doc = json.loads(Path(BASE).read_text(encoding="utf-8"))
    baby = next(s for s in doc["senses"] if s["id"] == "baby#n")
    baby["tensor"] = "ENTRIES"
    path = tmp_path / "bad.lexicon"
    path.write_text(json.dumps(doc).replace('"ENTRIES"', f"[{entry}, 10, 0, 0]"),
                    encoding="utf-8")
    code, out, err = run(capsys, "parse", "--lexicon", str(path), "babies vomit")
    assert code == 2 and out == "" and "baby#n" in err


@pytest.mark.parametrize("entry", [str(2**63), str(2**64)])
def test_integer_entry_outside_int64_exits_two(capsys, tmp_path, entry):
    doc = json.loads(Path(BASE).read_text(encoding="utf-8"))
    baby = next(s for s in doc["senses"] if s["id"] == "baby#n")
    baby["tensor"] = [int(entry), 10, 0, 0]
    path = tmp_path / "big.lexicon"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "parse", "--lexicon", str(path), "babies vomit")
    assert code == 2 and out == "" and "baby#n" in err and entry in err


def test_negative_tensor_entry_exits_two(capsys, tmp_path):
    doc = json.loads(Path(BASE).read_text(encoding="utf-8"))
    baby = next(s for s in doc["senses"] if s["id"] == "baby#n")
    baby["tensor"] = [-34, 10, 0, 0]
    path = tmp_path / "negative.lexicon"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "parse", "--lexicon", str(path), "babies vomit")
    assert code == 2 and out == "" and "baby#n" in err


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_float_overflow_exits_two_without_a_traceback(capsys, tmp_path):
    doc = json.loads(Path(BASE).read_text(encoding="utf-8"))
    for sense in doc["senses"]:
        if sense["id"] == "baby#n":
            sense["tensor"] = [1e200, 1e200, 0, 0]
        if sense["id"] == "vomit#v":
            sense["tensor"][0] = [1e200, 1e200]
    path = tmp_path / "overflow.lexicon"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["parse", "--lexicon", str(path), "babies vomit"]
    env = {**os.environ, "PYTHONPATH": str(Path(dsvs.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "dsvs.cli", *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1] == "dsvs: tensor entry inf is not a finite number"
    code, out, _ = run(capsys, "disambiguate", "--lexicon", str(path), "babies vomit")
    assert code == 2 and out == ""


def test_float_overflow_is_reported_once_without_a_warning(tmp_path):
    doc = json.loads(Path(BASE).read_text(encoding="utf-8"))
    for sense in doc["senses"]:
        if sense["id"] == "baby#n":
            sense["tensor"] = [1e200, 1e200, 0, 0]
        if sense["id"] == "vomit#v":
            sense["tensor"][0] = [1e200, 1e200]
    path = tmp_path / "overflow.lexicon"
    path.write_text(json.dumps(doc), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(dsvs.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "dsvs.cli",
         "parse", "--lexicon", str(path), "babies vomit"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "RuntimeWarning" not in proc.stderr
    assert proc.stderr == "dsvs: tensor entry inf is not a finite number\n"


def test_plausibility_overflow_exits_two(capsys, tmp_path):
    # root [1e308, 1e308] is finite, but top + bottom overflows
    doc = json.loads(Path(BASE).read_text(encoding="utf-8"))
    for sense in doc["senses"]:
        if sense["id"] == "baby#n":
            sense["tensor"] = [1e154, 0, 0, 0]
        if sense["id"] == "vomit#v":
            sense["tensor"][0] = [1e154, 1e154]
    path = tmp_path / "overflow.lexicon"
    path.write_text(json.dumps(doc), encoding="utf-8")
    message = "dsvs: plausibility total 1e+308 + 1e+308 is not a finite number\n"
    for argv in (["parse", "babies vomit"], ["disambiguate", "babies vomit"],
                 ["expect", "--after", "babies", "--candidates", "vomit,score"]):
        code, out, err = run(capsys, argv[0], "--lexicon", str(path), *argv[1:])
        assert (code, out, err) == (2, "", message)


def test_bad_usage_exits_two(capsys):
    assert run(capsys, "parse", "--lexicon", BASE, "--strategy", "zzz", "x")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "frobnicate")[0] == 2


CORPUS = """\
infant dribble nappy

infant dribble

goal dribble pitch

goal score
"""


def test_lexicon_build_end_to_end(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "text.txt").write_text(CORPUS, encoding="utf-8")
    (tmp_path / "targets.txt").write_text(
        "# word kind\ninfant e\ndribble et\nscore et\n", encoding="utf-8")
    (tmp_path / "contexts.txt").write_text(
        "infant\nnappy\npitch\ngoal\n", encoding="utf-8")
    out = tmp_path / "built.lexicon"

    code, stdout, _ = run(capsys, "lexicon", "build",
                          "--corpus", str(corpus),
                          "--targets", str(tmp_path / "targets.txt"),
                          "--contexts", str(tmp_path / "contexts.txt"),
                          "--out", str(out))
    assert code == 0
    assert "3 senses" in stdout and "4 excerpts" in stdout

    lex = load_lexicon(out)
    assert lex.sense("infant#n").tensor.tolist() == [2, 1, 0, 0]
    assert lex.sense("dribble#v").tensor.tolist() == [[2, 1], [1, 2], [1, 2], [1, 2]]
    assert lex.sense("score#v").tensor.tolist() == [[0, 1], [0, 1], [0, 1], [1, 0]]

    # the built lexicon drives a parse
    code, stdout, _ = run(capsys, "parse", "--lexicon", str(out), "infant dribble")
    assert code == 0
    assert "root S = (5, 4)" in stdout


def test_lexicon_build_rejects_two_place_targets(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "text.txt").write_text("a b\n", encoding="utf-8")
    (tmp_path / "targets.txt").write_text("control eet\n", encoding="utf-8")
    (tmp_path / "contexts.txt").write_text("a\nb\n", encoding="utf-8")
    code, _, err = run(capsys, "lexicon", "build",
                       "--corpus", str(corpus),
                       "--targets", str(tmp_path / "targets.txt"),
                       "--contexts", str(tmp_path / "contexts.txt"),
                       "--out", str(tmp_path / "x.lexicon"))
    assert code == 2 and "eet" in err


def build_from(capsys, tmp_path, targets, contexts):
    """Run lexicon build over a two-line corpus with the given targets and
    contexts file contents."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "text.txt").write_text("baby milk\nbaby cry\n", encoding="utf-8")
    (tmp_path / "targets.txt").write_text(targets, encoding="utf-8")
    (tmp_path / "contexts.txt").write_text(contexts, encoding="utf-8")
    out = tmp_path / "x.lexicon"
    result = run(capsys, "lexicon", "build",
                 "--corpus", str(corpus),
                 "--targets", str(tmp_path / "targets.txt"),
                 "--contexts", str(tmp_path / "contexts.txt"),
                 "--out", str(out))
    return (*result, out)


@pytest.mark.parametrize("contexts, line, word, first", [
    ("milk\nbaby\nbaby\n", 3, "baby", 2),
    ("# props\nBaby\nmilk\n\nbaby\n", 5, "baby", 2),  # words are lower-cased
])
def test_lexicon_build_names_a_repeated_context_word(
    capsys, tmp_path, contexts, line, word, first
):
    code, out, err, built = build_from(capsys, tmp_path, "baby e\n", contexts)
    path = tmp_path / "contexts.txt"
    assert (code, out) == (2, "")
    assert err == f"dsvs: {path}:{line}: {word!r} repeats line {first}\n"
    assert not built.exists()


@pytest.mark.parametrize("contexts", ["", "# none\n", "\n  \n"])
def test_lexicon_build_refuses_a_contexts_file_without_words(capsys, tmp_path, contexts):
    code, out, err, built = build_from(capsys, tmp_path, "baby e\n", contexts)
    assert (code, out) == (2, "")
    assert err == f"dsvs: {tmp_path / 'contexts.txt'}: lists no context word\n"
    assert not built.exists()


def test_lexicon_build_names_a_repeated_target_line(capsys, tmp_path):
    # a word may be listed once per kind; the same kind twice is refused
    code, out, err, built = build_from(
        capsys, tmp_path, "baby e\ncry et\ncry e\nBaby e\n", "milk\ncry\n")
    assert (code, out) == (2, "")
    assert err == f"dsvs: {tmp_path / 'targets.txt'}:4: 'baby e' repeats line 1\n"
    assert not built.exists()
