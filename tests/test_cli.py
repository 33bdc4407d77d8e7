import argparse
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dsvs
import dsvs.cli
from dsvs import (
    canonical_view,
    disambiguate,
    fixture_path,
    load_lexicon,
    parse_sequence,
    render,
)
from dsvs.cli import _json_text, _tree_json, main

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


@pytest.mark.parametrize("lexicon", [BASE, TRACES], ids=["paper_s4", "traces"])
def test_parse_trace_of_an_empty_sentence_prints_the_tree_once(capsys, lexicon):
    plain = run(capsys, "parse", "--lexicon", lexicon, "")
    assert plain[0] == 0 and plain[1].count("◊") == 1
    assert run(capsys, "parse", "--lexicon", lexicon, "--trace", "") == plain


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


@pytest.mark.parametrize("targets", ["", "# none\n", "\n  \n"])
def test_lexicon_build_refuses_a_targets_file_without_targets(capsys, tmp_path, targets):
    code, out, err, built = build_from(capsys, tmp_path, targets, "milk\n")
    assert (code, out) == (2, "")
    assert err == f"dsvs: {tmp_path / 'targets.txt'}: lists no target\n"
    assert not built.exists()


@pytest.mark.parametrize("corpus_text", [None, "", "\n\n"])
def test_lexicon_build_refuses_a_corpus_without_excerpts(capsys, tmp_path, corpus_text):
    files = build_inputs(tmp_path)
    (files["--corpus"] / "text.txt").unlink()
    if corpus_text is not None:
        (files["--corpus"] / "empty.txt").write_text(corpus_text, encoding="utf-8")
    build_refused(capsys, files, files["--corpus"])
    assert not files["--out"].exists()


def test_lexicon_build_names_a_repeated_target_line(capsys, tmp_path):
    # a word may be listed once per kind; the same kind twice is refused
    code, out, err, built = build_from(
        capsys, tmp_path, "baby e\ncry et\ncry e\nBaby e\n", "milk\ncry\n")
    assert (code, out) == (2, "")
    assert err == f"dsvs: {tmp_path / 'targets.txt'}:4: 'baby e' repeats line 1\n"
    assert not built.exists()


NOT_UTF8 = b"\xff\xfe not text\n"


def build_inputs(tmp_path):
    """Valid lexicon build inputs, by option; --out is not yet written."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "text.txt").write_text("baby milk\n", encoding="utf-8")
    files = {"--corpus": corpus, "--targets": tmp_path / "targets.txt",
             "--contexts": tmp_path / "contexts.txt", "--out": tmp_path / "x.lexicon"}
    files["--targets"].write_text("baby e\n", encoding="utf-8")
    files["--contexts"].write_text("milk\n", encoding="utf-8")
    return files


def build_refused(capsys, files, named):
    """lexicon build exits 2 with one dsvs: line naming the path named."""
    argv = [str(x) for option, path in files.items() for x in (option, path)]
    code, out, err = run(capsys, "lexicon", "build", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("dsvs: ") and err.count("\n") == 1 and str(named) in err


# the corpus of the README's and CI's build example
BABY_CORPUS = ("The baby drank milk, then the baby did vomit.\n\n"
               "The baby will vomit milk.\n\nFootballers vomit after a goal.\n")


def build_baby(capsys, tmp_path, name, targets, contexts):
    """lexicon build over BABY_CORPUS into tmp_path/name.lexicon; returns
    (exit code, stdout, stderr, output path)."""
    (tmp_path / name).mkdir()
    files = build_inputs(tmp_path / name)
    (files["--corpus"] / "text.txt").write_text(BABY_CORPUS, encoding="utf-8")
    files["--targets"].write_text(targets, encoding="utf-8")
    files["--contexts"].write_text(contexts, encoding="utf-8")
    argv = [str(x) for option, path in files.items() for x in (option, path)]
    return (*run(capsys, "lexicon", "build", *argv), files["--out"])


def test_lexicon_build_reads_listed_words_as_it_reads_the_corpus(capsys, tmp_path):
    # a listed word goes through tokenize, so "Milk," counts the corpus's milk
    built = {}
    for name, targets, contexts in [
        ("clean", "baby e\nvomit et\n", "milk\ngoal\n"),
        ("written", "# word kind\nBaby e\n\n  vomit.  et\n", "Milk,\n# x\ngoal.\n"),
    ]:
        code, out, err, lexicon = build_baby(capsys, tmp_path, name, targets, contexts)
        assert (code, err) == (0, "") and "2 senses over 3 excerpts" in out
        built[name] = lexicon.read_bytes()
        code, out, err = run(capsys, "parse", "--lexicon", str(lexicon), "Baby vomit.")
        assert (code, err) == (0, "")
        assert out.endswith("root S = (4, 2)  ratio = 0.6667\n")
    assert built["written"] == built["clean"]


@pytest.mark.parametrize("option, text, line, message", [
    ("--contexts", "milk\n--\n", 2, "expected one word per line"),
    ("--contexts", "…\ngoal\n", 1, "expected one word per line"),
    ("--targets", "baby e\n-- et\n", 2, "expected 'word kind' per line"),
    # the shape is checked before the kind
    ("--targets", "\"\" eet\n", 1, "expected 'word kind' per line"),
    ("--contexts", "milk\nMilk,\n", 2, "'milk' repeats line 1"),
    ("--targets", "# t\nbaby e\nvomit et\nBaby. e\n", 4, "'baby e' repeats line 2"),
], ids=["dashes-context", "ellipsis-context", "dashes-target", "quotes-before-kind",
        "repeated-context", "repeated-target"])
def test_lexicon_build_refuses_a_listed_word_that_is_no_token_or_repeats(
    capsys, tmp_path, option, text, line, message
):
    files = build_inputs(tmp_path)
    files[option].write_text(text, encoding="utf-8")
    argv = [str(x) for opt, path in files.items() for x in (opt, path)]
    code, out, err = run(capsys, "lexicon", "build", *argv)
    assert (code, out) == (2, "")
    assert err == f"dsvs: {files[option]}:{line}: {message}\n"
    assert not files["--out"].exists()


def test_non_utf8_lexicon_exits_two(capsys, tmp_path):
    path = tmp_path / "bad.lexicon"
    path.write_bytes(NOT_UTF8)
    code, out, err = run(capsys, "parse", "--lexicon", str(path), "babies")
    assert (code, out) == (2, "")
    assert err.startswith("dsvs: ") and err.count("\n") == 1 and str(path) in err


def test_lexicon_build_refuses_a_non_utf8_corpus_file(capsys, tmp_path):
    files = build_inputs(tmp_path)
    bad = files["--corpus"] / "text.txt"
    bad.write_bytes(NOT_UTF8)
    build_refused(capsys, files, bad)
    assert not files["--out"].exists()


@pytest.mark.parametrize("option", ["--contexts", "--targets"])
@pytest.mark.parametrize("kind", ["directory", "not UTF-8"])
def test_lexicon_build_refuses_an_unreadable_word_list(capsys, tmp_path, option, kind):
    files = build_inputs(tmp_path)
    if kind == "directory":
        files[option] = tmp_path / "a_directory"
        files[option].mkdir()
    else:
        files[option].write_bytes(NOT_UTF8)
    build_refused(capsys, files, files[option])
    assert not files["--out"].exists()


def test_lexicon_build_refuses_a_directory_as_out(capsys, tmp_path):
    files = build_inputs(tmp_path)
    files["--out"].mkdir()
    build_refused(capsys, files, files["--out"])


@pytest.mark.parametrize("role, name", [("entity", ["W"]), ("sentence", {"S": 1})])
def test_a_map_name_that_is_not_a_string_exits_two(capsys, tmp_path, role, name):
    doc = json.loads(Path(BASE).read_text(encoding="utf-8"))
    doc["map"][role] = name
    path = tmp_path / "map.lexicon"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "parse", "--lexicon", str(path), "Babies vomit.")
    assert (code, out) == (2, "")
    assert err.startswith("dsvs: ") and err.count("\n") == 1 and "'map'" in err


ARGVS = [
    ["parse", "--lexicon", BASE, "babies vomit"],
    ["parse", "--lexicon", TRACES, "--trace", "--format", "json", "mary likes"],
    ["disambiguate", "--lexicon", SPLIT, "--strategy", "unit", "footballers dribble"],
    ["expect", "--lexicon", SPLIT, "--after", "footballers", "--candidates", "dribble"],
    ["frobnicate"],
]


def test_main_builds_its_argument_parser_once_per_process(capsys, monkeypatch):
    built = []  # every ArgumentParser made, sub-command parsers included
    real = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    dsvs.cli._build_argparser.cache_clear()
    try:
        run(capsys, *ARGVS[0])
        once = list(built)
        for argv in ARGVS * 2:
            run(capsys, *argv)
    finally:
        dsvs.cli._build_argparser.cache_clear()  # drop the counting parser
    assert once and built == once


@pytest.mark.parametrize("first", [
    ["parse", "--trace", "--format", "json", "--strategy", "direct_sum"],
    ["parse", "--trace", "--strategy", "unit"],
    ["disambiguate", "--strategy", "unit"],
    ["parse", "--format", "json"],
    ["disambiguate", "--strategy", "direct_sum"],
])
@pytest.mark.parametrize("then", [
    ["parse", "--lexicon", BASE, "babies"],
    ["disambiguate", "--lexicon", SPLIT, "footballers dribble"],
    ["expect", "--lexicon", BASE, "--after", "babies", "--candidates", "vomit,score"],
    ["parse", "babies"],  # no lexicon: none carries over from the first call
    ["parse", "--lexicon", BASE, "--format", "json", "--trace", "babies vomit"],
    ["parse", "--lexicon", BASE, "--strategy", "direct_sum", "babies"],
    ["parse", "--lexicon", TRACES, "--trace", "mary who likes"],
    ["parse", "--lexicon", BASE, "control babies"],  # DeadEnd
    ["parse", "--lexicon", BASE, "babies sing"],  # LexiconMiss
    ["parse", "--lexicon", "/no/such/file", "babies"],
])
def test_a_call_carries_nothing_over_to_the_next(capsys, monkeypatch, first, then):
    monkeypatch.delenv("DSVS_LEXICON", raising=False)
    dsvs.cli._build_argparser.cache_clear()
    alone = run(capsys, *then)
    assert run(capsys, *first[:1], "--lexicon", BASE, *first[1:], "babies")[0] == 0
    assert run(capsys, *then) == alone


# ---------------------------------------------------------------------------
# the dsvs/1 JSON writer

_TRICKY = '"\\/\x00\x08\t\n\x1f\x7f\u2028\u2029é⊤⟨e,t⟩漢😀'
_texts = st.text(st.one_of(st.sampled_from(_TRICKY), st.characters()), max_size=8)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**63, -2**63 - 1, 2**64, -2**100, 10**30]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, 1e308, -1e308, 0.1, 1e16]),
    _texts,
)
_documents = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(st.integers(), min_size=1, max_size=4),  # a row of counts
        st.dictionaries(_texts, inner, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=300)
@given(_documents)
def test_json_writer_matches_json_dumps(doc):
    assert _json_text(doc) == json.dumps(doc, ensure_ascii=False, indent=2)


@pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf")])
def test_json_writer_spells_non_finite_floats_as_json_does(x):
    for doc in (x, [x], {"x": [1, x]}):
        try:
            got = _json_text(doc)
        except ValueError:
            continue  # refusing is allowed; printing nan or inf is not
        assert got == json.dumps(doc, ensure_ascii=False, indent=2)


@pytest.mark.parametrize("lexicon, words", [
    (BASE, "babies vomit"),
    (BASE, "footballers who score control"),
    (SPLIT, "footballers dribble"),
    (TRACES, "Mary, who sleeps, snores."),
    (TRACES, ""),
], ids=["paper_s4", "paper_s4-prefix", "split_senses", "traces", "traces-empty"])
@pytest.mark.parametrize("strategy", ["unit", "sum", "direct_sum"])
@pytest.mark.parametrize("trace", [(), ("--trace",)], ids=["plain", "trace"])
def test_parse_json_is_what_json_dumps_writes(capsys, lexicon, words, strategy, trace):
    code, out, err = run(capsys, "parse", "--lexicon", lexicon, "--format", "json",
                         "--strategy", strategy, *trace, words)
    assert code == 0 and err == ""
    assert out == json.dumps(json.loads(out), ensure_ascii=False, indent=2) + "\n"


@pytest.mark.parametrize("lexicon, words", [
    (BASE, "babies who vomit"),
    (SPLIT, "footballers dribble"),
    (TRACES, "Mary, who sleeps, snores."),
], ids=["paper_s4", "split_senses", "traces"])
def test_a_dsvs_process_prints_json_as_json_dumps_does(lexicon, words):
    # the text goes through the process's own stdout encoding
    env = {**os.environ, "PYTHONPATH": str(Path(dsvs.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "dsvs.cli", "parse", "--lexicon", lexicon,
         "--format", "json", "--trace", words],
        capture_output=True, env=env,
    )
    assert proc.returncode == 0 and proc.stderr == b""
    out = proc.stdout.decode("utf-8")
    assert out == json.dumps(json.loads(out), ensure_ascii=False, indent=2) + "\n"


# ---------------------------------------------------------------------------
# the lexicon file, read on every call


def test_every_call_reads_the_lexicon_file_again(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("DSVS_LEXICON", raising=False)
    text = Path(BASE).read_text(encoding="utf-8")
    changed = text.replace("[34, 10, 0, 0]", "[43, 10, 0, 0]")
    assert changed != text and len(changed) == len(text)
    fresh = tmp_path / "fresh.lexicon"
    fresh.write_text(changed, encoding="utf-8")
    want_changed = run(capsys, "parse", "--lexicon", str(fresh), "babies vomit")

    for via_env in (False, True):
        path = tmp_path / f"lexicon-{via_env}.lexicon"

        def call(*argv):
            if via_env:
                monkeypatch.setenv("DSVS_LEXICON", str(path))
                return run(capsys, *argv)
            return run(capsys, argv[0], "--lexicon", str(path), *argv[1:])

        path.write_text(text, encoding="utf-8")
        first = call("parse", "babies vomit")
        assert first[0] == 0 and "root S = (430, 98)" in first[1]
        assert call("parse", "babies vomit") == first

        # same length, same mtime, other bytes: the new lexicon's output
        st_ = path.stat()
        path.write_text(changed, encoding="utf-8")
        os.utime(path, ns=(st_.st_atime_ns, st_.st_mtime_ns))
        assert path.stat().st_mtime_ns == st_.st_mtime_ns
        assert call("parse", "babies vomit") == want_changed != first

        # a malformed file fails the same way on every call
        path.write_text(text[:-2], encoding="utf-8")
        failed = [call("parse", "babies vomit") for _ in range(3)]
        assert failed[0][0] == 2 and failed[0][1] == ""
        assert failed[0][2].startswith("dsvs: ") and failed[0][2].count("\n") == 1
        assert failed == [failed[0]] * 3

        # restored, it loads again; deleted, it is missed
        path.write_text(text, encoding="utf-8")
        assert call("parse", "babies vomit") == first
        path.unlink()
        gone = call("parse", "babies vomit")
        assert gone[0] == 2 and "cannot read lexicon" in gone[2]
        monkeypatch.delenv("DSVS_LEXICON", raising=False)


def _first_sense(**fields):
    """An edit of the lexicon document that sets (or, for None, drops)
    fields of its first sense."""
    def edit(doc):
        for key, value in fields.items():
            if value is None:
                del doc["senses"][0][key]
            else:
                doc["senses"][0][key] = value
    return edit


def _set(key, value):
    return lambda doc: doc.__setitem__(key, value)


@pytest.mark.parametrize("edit, message", [
    (_set("senses", [1]), "senses[0]: expected an object"),
    (_set("senses", {"baby#n": {}}), "'senses' must be an array"),
    (_first_sense(id=7), "senses[0]: id, word and type must be strings"),
    (_first_sense(word=["baby"]), "senses[0]: id, word and type must be strings"),
    (_first_sense(type=["e"]), "senses[0]: id, word and type must be strings"),
    (_first_sense(gloss=3), "senses[0] (baby#n): gloss must be a string"),
    (_first_sense(forms="babies"), "senses[0] (baby#n): forms must be a list of strings"),
    (_first_sense(forms=["babies", 2]), "senses[0] (baby#n): forms must be a list of strings"),
    (_first_sense(tensor=None), "senses[0] (baby#n): missing required field 'tensor'"),
    (_set("spaces", {}), "'spaces' must be a non-empty object"),
    (_set("spaces", [["W", ["infant"]]]), "'spaces' must be a non-empty object"),
    (lambda doc: doc["spaces"].__setitem__("W", "infant"),
     "space 'W': basis must be a list of strings"),
    (_set("map", ["W", "S"]), "'map' must be an object"),
    # the space map is checked before any sense's tensor is read
    (lambda doc: doc["spaces"].__setitem__("S", ["⊤", "⊥", "x"]),
     "sentence space 'S' must have exactly 2 basis labels (evidence for, against), got 3"),
], ids=["sense-not-object", "senses-not-array", "id-not-string", "word-not-string",
        "type-not-string", "gloss-not-string", "forms-not-list", "forms-not-strings",
        "tensor-missing", "spaces-empty", "spaces-not-object", "basis-not-list",
        "map-not-object", "three-label-sentence-space"])
def test_a_malformed_lexicon_document_exits_two_naming_the_fault(capsys, tmp_path, edit, message):
    doc = json.loads(Path(BASE).read_text(encoding="utf-8"))
    edit(doc)
    path = tmp_path / "bad.lexicon"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "parse", "--lexicon", str(path), "babies vomit")
    assert (code, out) == (2, "")
    assert err.startswith("dsvs: ") and err.count("\n") == 1 and message in err


SHARED_SPACE = {
    "format": "dsvs-lexicon/1",
    "spaces": {"S": ["y", "n"]},
    "map": {"entity": "S", "sentence": "S"},
    "senses": [
        {"id": "bob#n", "word": "bob", "type": "e", "tensor": [9, 1]},
        {"id": "ann#n", "word": "ann", "type": "e", "tensor": [1, 1]},
        {"id": "runs#v", "word": "runs", "type": "et", "tensor": [[1, 0], [2, 7]]},
        {"id": "sees#v", "word": "sees", "type": "eet",
         "tensor": [[[1, 2], [3, 1]], [[0, 5], [2, 2]]]},
    ],
}


@pytest.mark.parametrize("words", ["", "bob sees"])
def test_one_space_mapped_as_entity_and_sentence_exits_two(capsys, tmp_path, words):
    # e and t would denote one signature, and their stand-ins would merge
    # nouns with verb saturations: scores that bench/exact.py does not give
    path = tmp_path / "shared.lexicon"
    path.write_text(json.dumps(SHARED_SPACE), encoding="utf-8")
    code, out, err = run(capsys, "parse", "--lexicon", str(path), words)
    assert (code, out) == (2, "")
    assert err == "dsvs: entity and sentence spaces must have different names, both are 'S'\n"


@pytest.mark.parametrize("text", ["[]", '"lexicon"', "null"])
def test_a_lexicon_that_is_not_an_object_exits_two(capsys, tmp_path, text):
    path = tmp_path / "bad.lexicon"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "parse", "--lexicon", str(path), "babies")
    assert (code, out) == (2, "")
    assert err == f"dsvs: {path}: top level must be an object\n"


def test_a_lexicon_nested_too_deeply_to_decode_exits_two(capsys, tmp_path):
    doc = json.loads(Path(BASE).read_text(encoding="utf-8"))
    doc["senses"][0]["tensor"] = "deep"
    path = tmp_path / "deep.lexicon"
    deep = "[" * 100_000 + "1" + "]" * 100_000
    path.write_text(json.dumps(doc).replace('"deep"', deep), encoding="utf-8")
    code, out, err = run(capsys, "parse", "--lexicon", str(path), "babies vomit")
    assert (code, out, err) == (2, "", f"dsvs: {path}: nested too deeply to decode\n")


def test_a_tensor_nested_deeper_than_the_entry_walk_goes_exits_two(capsys, monkeypatch):
    # json decodes 1,200 levels on Python 3.12 and 9,000 on 3.13, past the
    # walk's 1,000 frames; a decoder that returns the document stands in
    doc = json.loads(Path(BASE).read_text(encoding="utf-8"))
    deep = 1
    for _ in range(5_000):
        deep = [deep]
    doc["senses"][0]["tensor"] = deep
    monkeypatch.setattr(dsvs.lexicon.json, "loads", lambda text: doc)
    code, out, err = run(capsys, "parse", "--lexicon", BASE, "babies vomit")
    assert (code, out) == (2, "")
    assert err.startswith(f"dsvs: sense {doc['senses'][0]['id']!r}: bad tensor: ")
    assert err.count("\n") == 1


def test_a_repeated_basis_label_is_named_with_the_file(capsys, tmp_path):
    doc = json.loads(Path(BASE).read_text(encoding="utf-8"))
    doc["spaces"]["S"] = ["⊤", "⊤"]
    path = tmp_path / "twice.lexicon"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "disambiguate", "--lexicon", str(path), "babies vomit")
    assert (code, out) == (2, "")
    assert err == f"dsvs: {path}: space 'S' has duplicate basis labels\n"
    with pytest.raises(dsvs.ValidationError):
        load_lexicon(path)


def test_lexicon_build_refuses_two_words_on_a_contexts_line(capsys, tmp_path):
    code, out, err, built = build_from(capsys, tmp_path, "baby e\n", "milk\n# x\nmilk cry\n")
    assert (code, out) == (2, "")
    assert err == f"dsvs: {tmp_path / 'contexts.txt'}:3: expected one word per line\n"
    assert not built.exists()


@pytest.mark.parametrize("line", ["baby", "baby e et"])
def test_lexicon_build_refuses_a_targets_line_without_two_fields(capsys, tmp_path, line):
    code, out, err, built = build_from(capsys, tmp_path, f"cry e\n{line}\n", "milk\n")
    assert (code, out) == (2, "")
    assert err == f"dsvs: {tmp_path / 'targets.txt'}:2: expected 'word kind' per line\n"
    assert not built.exists()


def test_lexicon_build_counts_a_single_corpus_file(capsys, tmp_path):
    files = build_inputs(tmp_path)
    (files["--corpus"] / "text.txt").write_text(CORPUS, encoding="utf-8")
    files["--targets"].write_text("infant e\ndribble et\n", encoding="utf-8")
    files["--contexts"].write_text("infant\nnappy\npitch\ngoal\n", encoding="utf-8")
    built = {}
    for corpus in (files["--corpus"], files["--corpus"] / "text.txt"):
        files["--corpus"] = corpus
        argv = [str(x) for option, path in files.items() for x in (option, path)]
        code, out, err = run(capsys, "lexicon", "build", *argv)
        assert (code, err) == (0, "") and "2 senses over 4 excerpts" in out
        built[corpus.name] = files["--out"].read_bytes()
    assert built["corpus"] == built["text.txt"]


def test_a_sense_that_lists_a_surface_twice_is_tried_once(capsys, tmp_path):
    doc = json.loads(Path(BASE).read_text(encoding="utf-8"))
    baby = next(sense for sense in doc["senses"] if sense["id"] == "baby#n")
    baby["forms"] = ["babies", "baby", "babies"]
    twice = tmp_path / "twice.lexicon"
    twice.write_text(json.dumps(doc), encoding="utf-8")
    # one candidate, and one entry per candidate word, as without the repeat
    for argv, lines in [(("disambiguate", "babies vomit"), 1),
                        (("expect", "--after", "", "--candidates", "babies,baby"), 2)]:
        got = run(capsys, argv[0], "--lexicon", str(twice), *argv[1:])
        assert got == run(capsys, argv[0], "--lexicon", BASE, *argv[1:])
        assert got[0] == 0 and got[1].count("baby#n") == lines
    # the file's forms are kept as written
    lexicon = load_lexicon(twice)
    assert lexicon.sense("baby#n").forms == ("babies", "baby", "babies")
    assert [s.sense_id for s in lexicon.lookup("babies")] == ["baby#n"]


@pytest.mark.parametrize("field", ["word", "forms"])
@pytest.mark.parametrize("surface", ["Baby", "ice cream", "milk,", "--"])
def test_a_surface_no_sentence_can_reach_exits_two(capsys, tmp_path, field, surface):
    doc = json.loads(Path(BASE).read_text(encoding="utf-8"))
    baby = next(sense for sense in doc["senses"] if sense["id"] == "baby#n")
    if field == "word":
        baby["word"] = surface
    else:
        baby["forms"] = ["babies", surface]
    path = tmp_path / "unreachable.lexicon"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "parse", "--lexicon", str(path), "babies vomit")
    assert code == 2 and out == ""
    assert err.startswith("dsvs: ") and err.count("\n") == 1
    assert "'baby#n'" in err and repr(surface) in err
