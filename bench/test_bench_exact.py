"""Tests of the benchmark's exact reference and its input generator.

Plain Python only, like exact.py itself: the expected values come from the
fixture files and from loops written out here, never from dsvs.
"""

import json
from pathlib import Path

import pytest

import exact
import generate

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "dsvs" / "fixtures"


def fixture(name):
    return json.loads((FIXTURES / f"{name}.lexicon").read_text(encoding="utf-8"))


def parse(doc, sentence):
    p = exact.Parser(doc)
    cands = p.initial()
    for word in sentence.split():
        cands = p.parse_word(cands, word)
    return p, cands


def add(a, b):
    if isinstance(a, list):
        return [add(x, y) for x, y in zip(a, b)]
    return a + b


def tensor(doc, sense_id):
    return next(s["tensor"] for s in doc["senses"] if s["id"] == sense_id)


@pytest.mark.parametrize("sentence, want", [
    ("babies vomit", [430, 98]),
    ("babies score", [34, 318]),
    ("footballers dribble", [986, 526]),
])
def test_paper_s4_intransitive_roots(sentence, want):
    p, cands = parse(fixture("paper_s4"), sentence)
    assert len(cands) == 1 and cands[0].shape.finished()
    assert p.root(cands[0]) == want


def test_transitive_root_is_the_double_sum():
    doc = fixture("paper_s4")
    p, cands = parse(doc, "footballers control ball")
    subj, cube, obj = (tensor(doc, s) for s in ("footballer#n", "control#v", "ball#n"))
    want = [
        sum(subj[i] * cube[i][s][j] * obj[j] for i in range(4) for j in range(4))
        for s in range(2)
    ]
    assert p.root(cands[0]) == want


def test_relative_clause_multiplies_into_its_host_clause():
    doc = fixture("traces")
    p, cands = parse(doc, "mary likes john who sleeps")
    mary, like, john, sleep = (
        tensor(doc, s) for s in ("mary#n", "like#v", "john#n", "sleep#v"))
    main = [sum(mary[i] * like[i][s][j] * john[j] for i in range(2) for j in range(2))
            for s in range(2)]
    rel = [sum(john[i] * sleep[i][s] for i in range(2)) for s in range(2)]
    assert p.root(cands[0]) == [main[0] * rel[0], main[1] * rel[1]]


def test_unfinished_relative_clause_does_not_count():
    doc = fixture("traces")
    p, done = parse(doc, "mary likes john")
    _, open_rel = parse(doc, "mary likes john who")
    assert not open_rel[0].shape.finished()
    assert p.root(open_rel[0]) == p.root(done[0])


def test_closed_form_standins_equal_the_enumerated_inventory():
    doc = fixture("paper_s4")
    lex = exact.Lexicon(doc)
    senses = doc["senses"]
    entities = [s["tensor"] for s in senses if s["type"] == "e"]
    for target in ("t", "et"):
        found = [s["tensor"] for s in senses if s["type"] == target]
        for f in senses:
            if f["type"] == "e" + target:
                found += [exact.apply(f["type"], f["tensor"], a) for a in entities]
        total = found[0]
        for t in found[1:]:
            total = add(total, t)
        assert lex.standin[target] == total


def test_prefix_scores_use_the_standin():
    doc = fixture("paper_s4")
    p, cands = parse(doc, "babies")
    baby = tensor(doc, "baby#n")
    standin = exact.Lexicon(doc).standin["et"]
    want = [sum(baby[i] * standin[i][s] for i in range(4)) for s in range(2)]
    assert p.root(cands[0]) == want


def test_ambiguous_words_fork_sense_major():
    _, cands = parse(fixture("split_senses"), "footballers dribble")
    assert [(c.senses[-1], c.shape.finished()) for c in cands] == [
        ("dribble#drip", True), ("dribble#control", False)]


def test_dead_continuations_sort_last_and_ties_keep_order():
    raw = [("a", "a#1", None), ("b", "b#1", [[1, 1]]), ("c", "c#1", [[3, 1], [1, 3]]),
           ("d", "d#1", [[2, 2]])]
    got = exact.expect_entries(raw)
    assert [e[0] for e in got] == ["c", "b", "d", "a"]
    assert got[0][2] == (3, 1, 0.75)


def test_wrap64_matches_twos_complement():
    assert exact.wrap64(2**63 - 1) == 2**63 - 1
    assert exact.wrap64(2**63) == -(2**63)
    assert exact.wrap64(-1) == -1
    assert exact.wrap64(2**64 + 5) == 5


def test_scores_of_wrapped_roots():
    top, bottom, ratio = exact.score([2**63, 1], wrap=True)
    assert (top, bottom) == (-(2**63), 1)
    assert ratio == top / (top + bottom)


@pytest.mark.parametrize("name", generate.WORKLOADS)
def test_generator_is_a_function_of_the_seed(name):
    a, b, c = generate.workload(name, 7), generate.workload(name, 7), generate.workload(name, 8)
    for key in a.lexicons:
        assert generate.lexicon_bytes(a.lexicons[key]) == generate.lexicon_bytes(b.lexicons[key])
        assert generate.lexicon_bytes(a.lexicons[key]) != generate.lexicon_bytes(c.lexicons[key])
    assert a.round(3) == b.round(3)
    assert a.round(0) != a.round(1)


@pytest.mark.parametrize("name", ["relchain", "relchain-long", "prefix", "ambig"])
def test_generated_sentences_parse_in_the_reference(name):
    w = generate.workload(name, 0)
    p = exact.Parser(w.lexicons["main"])
    for item in w.round(0):
        words = item if name.startswith("relchain") else item[0]
        cands = p.initial()
        for word in words:
            cands = p.parse_word(cands, word)
        if name != "prefix":
            assert all(c.shape.finished() for c in cands)


def _chain_roots(name: str, seed: int) -> dict[int, int]:
    """Largest |root entry| of each finished prefix of a round's longest chain."""
    w = generate.workload(name, seed)
    p = exact.Parser(w.lexicons["main"])
    cands = p.initial()
    biggest = {}
    for k, word in enumerate(w.round(0)[-1], start=1):
        cands = p.parse_word(cands, word)
        if k % 3 == 0:
            biggest[k] = max(abs(x) for x in p.root(cands[0]))
    return biggest


def test_relchain_long_roots_overflow_int64():
    biggest = _chain_roots("relchain-long", 0)
    assert biggest[15] < 2**63
    assert biggest[75] >= 2**63


@pytest.mark.parametrize("seed", range(8))
def test_relchain_roots_stay_inside_int64(seed):
    assert max(_chain_roots("relchain", seed).values()) < 2**60


def test_ambig_candidate_counts():
    w = generate.workload("ambig", 0)
    p = exact.Parser(w.lexicons["main"])
    counts = []
    for sentence, _, _ in w.round(0):
        cands = p.initial()
        for word in sentence:
            cands = p.parse_word(cands, word)
        counts.append(len(cands))
    assert counts == [16, 24, 48, 72]
