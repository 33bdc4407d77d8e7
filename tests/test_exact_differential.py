"""Whole parses checked against the benchmark's exact reference parser.

bench/exact.py is a second parser over plain Python ints with its own
growth rules: it grows tree shapes that record which word filled each
leaf, tries each sense at every reachable pointer position breadth first,
and computes roots and stand-ins from the shape.  dsvs.parser tries each
sense at one site and keeps int64 tensors.  Both read the same lexicon
document here, saved from a random lexicon, and parse a whole sentence
with nested relative clauses.  After every word they must agree on the
candidates' senses in order, on which trees are finished, on every
finished root exactly, on the disambiguate(sum) ranking and on the
expect(sum) entries for a few drawn words.

With entries up to 10**6 the roots pass 2**63 and the program's int64
arithmetic wraps silently, so that case is expected to fail until roots
are exact or refused (ROADMAP item 1).
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from dsvs import DeadEnd, disambiguate, expect, initial_state, load_lexicon, parse_word
from dsvs.lexicon import save_lexicon
from test_properties import relative_sentences

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def exact():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        import exact

        yield exact


@st.composite
def cases(draw, high):
    """A relative_sentences lexicon and sentence, with entries 0 to high,
    and a few of the lexicon's words to ask expect about."""
    lex, sentence = draw(relative_sentences(high))
    vocabulary = sorted({s.word for s in lex.senses})
    return lex, sentence, draw(st.lists(st.sampled_from(vocabulary), min_size=1, max_size=3))


def _score(s):
    return None if s is None else (s.top, s.bottom)


def _check_parse(exact, lexicon, sentence, probes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "drawn.lexicon"
        save_lexicon(lexicon, path)
        lex = load_lexicon(path)
        ref = exact.Parser(json.loads(path.read_text(encoding="utf-8")))
    state, cands = initial_state(), ref.initial()
    for word in sentence:
        try:
            state = parse_word(state, word, lex)
        except DeadEnd:
            with pytest.raises(ValueError):
                ref.parse_word(cands, word)
            return
        cands = ref.parse_word(cands, word)

        assert [c.senses for c in state.candidates] == [c.senses for c in cands]
        assert [c.tree.is_complete() for c in state.candidates] == [
            c.shape.finished() for c in cands]
        for got, want in zip(state.candidates, cands):
            if want.shape.finished():
                assert got.tree.nodes[got.tree.root].formula.tolist() == ref.root(want)

        ranked = disambiguate(state, lex, "sum")
        assert [(c.senses, _score(s)) for c, s in ranked] == [
            (senses, s[:2]) for senses, s in exact.ranked(ref.disambiguate(cands))]
        entries = expect(state, probes, lex, "sum")
        assert [(e.word, e.sense_id, _score(e.score)) for e in entries] == [
            (w, sid, None if s is None else s[:2])
            for w, sid, s in exact.expect_entries(ref.expect(cands, probes))]


@settings(max_examples=100, deadline=None, database=None)
@given(cases(high=5))
def test_parses_match_the_exact_reference(exact, drawn):
    _check_parse(exact, *drawn)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: int64 roots wrap silently past 2**63")
# hypothesis's report of a failing example imports libcst, which warns
@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict:DeprecationWarning")
@settings(max_examples=40, deadline=None, database=None, derandomize=True,
          phases=[Phase.generate])
@given(cases(high=10**6))
def test_parses_with_large_entries_match_the_exact_reference(exact, drawn):
    _check_parse(exact, *drawn)
