"""The records a parse and its ranking build: immutable, equal by their fields."""

import pytest

from dsvs import disambiguate, expect, parse_sequence

SENTENCES = [
    ("traces", "mary likes john who sleeps"),
    ("traces", "mary who likes john snores"),
    ("split", "footballers dribble"),
]


def lexicon_named(name, traces_lex, split_lex):
    return {"traces": traces_lex, "split": split_lex}[name]


@pytest.mark.parametrize("lexname, sentence", SENTENCES)
def test_records_refuse_field_assignment(lexname, sentence, traces_lex, split_lex):
    lex = lexicon_named(lexname, traces_lex, split_lex)
    state = parse_sequence(sentence.split(), lex)
    cand, score = disambiguate(state, lex)[0]
    entry = expect(state, ["who", "john"], lex)[0]
    node = cand.tree.nodes[cand.tree.root]
    for record, name in [
        (node, "formula"), (node, "product"), (cand.tree, "pointer"),
        (cand, "senses"), (state, "candidates"), (score, "ratio"),
        (entry, "score"), (lex.space_map, "entity"),
    ]:
        kept = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        assert getattr(record, name) is kept


@pytest.mark.parametrize("lexname, sentence", SENTENCES)
def test_parsing_twice_gives_equal_candidates_with_equal_hashes(
    lexname, sentence, traces_lex, split_lex
):
    lex = lexicon_named(lexname, traces_lex, split_lex)
    first = parse_sequence(sentence.split(), lex)
    second = parse_sequence(sentence.split(), lex)
    assert first is not second and first == second
    for a, b in zip(first.candidates, second.candidates, strict=True):
        assert a.tree.nodes is not b.tree.nodes
        assert a == b and hash(a) == hash(b)
        assert [n.product for n in a.tree.nodes] == [n.product for n in b.tree.nodes]
    products = [n.product for c in first.candidates for n in c.tree.nodes]
    assert any(p is not None for p in products)
    assert disambiguate(first, lex) == disambiguate(second, lex)
