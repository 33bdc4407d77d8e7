"""Random sentences checked against the plain-list arithmetic in oracles.

Saturation values a tree in one bottom-up pass.  The reference here is the
fixed point that pass must reach, restated node by node: a node with two
complete daughters is complete, its formula is functor contracted against
argument, and at a proposition node every finished adjunct in its clause
is folded in entrywise.

Stand-ins are kept on the lexicon once built; LEXICONS below is shared by
every example, so its stand-ins are warm, and a freshly loaded copy gives
the cold answer to compare against.
"""

import gc
import weakref

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dsvs import (
    STRATEGIES,
    DeadEnd,
    T,
    TensorTuple,
    application_slot,
    compile_root,
    disambiguate,
    fixture_path,
    initial_state,
    load_lexicon,
    parse_sequence,
    parse_word,
)

LEXICONS = {name: load_lexicon(fixture_path(name)) for name in ("traces", "split_senses")}


def _surfaces(lex, kind):
    """Surface forms of the senses of one compact type; None for link."""
    return sorted({
        w
        for s in lex.senses
        if (s.sem_type.compact() if s.sem_type is not None else None) == kind
        for w in (s.word,) + s.forms
    })


@st.composite
def sentences(draw):
    """A lexicon name and a token list: either any tokens from its
    vocabulary, or a prefix of a sentence with nested relative clauses."""
    name = draw(st.sampled_from(sorted(LEXICONS)))
    lex = LEXICONS[name]
    word = {k: st.sampled_from(_surfaces(lex, k)) for k in ("e", "et", "eet", None)}

    def noun_phrase(depth):
        words = [draw(word["e"])]
        if depth and draw(st.booleans()):
            words += [draw(word[None])] + verb_phrase(depth - 1)
        return words

    def verb_phrase(depth):
        if draw(st.booleans()):
            return [draw(word["et"])]
        return [draw(word["eet"])] + noun_phrase(depth)

    if draw(st.booleans()):
        vocabulary = sorted({w for s in lex.senses for w in (s.word,) + s.forms})
        return name, draw(st.lists(st.sampled_from(vocabulary), min_size=1, max_size=7))
    words = noun_phrase(2) + verb_phrase(2)
    return name, words[: draw(st.integers(1, len(words)))]


def _finished(tree, i):
    """No requirement anywhere under node i, adjuncts included."""
    n = tree.nodes[i]
    return not n.requirement and all(
        _finished(tree, c) for c in (n.argument, n.functor, n.link) if c is not None
    )


def _clause_adjuncts(tree, i):
    """Adjunct roots hanging in the application subtree of node i."""
    n = tree.nodes[i]
    found = [n.link] if n.link is not None else []
    for c in (n.argument, n.functor):
        if c is not None:
            found += _clause_adjuncts(tree, c)
    return found


def _check_saturated(tree):
    for i, n in enumerate(tree.nodes):
        if n.is_leaf:
            continue
        a, f = tree.nodes[n.argument], tree.nodes[n.functor]
        if not (a.complete and f.complete):
            assert n.requirement and n.formula is None
            continue
        assert n.complete
        want = oracles.contract_lists(
            f.formula.tolist(), a.formula.tolist(), [(application_slot(f.sem_type), 0)]
        )
        if n.sem_type == T:
            for j in _clause_adjuncts(tree, i):
                if _finished(tree, j):
                    want = oracles.mul_lists(want, tree.nodes[j].formula.tolist())
        assert n.formula.tolist() == want


@settings(max_examples=60, deadline=None, database=None)
@given(sentences())
def test_every_candidate_is_saturated_and_strategies_agree(drawn):
    name, words = drawn
    lex = LEXICONS[name]
    state = initial_state()
    for word in words:
        try:
            state = parse_word(state, word, lex)
        except DeadEnd:
            return
        for cand in state.candidates:
            _check_saturated(cand.tree)
            kept = compile_root(cand.tree, lex, "direct_sum")
            if isinstance(kept, TensorTuple):
                kept = kept.collapse()
            assert kept == compile_root(cand.tree, lex, "sum")


@settings(max_examples=60, deadline=None, database=None)
@given(sentences())
def test_warm_stand_ins_give_the_same_roots_as_cold_ones(drawn):
    name, words = drawn
    lex = LEXICONS[name]
    state = initial_state()
    for word in words:
        try:
            state = parse_word(state, word, lex)
        except DeadEnd:
            return
        for cand in state.candidates:
            for strategy in STRATEGIES:
                cold = load_lexicon(fixture_path(name))
                assert compile_root(cand.tree, lex, strategy) == compile_root(
                    cand.tree, cold, strategy
                )


def test_a_scored_lexicon_is_freed_without_the_cycle_collector():
    gc.disable()
    try:
        lex = load_lexicon(fixture_path("traces"))
        state = parse_sequence(["mary", "who", "likes"], lex)
        for strategy in STRATEGIES:
            disambiguate(state, lex, strategy)
        assert lex.stand_ins
        freed = weakref.ref(lex)
        del lex
        assert freed() is None
    finally:
        gc.enable()
