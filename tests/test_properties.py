"""Random sentences checked against the plain-list arithmetic in oracles.

Saturation recomputes only the mother chain of the node a word touched
and trusts every other stored formula.  The reference here is the fixed
point the whole tree must be at after every word, restated node by node:
a node with two complete daughters is complete, its formula is functor
contracted against argument, and at a proposition node every finished
adjunct in its clause is folded in entrywise.

Stand-ins are kept on the lexicon once built; LEXICONS below is shared by
every example, so its stand-ins are warm, and a freshly loaded copy gives
the cold answer to compare against.

A direct_sum root builds its components only when they are read.  The
reference for them is the eager product, restated with lists: every pair
of daughter components, functor outermost, then every finished adjunct of
the clause folded in.
"""

import gc
import weakref

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import dsvs.parser
from dsvs import (
    BOTTOM,
    STRATEGIES,
    TOP,
    DeadEnd,
    Lexicon,
    Sense,
    Signature,
    Space,
    SpaceMap,
    T,
    Tensor,
    TensorTuple,
    application_slot,
    apply_computational,
    axiom,
    canonical_view,
    compile_root,
    disambiguate,
    fixture_path,
    initial_state,
    known_inhabitants,
    load_lexicon,
    parse_sequence,
    parse_type,
    parse_word,
    plausibility,
    saturate,
    signature_of,
    underspec_tensor,
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


def _direct_sum_lists(tree, lex, i=None):
    """Every component of node i's direct_sum value, as nested lists."""
    i = tree.root if i is None else i
    n = tree.nodes[i]
    if n.is_leaf:
        if n.complete:
            return [n.formula.tolist()]
        sig = signature_of(n.sem_type, lex.space_map)
        return [t.tolist() for _, t in known_inhabitants(sig, lex)]
    pairs = [(application_slot(tree.nodes[n.functor].sem_type), 0)]
    out = [
        oracles.contract_lists(f, a, pairs)
        for f in _direct_sum_lists(tree, lex, n.functor)
        for a in _direct_sum_lists(tree, lex, n.argument)
    ]
    if n.sem_type == T:
        for j in _clause_adjuncts(tree, i):
            if _finished(tree, j):
                out = [oracles.mul_lists(v, tree.nodes[j].formula.tolist()) for v in out]
    return out


def _check_direct_sum(tree, lex):
    """The direct_sum root lists the eager product's components in its
    order, and collapses to the sum root exactly."""
    kept = compile_root(tree, lex, "direct_sum")
    parts = kept.components if isinstance(kept, TensorTuple) else [kept]
    assert [c.tolist() for c in parts] == _direct_sum_lists(tree, lex)
    collapsed = kept.collapse() if isinstance(kept, TensorTuple) else kept
    assert collapsed == compile_root(tree, lex, "sum")


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
def test_kept_trees_are_fixed_points_of_saturation(drawn):
    # apply_computational only predicts, which is sound on these trees alone
    name, words = drawn
    lex = LEXICONS[name]
    state = initial_state()
    for word in words:
        try:
            state = parse_word(state, word, lex)
        except DeadEnd:
            return
        for cand in state.candidates:
            assert saturate(cand.tree) == cand.tree
            assert apply_computational(cand.tree) == apply_computational(saturate(cand.tree))


def _check_open(tree):
    assert tree.open == tuple(not _finished(tree, i) for i in range(len(tree.nodes)))


@settings(max_examples=60, deadline=None, database=None)
@given(sentences())
def test_open_flags_match_a_whole_subtree_walk(drawn):
    name, words = drawn
    lex = LEXICONS[name]
    state = initial_state()
    trees = [axiom(), canonical_view(axiom()), *apply_computational(axiom())]
    for word in words:
        for tree in trees:
            _check_open(tree)
        try:
            state = parse_word(state, word, lex)
        except DeadEnd:
            return
        trees = [t for c in state.candidates
                 for t in (c.tree, canonical_view(c.tree), *apply_computational(c.tree))]
    for tree in trees:
        _check_open(tree)


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


@st.composite
def random_lexicons(draw):
    """A small integer lexicon and a token list over its vocabulary.

    Entity dim 2-3; one to three senses each of e, et and eet, whose
    surface words come from a shared pool so that words can be ambiguous
    across types; and who.
    """
    w = Space("W", ("x", "y", "z")[: draw(st.integers(2, 3))])
    s = Space("S", (TOP, BOTTOM))
    senses = [Sense("who#rel", "who", None, None)]
    for kind, sig in (("e", Signature((w,))), ("et", Signature((w, s))),
                      ("eet", Signature((w, s, w)))):
        size = int(np.prod(sig.dims))
        for k in range(draw(st.integers(1, 3))):
            entries = draw(st.lists(st.integers(0, 5), min_size=size, max_size=size))
            senses.append(Sense(
                f"{kind}{k}", draw(st.sampled_from("pqrs")), parse_type(kind),
                Tensor(sig, np.reshape(entries, sig.dims)),
            ))
    lex = Lexicon((w, s), SpaceMap(entity=w, sentence=s), tuple(senses))
    vocabulary = sorted({x.word for x in senses})
    return lex, draw(st.lists(st.sampled_from(vocabulary), min_size=1, max_size=6))


@settings(max_examples=80, deadline=None, database=None)
@given(random_lexicons())
def test_direct_sum_roots_match_the_eager_product_on_random_lexicons(drawn):
    lex, words = drawn
    _check_direct_sum(saturate(axiom()), lex)  # two open leaves
    state = initial_state()
    for word in words:
        try:
            state = parse_word(state, word, lex)
        except DeadEnd:
            return
        for cand in state.candidates:
            _check_direct_sum(cand.tree, lex)


@settings(max_examples=80, deadline=None, database=None)
@given(random_lexicons())
def test_closed_form_stand_ins_equal_the_enumerated_inventory(drawn):
    lex, _ = drawn
    for kind in ("e", "t", "et", "eet"):
        sig = signature_of(parse_type(kind), lex.space_map)
        listed = [t.tolist() for _, t in known_inhabitants(sig, lex)]
        want = listed[0]
        for entries in listed[1:]:
            want = oracles.add_lists(want, entries)
        summed = underspec_tensor(sig, "sum", lex)
        kept = underspec_tensor(sig, "direct_sum", lex)
        assert summed.tolist() == want
        assert [t.tolist() for t in kept.components] == listed
        assert kept.collapse() == summed


def test_direct_sum_scores_with_the_contractions_of_sum(monkeypatch):
    lex = load_lexicon(fixture_path("traces"))
    prefixes = [[], ["mary"], ["mary", "who"], ["mary", "likes"],
                ["mary", "who", "likes"], ["john", "likes"], ["mary", "who", "sleeps"]]
    trees = [c.tree for words in prefixes for c in parse_sequence(words, lex).candidates]
    trees.append(saturate(axiom()))  # two open leaves: a product of two tuples
    for tree in trees:  # warm the stand-ins
        for strategy in ("sum", "direct_sum"):
            compile_root(tree, lex, strategy)

    calls = []
    real = dsvs.parser.contract

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(dsvs.parser, "contract", counting)

    def contractions(fn):
        before = len(calls)
        result = fn()
        return result, len(calls) - before

    widest = 0
    for tree in trees:
        summed, via_sum = contractions(lambda: plausibility(compile_root(tree, lex, "sum")))
        kept, via_parts = contractions(lambda: compile_root(tree, lex, "direct_sum"))
        score, scoring = contractions(lambda: plausibility(kept))
        assert via_parts == via_sum and scoring == 0
        assert score == summed
        if isinstance(kept, TensorTuple):
            width, counting_them = contractions(lambda: len(kept.components))
            assert counting_them == 0 and width == len(kept)
            widest = max(widest, width)
        _check_direct_sum(tree, lex)
    assert widest == 8
