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

A proposition node also keeps its product, which saturation refolds
instead of contracting the node again when its daughters did not change.
On random lexicons, along walks whose relative clauses nest and reopen,
every stored product must equal the contraction of the daughters'
formulae, and every internal formula the value recomputed from the leaf
formulae alone.

Saturation folds a clause's adjuncts by walking its functor spine, which
is sound only on the shape the growth rules build: every argument daughter
is an entity leaf, every functor daughter has a function type, and only
entity nodes carry an adjunct.  Every tree grown on the fixtures' live
prefixes and on the random walks is checked for that shape.

A parse tries each sense at one site: a link sense where the pointer
rests, any other at canonical_view's open slot.  On the same prefixes and
walks, pointer travel reaches at most one requirement leaf, that slot, and
the one try gives the successor that trying the sense at every reachable
position in travel order, first hit taken, gives.

A parse grows each candidate once per sense type and hands every further
sense of the type a copy with its own tensor.  On the same prefixes and
walks, that gives, sense by sense, the candidates and open flags that
growing each sense alone gives (oracles.advance_alone).

A direct_sum root builds its components only when they are read.  The
reference for them is the eager product, restated with lists: every pair
of daughter components, functor outermost, then every finished adjunct of
the clause folded in.

The contraction kernel lays each contraction out once per signature pair
and applies the layout itself, leaving out a transpose that moves no slot;
the reference for it is numpy's tensordot, bit for bit, on operands built
by Tensor and on stacks, whose arrays are read-only transposed views.

Tensor entries given as nested lists are checked in one flat pass; the
reference is the recursive walk it replaced.  On regular and ragged
nestings of ints around the int64 edges, floats and booleans, the two
refuse alike, and Tensor builds or refuses alike with either.

A type's tensors are built together at load (tensors_of); the reference
is Tensor, row by row: each row of a batch has the value and dtype Tensor
gives it, and a batch with a bad row raises what Tensor raises for the
first.  Random lexicon documents, int, float and mixed, load to the
tensors their senses give one by one; with one or two corrupted senses,
the load names the first in the file, with the message of the per-sense
path.  sum_tensors adds its operands one by one, int64 and float alike;
the reference is numpy's add, left to right, and the sum stand-ins of
those documents are that sum, bit for bit, of their parts (exact on
integer lexicons).

Corpus splitting and counting are checked against line-by-line and
excerpt-by-excerpt loops over plain token lists, empty arguments included.
"""

import copy
import gc
import json
import tempfile
import warnings
import weakref
from math import inf, nan, prod
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
import dsvs.interpret
import dsvs.parser
import dsvs.tensor
from dsvs import (
    DeadEnd,
    DuplicateSlot,
    EmptyCorpus,
    NoInhabitants,
    NonFiniteEntry,
    SlotOutOfRange,
    SpaceMismatch,
    ValidationError,
    compile_root,
    disambiguate,
    expect,
    fixture_path,
    initial_state,
    load_lexicon,
    parse_sequence,
    parse_word,
    plausibility,
)
from dsvs.interpret import STRATEGIES, known_inhabitants, underspec_tensor
from dsvs.lexicon import (
    BOTTOM,
    TOP,
    CorpusExcerpt,
    Lexicon,
    Sense,
    build_cooccurrence,
    build_verb_matrix,
    parse_excerpts,
    tokenize,
)
from dsvs.parser import (
    Candidate,
    ParseState,
    apply_computational,
    apply_lexical,
    axiom,
    canonical_view,
    saturate,
)
from dsvs.semtypes import E, SpaceMap, T, application_slot, parse_type, signature_of
from dsvs.tensor import (
    Batch,
    Signature,
    Space,
    Tensor,
    TensorTuple,
    contract,
    mu,
    stack,
    sum_tensors,
    tensors_of,
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
def random_lexicons(draw, high=5):
    """A small integer lexicon and a token list over its vocabulary.

    Entity dim 2-3; one to three senses each of e, et and eet, with entries
    0 to high, whose surface words come from a shared pool so that words
    can be ambiguous across types; and who.
    """
    w = Space("W", ("x", "y", "z")[: draw(st.integers(2, 3))])
    s = Space("S", (TOP, BOTTOM))
    senses = [Sense("who#rel", "who", None, None)]
    for kind, sig in (("e", Signature((w,))), ("et", Signature((w, s))),
                      ("eet", Signature((w, s, w)))):
        size = int(np.prod(sig.dims))
        for k in range(draw(st.integers(1, 3))):
            entries = draw(st.lists(st.integers(0, high), min_size=size, max_size=size))
            senses.append(Sense(
                f"{kind}{k}", draw(st.sampled_from("pqrs")), parse_type(kind),
                Tensor(sig, np.reshape(entries, sig.dims)),
            ))
    lex = Lexicon(SpaceMap(entity=w, sentence=s), tuple(senses))
    vocabulary = sorted({x.word for x in senses})
    return lex, draw(st.lists(st.sampled_from(vocabulary), min_size=1, max_size=6))


@st.composite
def relative_sentences(draw, high=5):
    """A random lexicon as random_lexicons draws it, and a whole sentence
    over it whose relative clauses nest: a who after a clause's finished
    object opens a clause inside it, which reopens it."""
    lex, _ = draw(random_lexicons(high))
    word = {
        kind: st.sampled_from(sorted({s.word for s in lex.senses
                                      if s.sem_type is not None
                                      and s.sem_type.compact() == kind}))
        for kind in ("e", "et", "eet")
    }

    def noun_phrase(depth):
        words = [draw(word["e"])]
        if depth and draw(st.booleans()):
            words += ["who"] + verb_phrase(depth - 1)
        return words

    def verb_phrase(depth):
        if draw(st.booleans()):
            return [draw(word["et"])]
        return [draw(word["eet"])] + noun_phrase(depth)

    return lex, noun_phrase(1) + verb_phrase(4)


@st.composite
def relative_clause_walks(draw):
    """A random lexicon and a prefix of a sentence over it, both as
    relative_sentences draws them."""
    lex, words = draw(relative_sentences())
    return lex, words[: draw(st.integers(1, len(words)))]


def _from_leaves(tree, i):
    """Node i's value from the leaf formulae alone, as nested lists; None
    while its application subtree has an unmet leaf."""
    n = tree.nodes[i]
    if n.is_leaf:
        return None if n.formula is None else n.formula.tolist()
    f, a = _from_leaves(tree, n.functor), _from_leaves(tree, n.argument)
    if f is None or a is None:
        return None
    v = oracles.contract_lists(f, a, [(application_slot(tree.nodes[n.functor].sem_type), 0)])
    if n.sem_type == T:
        for j in _clause_adjuncts(tree, i):
            if _finished(tree, j):
                v = oracles.mul_lists(v, _from_leaves(tree, j))
    return v


@settings(max_examples=80, deadline=None, database=None)
@given(relative_clause_walks())
def test_stored_products_are_never_stale(drawn):
    lex, words = drawn
    state = initial_state()
    for word in words:
        try:
            state = parse_word(state, word, lex)
        except DeadEnd:
            return
        for cand in state.candidates:
            tree = cand.tree
            for i, n in enumerate(tree.nodes):
                if n.is_leaf:
                    continue
                assert (None if n.formula is None else n.formula.tolist()) == _from_leaves(tree, i)
                if n.sem_type != T or n.formula is None:
                    assert n.product is None
                    continue
                f, a = tree.nodes[n.functor], tree.nodes[n.argument]
                assert n.product == contract(
                    f.formula, a.formula, [(application_slot(f.sem_type), 0)]
                )


def _check_spine(tree):
    """Every clause is a functor spine with entity leaves hanging off it,
    and only entity nodes carry an adjunct."""
    for n in tree.nodes:
        assert (n.argument is None) == (n.functor is None)
        if not n.is_leaf:
            a, f = tree.nodes[n.argument], tree.nodes[n.functor]
            assert a.sem_type == E and a.is_leaf
            assert f.sem_type.is_function
        if n.link is not None:
            assert n.sem_type == E


def _check_grown_spines(state, lex):
    """The shape of every candidate tree of a state, and of every tree one
    more sense grows from it at any reachable position."""
    for cand in state.candidates:
        _check_spine(cand.tree)
        for variant in apply_computational(cand.tree):
            for sense in lex.senses:
                grown = apply_lexical(variant, sense)
                if grown is not None:
                    _check_spine(grown)
                    _check_spine(saturate(grown))


@pytest.mark.parametrize("name", ["traces", "paper_s4", "split_senses"])
def test_every_grown_tree_is_a_functor_spine_with_entity_leaves(name):
    lex = load_lexicon(fixture_path(name))
    vocabulary = sorted({w for s in lex.senses for w in (s.word,) + s.forms})
    states = [initial_state()]
    for _ in range(4):  # every live prefix of up to four words
        nxt = []
        for state in states:
            _check_grown_spines(state, lex)
            for word in vocabulary:
                try:
                    nxt.append(parse_word(state, word, lex))
                except DeadEnd:
                    continue
        states = nxt
    for state in states:
        _check_grown_spines(state, lex)


@settings(max_examples=80, deadline=None, database=None)
@given(st.one_of(random_lexicons(), relative_clause_walks()))
def test_every_grown_tree_is_a_functor_spine_on_random_lexicons(drawn):
    lex, words = drawn
    state = initial_state()
    _check_grown_spines(state, lex)
    for word in words:
        try:
            state = parse_word(state, word, lex)
        except DeadEnd:
            return
        _check_grown_spines(state, lex)


def _check_one_site(state, lex):
    """Pointer travel reaches at most one requirement leaf, canonical_view's
    open slot, and the one try per sense that parse_word makes gives the
    successor that trying the sense at every reachable position in travel
    order, first hit taken, gives; a link sense hits only where the pointer
    rests."""
    for cand in state.candidates:
        variants = apply_computational(cand.tree)
        slots = [v for v in variants if v.pointed.requirement and v.pointed.is_leaf]
        assert len(slots) <= 1, cand.senses
        view = canonical_view(cand.tree)
        assert view == (slots[0] if slots else variants[0].with_pointer(view.root))
        for sense in lex.senses:
            tries = [apply_lexical(v, sense) for v in variants]
            k = next((k for k, grown in enumerate(tries) if grown is not None), None)
            got = dsvs.parser.advance_with_sense(ParseState((cand,)), sense)
            want = [] if k is None else [
                Candidate(saturate(tries[k]), cand.senses + (sense.sense_id,))]
            assert got == want, (cand.senses, sense.sense_id)
            assert not sense.is_link or k in (None, 0), (cand.senses, k)


@pytest.mark.parametrize("name", ["traces", "paper_s4", "split_senses"])
def test_each_sense_has_one_site_on_the_fixtures(name):
    lex = load_lexicon(fixture_path(name))
    vocabulary = sorted({w for s in lex.senses for w in (s.word,) + s.forms})
    states = [initial_state()]
    for _ in range(4):  # every live prefix of up to four words
        nxt = []
        for state in states:
            _check_one_site(state, lex)
            for word in vocabulary:
                try:
                    nxt.append(parse_word(state, word, lex))
                except DeadEnd:
                    continue
        states = nxt
    for state in states:
        _check_one_site(state, lex)


@settings(max_examples=80, deadline=None, database=None)
@given(st.one_of(random_lexicons(), relative_clause_walks()))
def test_each_sense_has_one_site_on_random_lexicons(drawn):
    lex, words = drawn
    state = initial_state()
    _check_one_site(state, lex)
    for word in words:
        try:
            state = parse_word(state, word, lex)
        except DeadEnd:
            return
        _check_one_site(state, lex)


def _check_senses_at_once(state, lex):
    """Trying several senses at once gives, sense by sense and in order,
    what trying each alone gives: equal candidates (trees with their
    products, sense tuples) in the same order, with equal open flags.
    The lexicon's senses are tried forwards, then backwards after a
    repeat of the last one."""
    for senses in (lex.senses, lex.senses[-1:] + lex.senses[::-1]):
        got = dsvs.parser.advance_with_senses(state, senses)
        want = [oracles.advance_alone(state, sense, dsvs.parser) for sense in senses]
        assert got == want, state.consumed
        assert [[c.tree.open for c in cands] for cands in got] == [
            [c.tree.open for c in cands] for cands in want]


@pytest.mark.parametrize("name", ["traces", "paper_s4", "split_senses"])
def test_senses_at_once_grow_what_each_sense_grows_on_the_fixtures(name):
    lex = load_lexicon(fixture_path(name))
    vocabulary = sorted({w for s in lex.senses for w in (s.word,) + s.forms})
    states = [initial_state()]
    for _ in range(4):  # every live prefix of up to four words
        nxt = []
        for state in states:
            _check_senses_at_once(state, lex)
            for word in vocabulary:
                try:
                    nxt.append(parse_word(state, word, lex))
                except DeadEnd:
                    continue
        states = nxt
    for state in states:
        _check_senses_at_once(state, lex)


@settings(max_examples=80, deadline=None, database=None)
@given(st.one_of(random_lexicons(), relative_clause_walks()))
def test_senses_at_once_grow_what_each_sense_grows_on_random_lexicons(drawn):
    lex, words = drawn
    state = initial_state()
    _check_senses_at_once(state, lex)
    for word in words:
        try:
            state = parse_word(state, word, lex)
        except DeadEnd:
            return
        _check_senses_at_once(state, lex)


@settings(max_examples=80, deadline=None, database=None)
@given(st.one_of(random_lexicons(), relative_clause_walks()), st.data())
def test_expect_values_stacked_senses_as_each_sense_alone_on_random_lexicons(drawn, data):
    # random lexicons are integer, so expect values each type group stacked;
    # the candidates name every word of every type, some twice, and a
    # word no sense has, in a drawn order
    lex, words = drawn
    assert lex.integer
    vocabulary = sorted({s.word for s in lex.senses})
    repeats = data.draw(st.lists(st.sampled_from(vocabulary), max_size=4))
    candidates = data.draw(st.permutations(vocabulary + repeats + ["zebra"]))
    state = initial_state()
    for word in [None, *words]:
        if word is not None:
            try:
                state = parse_word(state, word, lex)
            except DeadEnd:
                return
        for strategy in STRATEGIES:
            want = oracles.expect_per_sense(state, candidates, lex, strategy,
                                            dsvs.parser, dsvs.interpret)
            assert repr(expect(state, candidates, lex, strategy)) == repr(want), state.consumed


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


# ---------------------------------------------------------------------------
# the contraction kernel

# two spaces of one dim, so a mismatched pair has matching shapes
KERNEL_SPACES = (
    Space("P", ("p1", "p2")),
    Space("Q", ("q1", "q2")),
    Space("R", ("r1", "r2", "r3")),
    Space("U", ("u1",)),
)
# the slot stack puts two tensors on, equal to the one stack builds
KERNEL_BATCH = Batch("batch", ("0", "1"))
DTYPES = st.sampled_from([np.int64, np.float64])


@st.composite
def kernel_tensors(draw, spaces, dtype=DTYPES):
    """A tensor over spaces; one whose last space is KERNEL_BATCH is a
    stack, holding a read-only transposed view that is not C-contiguous
    when another slot has more than one label."""
    dtype = draw(dtype)
    if spaces and spaces[-1] == KERNEL_BATCH:
        return stack([draw(kernel_tensors(spaces[:-1], st.just(dtype))) for _ in range(2)])
    sig = Signature(tuple(spaces))
    entries = (st.integers(-10**6, 10**6) if dtype == np.int64
               else st.floats(-1e6, 1e6, allow_nan=False))
    # every entry drawn on its own, not mostly one fill value, so a slot
    # read in another order gives other entries
    return Tensor(sig, draw(hnp.arrays(dtype, sig.dims, elements=entries, fill=st.nothing())))


@st.composite
def contractions(draw, dtype=DTYPES):
    """Two tensors of rank 0 to 3 and a valid pair list: any, none (the
    outer product) or every slot of both (contraction to a scalar).  A
    slot may be a stack's batch slot, so an operand may be a stack, whose
    array is a transposed view: a plan that leaves out an identity
    transpose then reads an array that is not C-contiguous."""
    shape = draw(st.sampled_from(["any", "outer", "full"]))
    spaces = st.sampled_from(KERNEL_SPACES + (KERNEL_BATCH,))
    a_spaces = draw(st.lists(spaces, max_size=3))
    if shape == "outer" or not a_spaces:
        paired = []
    elif shape == "full":
        paired = draw(st.permutations(range(len(a_spaces))))
    else:
        paired = draw(st.lists(st.sampled_from(range(len(a_spaces))), unique=True))
    extra = [] if shape == "full" else draw(st.lists(spaces, max_size=3 - len(paired)))
    b_spaces = [a_spaces[i] for i in paired] + extra
    order = draw(st.permutations(range(len(b_spaces))))
    pairs = [(i, order.index(n)) for n, i in enumerate(paired)]
    a = draw(kernel_tensors(a_spaces, dtype))
    b = draw(kernel_tensors([b_spaces[k] for k in order], dtype))
    return a, b, pairs


@settings(max_examples=300, deadline=None, database=None)
@given(contractions())
def test_contract_equals_tensordot_bit_for_bit(drawn):
    a, b, pairs = drawn
    want = np.tensordot(a.array, b.array, axes=([i for i, _ in pairs], [j for _, j in pairs]))
    for _ in range(2):  # planned, then from the plan cache
        got = contract(a, b, pairs)
        assert type(got.array) is np.ndarray and got.array.dtype == want.dtype
        assert got.array.shape == want.shape == got.signature.dims
        assert got.array.tobytes() == want.tobytes()
        assert not got.array.flags.writeable
        with pytest.raises(ValueError):
            got.array[...] = 0


@settings(max_examples=200, deadline=None, database=None)
@given(st.data())
def test_an_invalid_pair_list_is_refused_alike_every_time(data):
    spaces = st.lists(st.sampled_from(KERNEL_SPACES), min_size=1, max_size=3)
    a = data.draw(kernel_tensors(data.draw(spaces)))
    b = data.draw(kernel_tensors(data.draw(spaces)))
    slot = st.integers(-1, 3)
    pairs = data.draw(st.lists(st.tuples(slot, slot), max_size=3))
    valid = (
        all(0 <= i < a.rank and 0 <= j < b.rank for i, j in pairs)
        and len({i for i, _ in pairs}) == len({j for _, j in pairs}) == len(pairs)
        and all(a.signature[i] == b.signature[j] for i, j in pairs)
    )
    outcomes = []
    for _ in range(2):
        try:
            outcomes.append(contract(a, b, pairs))
        except (SlotOutOfRange, DuplicateSlot, SpaceMismatch) as e:
            outcomes.append((type(e), str(e)))
    assert isinstance(outcomes[0], Tensor) == valid
    assert outcomes[1] == outcomes[0]


@settings(max_examples=100, deadline=None, database=None)
@given(contractions(dtype=st.just(np.float64)), st.sampled_from([1e200, -1e200]))
def test_a_non_finite_result_is_refused_without_a_warning(drawn, b_entry):
    a, b, pairs = drawn
    a = Tensor(a.signature, np.full(a.signature.dims, 1e200))
    b = Tensor(b.signature, np.full(b.signature.dims, b_entry))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(2):
            with pytest.raises(NonFiniteEntry):
                contract(a, b, pairs)
            with pytest.raises(NonFiniteEntry):
                mu(b, b)


def _left_to_right(arrays):
    total = arrays[0]
    for a in arrays[1:]:
        total = np.add(total, a)
    return total


@settings(max_examples=200, deadline=None, database=None)
@given(st.data())
def test_sum_tensors_gives_the_bits_of_adding_left_to_right(data):
    """Operands are added one by one, left to right, int64 and float
    alike, so an int64 sum wraps as numpy's add wraps it."""
    spaces = data.draw(st.lists(st.sampled_from(KERNEL_SPACES), max_size=3))
    wide = hnp.arrays(np.int64, Signature(tuple(spaces)).dims).map(
        lambda a: Tensor(Signature(tuple(spaces)), a))
    tensors = data.draw(st.lists(st.one_of(kernel_tensors(spaces), wide), min_size=1, max_size=10))
    want = np.asarray(_left_to_right([t.array for t in tensors]))
    got = sum_tensors(tensors)
    assert got.signature == tensors[0].signature
    assert got.array.dtype == want.dtype and got.array.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# tensor entries


INT64_EDGES = [2**63 - 1, 2**63, 2**63 + 1, -2**63, -2**63 - 1, 2**64 - 1, 2**64, -2**64]
ENTRY_KINDS = {
    "small ints": st.integers(-9, 9),
    "ints": st.one_of(st.integers(-9, 9), st.integers(-2**65, 2**65),
                      st.sampled_from(INT64_EDGES)),
    "floats": st.floats(),  # NaN and infinities too, which _freeze refuses
    "any": st.one_of(st.integers(-2**65, 2**65), st.sampled_from(INT64_EDGES),
                     st.floats(), st.booleans(), st.booleans().map(np.bool_)),
}
ENTRY_SPACES = {d: Space(f"D{d}", tuple(f"x{k}" for k in range(d))) for d in (1, 2, 3)}


def _list_or_tuple(elements, size=None):
    lists = st.lists(elements, min_size=size or 0, max_size=4 if size is None else size)
    return st.one_of(lists, lists.map(tuple))


@st.composite
def entry_lists(draw):
    """Nested lists and tuples of entries with a signature to build them
    over: regular ones of that signature's shape, which numpy can build,
    and ragged ones, of any depth and with empty lists."""
    entries = ENTRY_KINDS[draw(st.sampled_from(sorted(ENTRY_KINDS)))]
    if draw(st.booleans()):
        dims = draw(st.lists(st.sampled_from(sorted(ENTRY_SPACES)), min_size=1, max_size=3))
        values = entries
        for d in reversed(dims):
            values = _list_or_tuple(values, d)
        return draw(values), Signature(tuple(ENTRY_SPACES[d] for d in dims))
    values = draw(_list_or_tuple(st.recursive(entries, _list_or_tuple, max_leaves=12)))
    return values, Signature((ENTRY_SPACES[2],))


def _outcome(build, values):
    """None, the array built (dtype and bytes) or the exception raised
    (type and message)."""
    try:
        made = build(values)
    except Exception as e:
        return type(e), str(e)
    return None if made is None else (made.array.dtype.str, made.array.tobytes())


@settings(max_examples=400, deadline=None, database=None)
@given(entry_lists())
def test_tensor_entries_are_refused_as_the_recursive_walk_refused_them(drawn):
    values, sig = drawn
    want = _outcome(oracles.check_entries_walk, values)
    assert _outcome(dsvs.tensor._check_entries, values) == want
    got = _outcome(lambda v: Tensor(sig, v), values)
    with mock.patch.object(dsvs.tensor, "_check_entries", oracles.check_entries_walk):
        assert _outcome(lambda v: Tensor(sig, v), values) == got
    if want is not None:
        assert got == want


@settings(max_examples=400, deadline=None, database=None)
@given(entry_lists())
def test_tensors_from_lists_are_those_numpy_builds_after_the_walk(drawn):
    values, sig = drawn

    def walked(v):
        oracles.check_entries_walk(v)
        return Tensor(sig, np.array(v))

    assert _outcome(lambda v: Tensor(sig, v), values) == _outcome(walked, values)


@st.composite
def entry_rows(draw):
    """Rows of entries for one signature, as tensors_of takes them: rows of
    its shape, each of one or two entry kinds, and now and then a ragged
    nesting among them."""
    dims = draw(st.lists(st.sampled_from(sorted(ENTRY_SPACES)), min_size=1, max_size=3))
    kinds = [st.integers(0, 9), st.floats(0, 9), *ENTRY_KINDS.values()]
    shaped = []
    for entries in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=2)):
        for d in reversed(dims):
            entries = _list_or_tuple(entries, d)
        shaped.append(entries)
    rows = draw(st.lists(st.one_of(shaped), max_size=5))
    if not draw(st.integers(0, 3)):
        ragged = draw(_list_or_tuple(st.recursive(st.integers(0, 9), _list_or_tuple, max_leaves=12)))
        rows.insert(draw(st.integers(0, len(rows))), ragged)
    return rows, Signature(tuple(ENTRY_SPACES[d] for d in dims))


@settings(max_examples=300, deadline=None, database=None)
@given(entry_rows())
def test_tensors_of_builds_each_row_as_tensor_builds_it(drawn):
    rows, sig = drawn
    want = [_outcome(lambda v: Tensor(sig, v), row) for row in rows]
    refused = [outcome for outcome in want if isinstance(outcome[0], type)]
    try:
        made = tensors_of(sig, rows)
    except Exception as e:
        assert refused and (type(e), str(e)) == refused[0]
        return
    assert not refused
    assert [(t.array.dtype.str, t.array.tobytes()) for t in made] == want
    for t in made:
        assert t.signature == sig and t.array.shape == sig.dims
        assert not t.array.flags.writeable


# ---------------------------------------------------------------------------
# loading lexicon files

LOAD_TYPES = ("e", "t", "et", "eet")


def _nest(flat, dims):
    """A flat list of entries nested outermost-first to dims."""
    for d in reversed(dims[1:]):
        flat = [flat[i:i + d] for i in range(0, len(flat), d)]
    return flat


@st.composite
def lexicon_documents(draw, labels=st.integers(1, 4)):
    """A lexicon document: an entity space of 1 to 4 labels, up to ten
    senses each of e, t, et and eet and a link sense, in a drawn order.
    Each type's entries are all ints, all floats, or mixed: then each
    sense is ints, floats, or both.  numpy sums eight or more floats
    along an axis pairwise, so ten senses of a type can tell a reduction
    from adding left to right."""
    smap = SpaceMap(entity=Space("W", tuple(f"w{k}" for k in range(draw(labels)))),
                    sentence=Space("S", (TOP, BOTTOM)))
    ints, floats = st.integers(0, 10**6), st.floats(0, 1e6)
    kinds = {"int": [ints], "float": [floats], "mixed": [ints, floats, st.one_of(ints, floats)]}
    senses = [{"id": "who#rel", "word": "who", "type": "link"}]
    for name in LOAD_TYPES:
        dims = signature_of(parse_type(name), smap).dims
        entries = kinds[draw(st.sampled_from(sorted(kinds)))]
        for k in range(draw(st.integers(0, 10))):
            flat = draw(st.lists(draw(st.sampled_from(entries)), min_size=prod(dims),
                                 max_size=prod(dims)))
            senses.append({"id": f"{name}{k}", "word": f"{name}{k}", "type": name,
                           "tensor": _nest(flat, dims)})
    return {"format": "dsvs-lexicon/1",
            "spaces": {sp.name: list(sp.basis) for sp in smap},
            "map": {"entity": "W", "sentence": "S"},
            "senses": draw(st.permutations(senses))}


def _load(doc):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "drawn.lexicon"
        path.write_text(json.dumps(doc), encoding="utf-8")  # NaN and Infinity too
        return load_lexicon(path)


@settings(max_examples=150, deadline=None, database=None)
@given(lexicon_documents())
def test_a_loaded_lexicon_equals_one_built_sense_by_sense(doc):
    lex = _load(doc)
    assert [s.sense_id for s in lex.senses] == [o["id"] for o in doc["senses"]]
    for s, o in zip(lex.senses, doc["senses"]):
        if o["type"] == "link":
            assert s.tensor is None
            continue
        want = Tensor(signature_of(parse_type(o["type"]), lex.space_map), o["tensor"])
        assert s.tensor.signature == want.signature
        assert s.tensor.array.dtype == want.array.dtype
        assert s.tensor.array.tobytes() == want.array.tobytes()
    for ty in lex.types:
        assert lex.senses_of(ty) == tuple(s for s in lex.senses if s.sem_type is ty)


def _corrupt(data, entries, how):
    """A copy of nested entries with one fault of the kind named."""
    entries = copy.deepcopy(entries)
    row = entries  # the innermost list holding the entry chosen
    while isinstance(row[0], list):
        row = row[data.draw(st.integers(0, len(row) - 1))]
    k = data.draw(st.integers(0, len(row) - 1))
    if how == "boolean":
        row[k] = data.draw(st.booleans())
    elif how == "int64":
        row[k] = data.draw(st.sampled_from([2**63, 2**64, -2**63 - 1]))
    elif how == "non-finite":
        row[k] = data.draw(st.sampled_from([inf, -inf, nan]))
    elif how == "ragged":
        if row is not entries and data.draw(st.booleans()):
            row.append(row[k])  # one row longer than the others
        else:
            row[k] = [row[k]]  # a list where an entry belongs
    elif data.draw(st.booleans()):  # the wrong shape: one entry more at the top
        entries.append(entries[0])
    else:  # or one fewer
        entries.pop()
    return entries


@settings(max_examples=200, deadline=None, database=None)
@given(lexicon_documents(), st.data())
def test_a_bad_tensor_is_named_as_the_per_sense_path_names_it(doc, data):
    typed = [k for k, o in enumerate(doc["senses"]) if o["type"] != "link"]
    assume(typed)
    # one bad sense, or two of different types
    bad = data.draw(st.lists(st.sampled_from(typed), min_size=1, max_size=2,
                             unique_by=lambda k: doc["senses"][k]["type"]))
    faults = ["boolean", "int64", "non-finite", "ragged", "shape"]
    for k in bad:
        sense = doc["senses"][k]
        sense["tensor"] = _corrupt(data, sense["tensor"], data.draw(st.sampled_from(faults)))
    smap = SpaceMap(entity=Space("W", tuple(doc["spaces"]["W"])), sentence=Space("S", (TOP, BOTTOM)))
    want = None
    for o in doc["senses"]:  # the per-sense path: the first bad sense in the file
        if o["type"] != "link" and want is None:
            try:
                Tensor(signature_of(parse_type(o["type"]), smap), o["tensor"])
            except (TypeError, ValueError) as e:
                want = f"sense {o['id']!r}: bad tensor: {e}"
    assert want is not None and doc["senses"][min(bad)]["id"] in want
    with pytest.raises(ValidationError) as err:
        _load(doc)
    assert str(err.value) == want


@settings(max_examples=200, deadline=None, database=None)
@given(lexicon_documents(labels=st.sampled_from([1, 1, 2, 4])))
def test_sum_stand_ins_keep_their_summation_order(doc):
    """The sum stand-in of a float lexicon is, bit for bit, its direct
    tensors and the contraction of the summed functions against the
    summed entities, each sum added left to right in declaration order;
    on an integer lexicon it is the enumerated inventory's exact sum.
    A reduction of one-entry tensors, as a one-label entity space makes
    them, rounds otherwise, so such spaces are drawn often."""
    lex = _load(doc)
    tensors = [s for s in lex.senses if s.tensor is not None]
    entities = [s for s in tensors if s.sem_type is E]
    for name in LOAD_TYPES:
        sig = signature_of(parse_type(name), lex.space_map)
        direct = [s for s in tensors if s.tensor.signature == sig]
        functions = [s for s in tensors if s.sem_type.is_function
                     and signature_of(s.sem_type.res, lex.space_map) == sig]
        pairs = [(f, a) for f in functions for a in entities]
        labels = [s.sense_id for s in direct] + [f"{f.sense_id}+{a.sense_id}" for f, a in pairs]
        assert [label for label, _ in known_inhabitants(sig, lex)] == labels
        if not labels:
            with pytest.raises(NoInhabitants):
                underspec_tensor(sig, "sum", lex)
            continue
        parts = [s.tensor.array for s in direct]
        if pairs:
            slot = application_slot(functions[0].sem_type)
            parts.append(np.tensordot(_left_to_right([f.tensor.array for f in functions]),
                                      _left_to_right([a.tensor.array for a in entities]),
                                      axes=([slot], [0])))
        want = np.asarray(_left_to_right(parts))
        got = underspec_tensor(sig, "sum", lex)
        assert got.array.dtype == want.dtype and got.array.tobytes() == want.tobytes()
        if lex.integer:
            exact = [s.tensor.tolist() for s in direct] + [
                oracles.contract_lists(f.tensor.tolist(), a.tensor.tolist(),
                                       [(application_slot(f.sem_type), 0)]) for f, a in pairs]
            total = exact[0]
            for entries in exact[1:]:
                total = oracles.add_lists(total, entries)
            assert got.tolist() == total


# ---------------------------------------------------------------------------
# corpus splitting and counting


CORPUS_WORDS = ["infant", "nappy", "goal", "dribble", "score"]


def corpora():
    """Lists of excerpts, possibly none, each a non-empty token list."""
    words = st.sampled_from(CORPUS_WORDS + ["milk", "net"])
    return st.lists(st.lists(words, min_size=1, max_size=8), max_size=10)


def word_lists():
    return st.lists(st.sampled_from(CORPUS_WORDS + ["absent"]), unique=True, max_size=4)


def _excerpts(token_lists):
    return [CorpusExcerpt(str(k), tokens) for k, tokens in enumerate(token_lists)]


@settings(max_examples=300, deadline=None, database=None)
@given(st.text(st.sampled_from("ab C.,!-' \t\n\r\x0b\x0c\x85\u2028\u3000"), max_size=60))
def test_excerpt_splitting_matches_the_line_loop(text):
    got = parse_excerpts(text, source="s")
    want = oracles.split_excerpts(text, tokenize)
    assert [e.excerpt_id for e in got] == [f"s:{k}" for k in range(len(want))]
    assert [list(e.tokens) for e in got] == want


@settings(max_examples=300, deadline=None, database=None)
@given(corpora(), word_lists(), word_lists())
def test_cooccurrence_matches_the_excerpt_loop(token_lists, targets, contexts):
    if not token_lists:
        with pytest.raises(EmptyCorpus):
            build_cooccurrence([], targets, contexts)
    elif not targets or not contexts:
        with pytest.raises(ValueError, match="at least one basis label"):
            build_cooccurrence(_excerpts(token_lists), targets, contexts)
    else:
        got = build_cooccurrence(_excerpts(token_lists), targets, contexts)
        assert got.array.dtype == np.int64
        assert got.tolist() == oracles.cooccurrence_lists(token_lists, targets, contexts)


@settings(max_examples=300, deadline=None, database=None)
@given(corpora(), st.sampled_from(CORPUS_WORDS + ["absent"]), word_lists())
def test_verb_matrix_matches_the_excerpt_loop(token_lists, verb, properties):
    if not token_lists:
        with pytest.raises(EmptyCorpus):
            build_verb_matrix([], verb, properties)
    elif not properties:
        with pytest.raises(ValueError, match="at least one basis label"):
            build_verb_matrix(_excerpts(token_lists), verb, properties)
    else:
        got = build_verb_matrix(_excerpts(token_lists), verb, properties)
        assert got.array.dtype == np.int64
        assert got.tolist() == oracles.verb_matrix_lists(token_lists, verb, properties)
