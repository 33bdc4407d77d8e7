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

A direct_sum root builds its components only when they are read.  The
reference for them is the eager product, restated with lists: every pair
of daughter components, functor outermost, then every finished adjunct of
the clause folded in.

The contraction kernel lays each contraction out once per signature pair
and applies the layout itself; the reference for it is numpy's tensordot,
bit for bit.

Corpus splitting and counting are checked against line-by-line and
excerpt-by-excerpt loops over plain token lists, empty arguments included.
"""

import gc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
import dsvs.parser
from dsvs import (
    BOTTOM,
    STRATEGIES,
    TOP,
    Candidate,
    CorpusExcerpt,
    DeadEnd,
    DuplicateSlot,
    E,
    EmptyCorpus,
    Lexicon,
    NonFiniteEntry,
    ParseState,
    Sense,
    Signature,
    SlotOutOfRange,
    Space,
    SpaceMap,
    SpaceMismatch,
    T,
    Tensor,
    TensorTuple,
    application_slot,
    apply_computational,
    apply_lexical,
    axiom,
    build_cooccurrence,
    build_verb_matrix,
    canonical_view,
    compile_root,
    contract,
    disambiguate,
    fixture_path,
    initial_state,
    known_inhabitants,
    load_lexicon,
    mu,
    parse_excerpts,
    parse_sequence,
    parse_type,
    parse_word,
    plausibility,
    saturate,
    signature_of,
    tokenize,
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
    lex = Lexicon((w, s), SpaceMap(entity=w, sentence=s), tuple(senses))
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
DTYPES = st.sampled_from([np.int64, np.float64])


@st.composite
def kernel_tensors(draw, spaces, dtype=DTYPES):
    sig = Signature(tuple(spaces))
    dtype = draw(dtype)
    entries = (st.integers(-10**6, 10**6) if dtype == np.int64
               else st.floats(-1e6, 1e6, allow_nan=False))
    return Tensor(sig, draw(hnp.arrays(dtype, sig.dims, elements=entries)))


@st.composite
def contractions(draw, dtype=DTYPES):
    """Two tensors of rank 0 to 3 and a valid pair list: any, none (the
    outer product) or every slot of both (contraction to a scalar)."""
    shape = draw(st.sampled_from(["any", "outer", "full"]))
    spaces = st.sampled_from(KERNEL_SPACES)
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
