import gc
from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest

import oracles
from dsvs import parser as parser_module
from dsvs import (
    DeadEnd,
    LexiconMiss,
    compile_root,
    initial_state,
    parse_sequence,
    parse_word,
)
from dsvs.lexicon import Lexicon
from dsvs.parser import (
    Tree,
    apply_computational,
    apply_lexical,
    apply_link,
    axiom,
    canonical_view,
    render,
    saturate,
)
from dsvs.semtypes import E, T, fn
from dsvs.tensor import Tensor, mu

ET = fn(E, T)


def first_tree(state):
    return state.candidates[0].tree


def after(words, lex):
    return parse_sequence(words.split(), lex)


# ---------------------------------------------------------------------------
# axiom and growth without words


def test_axiom_is_one_pointed_proposition_requirement():
    t = axiom()
    assert len(t.nodes) == 1
    root = t.nodes[0]
    assert root.requirement and root.sem_type == T and root.formula is None
    assert t.pointer == 0
    assert not t.is_complete()


def test_growth_from_axiom_gives_subject_and_predicate_slots():
    variants = apply_computational(axiom())
    assert len(variants) == 1
    t = variants[0]
    assert len(t.nodes) == 3
    root = t.nodes[t.root]
    assert t.nodes[root.argument].sem_type == E
    assert t.nodes[root.functor].sem_type == ET
    # pointer waits on the subject slot
    assert t.pointer == root.argument
    assert t.nodes[t.pointer].requirement


def test_tree_with_only_unmet_requirements_comes_back_unchanged():
    t = apply_computational(axiom())[0]
    again = apply_computational(t)
    assert again == [t]


def test_saturate_is_idempotent(traces_lex):
    for words in ("mary", "mary likes", "mary likes john", "mary who sleeps"):
        t = first_tree(after(words, traces_lex))
        assert saturate(t) == saturate(saturate(t))


@pytest.mark.parametrize("sentence", [
    "mary who sleeps snores",
    "mary who likes john snores",
    "mary likes john who sleeps",
])
def test_saturation_contracts_each_internal_node_at_most_once(
    sentence, traces_lex, monkeypatch
):
    *head, last = sentence.split()
    sense = traces_lex.lookup(last)[0]
    for variant in apply_computational(first_tree(parse_sequence(head, traces_lex))):
        grown = apply_lexical(variant, sense)
        if grown is not None:
            break
    calls = []
    real = parser_module.contract

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(parser_module, "contract", counting)
    t = saturate(grown)
    assert t.is_complete()
    assert len(calls) <= sum(not n.is_leaf for n in t.nodes)


@pytest.mark.parametrize("sentence", [
    "mary who likes john snores",
    "mary likes john who sleeps",
    "john who sleeps likes mary",
])
def test_pointer_travel_contracts_nothing(sentence, traces_lex, monkeypatch):
    # parse_word keeps saturated trees, so travel has nothing to value
    calls = []
    real = parser_module.contract

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(parser_module, "contract", counting)
    state = initial_state()
    for word in sentence.split():
        state = parse_word(state, word, traces_lex)
        before = len(calls)
        for cand in state.candidates:
            apply_computational(cand.tree)
        assert len(calls) == before


@pytest.mark.parametrize("sentence", [
    "mary who likes john snores",
    "mary likes john who likes mary who sleeps",
    "john likes mary who likes john who",
])
def test_saturation_contracts_only_the_pointers_mother_chain(
    sentence, traces_lex, parser_contractions
):
    calls = parser_contractions
    state = initial_state()
    for word in sentence.split():
        sense = traces_lex.lookup(word)[0]
        for cand in state.candidates:
            for variant in apply_computational(cand.tree):
                grown = apply_lexical(variant, sense)
                if grown is not None:
                    break
            before = len(calls)
            t = saturate(grown)
            chain, i = 0, t.pointer
            while i is not None:
                chain += not t.nodes[i].is_leaf
                i = t.nodes[i].parent
            assert len(calls) - before <= chain
        state = parse_word(state, word, traces_lex)


def test_host_root_folds_an_adjunct_only_while_it_is_finished(traces_lex):
    # the last "who" opens a clause inside the finished relative clause,
    # which is then unfinished again, so the root drops its fold
    roots = []
    state = initial_state()
    for word in "john likes mary who likes john who".split():
        state = parse_word(state, word, traces_lex)
        assert len(state.candidates) == 1
        formula = first_tree(state).nodes[0].formula
        roots.append(None if formula is None else formula.tolist())
    assert roots == [None, None, [40, 32], [40, 32], [40, 32], [1600, 1024], [40, 32]]


def test_a_clause_folds_its_adjuncts_subject_first_on_floats(traces_lex):
    # float products depend on their order: the root is its product folded
    # with the subject's adjunct, then the object's, and the other order
    # gives other bits on this data, so a swapped fold cannot pass
    lex = Lexicon(traces_lex.space_map, tuple(
        s if s.tensor is None
        else replace(s, tensor=Tensor(s.tensor.signature, s.tensor.array * 1.1 + 0.3))
        for s in traces_lex.senses
    ))
    state = after("john who sleeps likes mary who snores", lex)
    assert len(state.candidates) == 1
    t = first_tree(state)
    root = t.nodes[t.root]
    subject = t.nodes[root.argument]
    obj = t.nodes[t.nodes[root.functor].argument]
    first, second = t.nodes[subject.link].formula, t.nodes[obj.link].formula
    assert root.formula.array.dtype == np.float64
    assert root.formula.array.tobytes() == mu(mu(root.product, first), second).array.tobytes()
    assert root.formula.array.tobytes() != mu(mu(root.product, second), first).array.tobytes()


def test_open_flags_are_computed_at_most_twice_per_candidate_and_sense(
    traces_lex, monkeypatch
):
    # once for the tree pointer travel starts from, once for the grown tree
    # saturate values, whatever the number of words before
    passes = []
    real = Tree.open.func

    def counting(tree):
        passes.append(len(tree.nodes))
        return real(tree)

    counted = cached_property(counting)
    counted.__set_name__(Tree, "open")
    monkeypatch.setattr(Tree, "open", counted)
    words = "john likes mary" + " who likes john who likes mary" * 5
    state = initial_state()
    for word in words.split():
        forks = len(state.candidates) * len(traces_lex.lookup(word))
        before = len(passes)
        state = parse_word(state, word, traces_lex)
        assert len(passes) - before <= 2 * forks
    assert len(state.consumed) >= 30 and max(passes) >= 50  # nodes


def test_open_flags_are_computed_at_most_once_per_candidate_and_sense(
    traces_lex, monkeypatch
):
    # the grown tree's pass only: saturate hands its flags on to the
    # saturated tree, which pointer travel starts from at the next word
    passes = []
    real = Tree.open.func

    def counting(tree):
        passes.append(len(tree.nodes))
        return real(tree)

    counted = cached_property(counting)
    counted.__set_name__(Tree, "open")
    monkeypatch.setattr(Tree, "open", counted)
    words = ("john likes mary" + " who likes john who likes mary" * 5).split()
    state = initial_state()
    for word in words:
        forks = len(state.candidates) * len(traces_lex.lookup(word))
        before = len(passes)
        state = parse_word(state, word, traces_lex)
        assert len(passes) - before <= forks
    assert len(words) == 33 and max(passes) >= 50  # nodes


def test_a_word_builds_at_most_two_trees_per_candidate_and_sense(traces_lex, monkeypatch):
    # besides the tree a word grows, a verb builds the view that moves the
    # pointer to its slot and a noun or who the saturated tree, as only
    # they value a node; who hangs its pre-grown adjunct from one copy of
    # the node list
    built = []
    real = Tree.__init__

    def counting(tree, *args, **kwargs):
        built.append(tree)
        real(tree, *args, **kwargs)

    monkeypatch.setattr(Tree, "__init__", counting)
    words = ("john likes mary" + " who likes john" * 10).split()
    state = parse_word(initial_state(), words[0], traces_lex)
    for word in words[1:]:
        forks = len(state.candidates) * len(traces_lex.lookup(word))
        before = len(built)
        state = parse_word(state, word, traces_lex)
        assert len(built) - before <= 2 * forks, word
    assert len(words) == 33 and len(state.candidates) == 1


def test_contractions_per_word_follow_the_proposition_nodes_on_the_chain(
    traces_lex, parser_contractions
):
    # every proposition node on the chain is refolded; besides them only
    # the verb phrase over a filled object is contracted again
    state = initial_state()
    for word in ("john likes mary" + " who likes john" * 10).split():
        before = len(parser_contractions)
        state = parse_word(state, word, traces_lex)
        t = first_tree(state)
        i, propositions = t.pointer, 0
        while i is not None:
            propositions += t.nodes[i].sem_type == T and not t.nodes[i].is_leaf
            i = t.nodes[i].parent
        assert len(parser_contractions) - before <= propositions + 1


@pytest.mark.parametrize("k", [9, 20])
def test_a_word_contracts_at_most_twice_at_any_depth(k, traces_lex, parser_contractions):
    # a word contracts only in the clause it touched, the verb phrase over
    # a filled object and the clause itself; every proposition above it is
    # refolded from its stored product
    words = ("john likes mary" + " who likes john" * k).split()
    assert len(words) >= 30
    state = initial_state()
    per_word = []
    for word in words:
        before = len(parser_contractions)
        state = parse_word(state, word, traces_lex)
        per_word.append(len(parser_contractions) - before)
    assert max(per_word) <= 2


@pytest.mark.parametrize("k", [9, 20])
def test_a_word_that_only_adds_a_slot_refolds_nothing_at_any_depth(k, traces_lex, monkeypatch):
    # likes grows its slot into an object requirement and a functor, which
    # changes no formula and no open flag above it, so saturation stops
    # there; any other word refolds each proposition on its chain at most
    # once (_fold hands any other node's product back as it is)
    folds, passes = [], []
    real_fold, real_open = parser_module._fold, Tree.open.func

    def counting_fold(nodes, flags, n, v):
        folds.append(n.sem_type == T)
        return real_fold(nodes, flags, n, v)

    def counting_open(tree):
        passes.append(len(tree.nodes))
        return real_open(tree)

    counted = cached_property(counting_open)
    counted.__set_name__(Tree, "open")
    monkeypatch.setattr(Tree, "open", counted)
    monkeypatch.setattr(parser_module, "_fold", counting_fold)
    words = ("john likes mary" + " who likes john" * k).split()
    assert len(words) in (30, 63)
    state = initial_state()
    for word in words:
        before = len(folds), len(passes)
        state = parse_word(state, word, traces_lex)
        made = len(folds) - before[0], len(passes) - before[1]
        if word == "likes":
            assert made == (0, 0)  # no _fold call at all, no Tree.open pass
        else:
            t = first_tree(state)
            i, propositions = t.pointer, 0
            while i is not None:
                propositions += t.nodes[i].sem_type == T and not t.nodes[i].is_leaf
                i = t.nodes[i].parent
            assert sum(folds[before[0]:]) <= propositions
    assert propositions >= k  # one clause per relative, all on the last chain


@pytest.mark.parametrize("sentence,lexname", [
    ("mary who likes john snores", "traces"),
    ("john likes mary who likes john who", "traces"),
    ("footballers dribble", "split"),
])
def test_rendering_candidates_contracts_nothing(
    sentence, lexname, traces_lex, split_lex, parser_contractions
):
    lex = {"traces": traces_lex, "split": split_lex}[lexname]
    calls = parser_contractions
    state = initial_state()
    render(canonical_view(first_tree(state)))  # the axiom
    assert calls == []
    for word in sentence.split():
        state = parse_word(state, word, lex)
        before = len(calls)
        for cand in state.candidates:
            render(canonical_view(cand.tree))
        assert len(calls) == before


def test_evaluation_leaves_no_reference_cycles(traces_lex):
    # a cycle would keep every node value alive until the collector runs
    tree = first_tree(after("mary who likes john", traces_lex))
    gc.collect()
    gc.disable()
    try:
        saturate(tree)
        compile_root(tree, traces_lex, "direct_sum")
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# lexical actions


def test_decorate_fills_a_matching_requirement(traces_lex):
    t = apply_computational(axiom())[0]
    mary = traces_lex.lookup("mary")[0]
    got = apply_lexical(t, mary)
    assert got is not None
    n = got.pointed
    assert not n.requirement and n.formula == mary.tensor
    # a verb cannot fill an entity slot
    assert apply_lexical(t, traces_lex.lookup("sleeps")[0]) is None
    assert apply_lexical(t, traces_lex.lookup("likes")[0]) is None


def test_two_place_sense_grows_an_object_slot(traces_lex):
    st = after("mary", traces_lex)
    # walk the pointer to the predicate slot, as parsing would
    variants = apply_computational(first_tree(st))
    at_vp = [v for v in variants if v.pointed.sem_type == ET][0]
    got = apply_lexical(at_vp, traces_lex.lookup("likes")[0])
    assert got is not None
    assert got.pointed.sem_type == E and got.pointed.requirement
    vp = got.nodes[got.pointed.parent]
    assert got.nodes[vp.functor].formula == traces_lex.sense("like#v").tensor


def test_reachable_positions_after_subject(traces_lex):
    st = after("mary", traces_lex)
    variants = apply_computational(first_tree(st))
    kinds = [(v.pointed.sem_type, v.pointed.requirement) for v in variants]
    # stored position (the subject) first, then its mother, then the open slot
    assert kinds == [(E, False), (T, True), (ET, True)]


def test_apply_link_structure(traces_lex):
    st = after("mary", traces_lex)
    host_tree = first_tree(st)  # pointer rests on the just-filled subject
    assert host_tree.pointed.sem_type == E
    linked = apply_link(host_tree)
    host = linked.nodes[host_tree.pointer]
    adjunct_root = linked.nodes[host.link]
    assert adjunct_root.sem_type == T and adjunct_root.requirement
    copy = linked.nodes[adjunct_root.argument]
    assert copy.formula == host.formula
    assert linked.nodes[adjunct_root.functor].sem_type == ET
    assert linked.pointer == adjunct_root.argument


@pytest.mark.parametrize("lexname", ["traces", "base", "split"])
def test_no_word_leaves_the_pointer_on_a_bare_proposition_requirement(
    lexname, traces_lex, base_lex, split_lex
):
    # adjuncts come pre-grown, so after the axiom saturation never predicts:
    # no sense at any reachable position leaves the pointer on a proposition
    # requirement without daughters, and no candidate tree holds one
    lex = {"traces": traces_lex, "base": base_lex, "split": split_lex}[lexname]
    vocabulary = sorted({w for s in lex.senses for w in (s.word,) + s.forms})

    def bare(n):
        return n.sem_type == T and n.requirement and n.is_leaf

    states, grown_by = [initial_state()], {True: 0, False: 0}
    for _ in range(4):  # every live prefix of up to four words
        nxt = []
        for state in states:
            for cand in state.candidates:
                for variant in apply_computational(cand.tree):
                    for sense in lex.senses:
                        grown = apply_lexical(variant, sense)
                        if grown is not None:
                            assert not bare(grown.pointed), (state.consumed, sense.sense_id)
                            grown_by[sense.is_link] += 1
            for word in vocabulary:
                try:
                    nxt.append(parse_word(state, word, lex))
                except DeadEnd:
                    continue
                for cand in nxt[-1].candidates:
                    assert not any(bare(n) for n in cand.tree.nodes), cand.senses
        states = nxt
    assert grown_by[True] >= 10 and grown_by[False] >= 50


def test_apply_link_rejects_bad_hosts(traces_lex):
    assert apply_link(apply_computational(axiom())[0]) is None  # requirement, no formula
    st = after("mary", traces_lex)
    linked = apply_link(first_tree(st))
    rehost = linked.with_pointer(first_tree(st).pointer)
    assert apply_link(rehost) is None  # second adjunct on the same node


# ---------------------------------------------------------------------------
# word-by-word parsing: the three snapshots


SNAPSHOT_1 = """\
?t
  e = [3, 1]
  ?⟨e,t⟩ ◊"""

SNAPSHOT_2 = """\
?t
  e = [3, 1]
  ?⟨e,t⟩
    ?e ◊
    ⟨e,⟨e,t⟩⟩ = [[[1, 2], [0, 1]], [[2, 0], [1, 3]]]"""

SNAPSHOT_3 = """\
t = [40, 32] ◊
  e = [3, 1]
  ⟨e,t⟩ = [[12, 5], [4, 17]]
    e = [2, 5]
    ⟨e,⟨e,t⟩⟩ = [[[1, 2], [0, 1]], [[2, 0], [1, 3]]]"""


def test_transitive_sentence_snapshots(traces_lex):
    st = initial_state()
    seen = []
    for w in ["mary", "likes", "john"]:
        st = parse_word(st, w, traces_lex)
        assert len(st.candidates) == 1
        seen.append(render(canonical_view(first_tree(st))))
    assert seen == [SNAPSHOT_1, SNAPSHOT_2, SNAPSHOT_3]

    # the root equals the two contractions done with plain loops
    mary = traces_lex.sense("mary#n").tensor.tolist()
    john = traces_lex.sense("john#n").tensor.tolist()
    cube = traces_lex.sense("like#v").tensor.tolist()
    want = oracles.transitive_vector(mary, cube, john)
    assert first_tree(st).nodes[0].formula.tolist() == want
    assert st.candidates[0].senses == ("mary#n", "like#v", "john#n")
    assert first_tree(st).is_complete()


def test_dead_end_when_no_candidate_survives(traces_lex):
    with pytest.raises(DeadEnd) as err:
        parse_word(initial_state(), "likes", traces_lex)
    assert err.value.position == 1 and err.value.word == "likes"
    st = after("mary likes john", traces_lex)
    with pytest.raises(DeadEnd) as err:
        parse_word(st, "john", traces_lex)
    assert err.value.position == 4


def test_unknown_word_raises_lexicon_miss(traces_lex):
    st = after("mary", traces_lex)
    with pytest.raises(LexiconMiss) as err:
        parse_word(st, "zebra", traces_lex)
    assert err.value.word == "zebra" and err.value.position == 2


def test_empty_sequence_is_the_axiom(traces_lex):
    st = parse_sequence([], traces_lex)
    assert len(st.candidates) == 1
    assert st.consumed == ()
    assert first_tree(st) == axiom()


def test_ambiguous_word_forks_candidates(split_lex):
    st = after("footballers", split_lex)
    assert len(st.candidates) == 1
    st = parse_word(st, "dribble", split_lex)
    assert len(st.candidates) == 2
    assert [c.senses[-1] for c in st.candidates] == ["dribble#drip", "dribble#control"]
    done = [c.tree.is_complete() for c in st.candidates]
    assert done == [True, False]


# ---------------------------------------------------------------------------
# adjunct clauses


RELATIVE_SNAPSHOTS = [
    """\
?t
  e = [3, 1]
  ?⟨e,t⟩ ◊""",
    """\
?t
  e = [3, 1]
    LINK: ?t
      e = [3, 1]
      ?⟨e,t⟩ ◊
  ?⟨e,t⟩""",
    """\
?t
  e = [3, 1]
    LINK: t = [14, 5]
      e = [3, 1]
      ⟨e,t⟩ = [[4, 1], [2, 2]]
  ?⟨e,t⟩ ◊""",
    """\
t = [140, 35] ◊
  e = [3, 1]
    LINK: t = [14, 5]
      e = [3, 1]
      ⟨e,t⟩ = [[4, 1], [2, 2]]
  ⟨e,t⟩ = [[3, 2], [1, 1]]""",
]


def test_relative_clause_snapshots(traces_lex):
    st = initial_state()
    seen = []
    for w in ["mary", "who", "sleeps", "snores"]:
        st = parse_word(st, w, traces_lex)
        assert len(st.candidates) == 1
        seen.append(render(canonical_view(first_tree(st))))
    assert seen == RELATIVE_SNAPSHOTS

    mary = traces_lex.sense("mary#n").tensor.tolist()
    sleep = traces_lex.sense("sleep#v").tensor.tolist()
    snore = traces_lex.sense("snore#v").tensor.tolist()
    tree = first_tree(st)
    host = tree.nodes[tree.nodes[tree.root].argument]
    adjunct_root = tree.nodes[host.link]
    assert adjunct_root.formula.tolist() == oracles.sentence_vector(mary, sleep)
    want = oracles.mul_lists(
        oracles.sentence_vector(mary, snore),
        oracles.sentence_vector(mary, sleep),
    )
    assert tree.nodes[tree.root].formula.tolist() == want
    assert tree.is_complete()


def test_relative_pronoun_needs_a_finished_entity(traces_lex):
    with pytest.raises(DeadEnd):
        parse_word(initial_state(), "who", traces_lex)


def test_adjunct_after_complete_sentence_updates_the_root(traces_lex):
    st = after("mary likes john who sleeps", traces_lex)
    tree = first_tree(st)
    assert tree.is_complete()
    mary = traces_lex.sense("mary#n").tensor.tolist()
    john = traces_lex.sense("john#n").tensor.tolist()
    cube = traces_lex.sense("like#v").tensor.tolist()
    sleep = traces_lex.sense("sleep#v").tensor.tolist()
    want = oracles.mul_lists(
        oracles.transitive_vector(mary, cube, john),
        oracles.sentence_vector(john, sleep),
    )
    assert tree.nodes[tree.root].formula.tolist() == want


# ---------------------------------------------------------------------------
# growth invariants


def _parent_of(candidate, previous):
    for old in previous.candidates:
        if candidate.senses[:-1] == old.senses:
            return old
    raise AssertionError("no parent candidate found")


@pytest.mark.parametrize("sentence,lexname", [
    ("mary likes john", "traces"),
    ("mary who sleeps snores", "traces"),
    ("babies vomit", "base"),
    ("footballers control balls", "base"),
    ("footballers dribble", "split"),
])
def test_words_only_ever_extend_trees(sentence, lexname, traces_lex, base_lex, split_lex):
    lex = {"traces": traces_lex, "base": base_lex, "split": split_lex}[lexname]
    st = initial_state()
    for w in sentence.split():
        nxt = parse_word(st, w, lex)
        for cand in nxt.candidates:
            parent = _parent_of(cand, st)
            old_t, new_t = saturate(parent.tree), cand.tree
            assert len(new_t.nodes) >= len(old_t.nodes)
            for old_node, new_node in zip(old_t.nodes, new_t.nodes):
                assert new_node.sem_type == old_node.sem_type
                if old_node.formula is not None:
                    assert new_node.formula == old_node.formula
                assert not (not old_node.requirement and new_node.requirement)
        st = nxt
