from dataclasses import replace
from functools import cached_property
from math import prod

import numpy as np
import pytest

import oracles
from dsvs import interpret as interpret_module
from dsvs import parser as parser_module
from dsvs import (
    DeadEnd,
    NoInhabitants,
    NonFiniteEntry,
    SignatureMismatch,
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
from dsvs.interpret import (
    known_inhabitants,
    require_stand_ins,
    score_candidate,
    underspec_tensor,
)
from dsvs.lexicon import BOTTOM, TOP, Lexicon, Sense
from dsvs.parser import Tree, axiom, saturate
from dsvs.semtypes import SpaceMap, parse_type, signature_of
from dsvs.tensor import (
    Signature,
    Space,
    Tensor,
    TensorTuple,
    contract,
    direct_sum,
    stack,
    unit_tensor,
)

VERBS = ["vomit#v", "score#v", "dribble#v"]
NOUNS = ["baby#n", "milk#n", "footballer#n", "ball#n"]


def one_candidate(lex, words):
    st = parse_sequence(words.split(), lex)
    assert len(st.candidates) == 1
    return st.candidates[0]


def et_sig(lex):
    return Signature((lex.space_map.entity, lex.space_map.sentence))


# ---------------------------------------------------------------------------
# the inventory of known tensors per signature


def test_inventory_for_verb_signature(base_lex):
    inv = known_inhabitants(et_sig(base_lex), base_lex)
    assert [label for label, _ in inv] == VERBS + [
        "control#v+baby#n", "control#v+milk#n",
        "control#v+footballer#n", "control#v+ball#n",
    ]
    # each saturation equals the loop-contracted cube
    cube = base_lex.sense("control#v").tensor.tolist()
    for label, tensor in inv[3:]:
        noun = base_lex.sense(label.split("+")[1]).tensor.tolist()
        assert tensor.tolist() == oracles.contract_lists(cube, noun, [(2, 0)])


def test_inventory_for_entity_signature(base_lex):
    sig = Signature((base_lex.space_map.entity,))
    inv = known_inhabitants(sig, base_lex)
    assert [label for label, _ in inv] == NOUNS


def test_inventory_for_sentence_signature(base_lex):
    sig = Signature((base_lex.space_map.sentence,))
    inv = known_inhabitants(sig, base_lex)
    assert [label for label, _ in inv] == [
        f"{v}+{n}" for v in VERBS for n in NOUNS
    ]


def test_underspec_strategies(base_lex):
    sig = et_sig(base_lex)
    assert underspec_tensor(sig, "unit", base_lex) == unit_tensor(sig)
    total = underspec_tensor(sig, "sum", base_lex)
    parts = underspec_tensor(sig, "direct_sum", base_lex)
    assert isinstance(parts, TensorTuple) and len(parts) == 7
    assert parts.collapse() == total
    want = None
    for _, tensor in known_inhabitants(sig, base_lex):
        want = tensor.tolist() if want is None else oracles.add_lists(want, tensor.tolist())
    assert total.tolist() == want
    with pytest.raises(ValueError):
        underspec_tensor(sig, "bogus", base_lex)


def test_an_unknown_strategy_is_refused_wherever_scoring_starts(base_lex):
    # refused although the finished parse needs no stand-in
    finished = parse_sequence(["babies", "vomit"], base_lex)
    prefix = parse_sequence(["babies"], base_lex)
    calls = [
        lambda: compile_root(finished.candidates[0].tree, base_lex, "bogus"),
        lambda: disambiguate(finished, base_lex, "bogus"),
        lambda: expect(finished, ["who"], base_lex, "bogus"),
        lambda: expect(prefix, [], base_lex, "bogus"),
        lambda: disambiguate(prefix, base_lex, "bogus"),
    ]
    for call in calls:
        with pytest.raises(ValueError) as refused:
            call()
        assert str(refused.value) == (
            "unknown strategy 'bogus', expected one of ('unit', 'sum', 'direct_sum')")


def test_underspec_with_no_inhabitants(base_lex):
    w = base_lex.space_map.entity
    with pytest.raises(NoInhabitants):
        underspec_tensor(Signature((w, w)), "sum", base_lex)
    # a failure is not remembered: the second call raises too
    with pytest.raises(NoInhabitants):
        underspec_tensor(Signature((w, w)), "sum", base_lex)
    # unit needs no inventory at all
    assert underspec_tensor(Signature((w, w)), "unit", base_lex).rank == 2


def test_each_stand_in_is_built_once_per_lexicon(monkeypatch):
    lex = load_lexicon(fixture_path("traces"))
    built = []

    def counting(signature, lexicon):
        built.append(signature)
        return known_inhabitants(signature, lexicon)

    monkeypatch.setattr("dsvs.interpret.known_inhabitants", counting)
    prefixes = [[], ["mary"], ["mary", "likes"], ["mary", "who"], ["mary", "who", "likes"]]
    for strategy in ("sum", "direct_sum"):
        fills = len(built)
        for words in prefixes:
            st = parse_sequence(words, lex)
            disambiguate(st, lex, strategy)
            expect(st, ["sleeps", "likes", "john", "who", "mary"], lex, strategy)
        once = built[fills:]
        assert once and len(once) == len(set(once))
        assert {k for k in lex.stand_ins if k[1] == strategy} == {(s, strategy) for s in once}


def _counted_lexicon(k):
    """k nouns, k one-place and k two-place verbs over a 3-point entity space."""
    w, s = Space("W", ("x", "y", "z")), Space("S", (TOP, BOTTOM))
    senses = [Sense("who#rel", "who", None, None)]
    for kind, sig in (("e", (w,)), ("et", (w, s)), ("eet", (w, s, w))):
        size = prod(sp.dim for sp in sig)
        for i in range(k):
            entries = [(7 * i + j) % 4 for j in range(size)]
            tensor = Tensor(Signature(sig), np.reshape(entries, [sp.dim for sp in sig]))
            senses.append(Sense(f"{kind}{i}", f"{kind}{i}", parse_type(kind), tensor))
    return Lexicon(SpaceMap(entity=w, sentence=s), tuple(senses))


def test_sum_stand_ins_cost_one_contraction_per_function_signature(monkeypatch):
    calls = []
    real = interpret_module.contract

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(interpret_module, "contract", counting)
    counts = []
    for k in (10, 100):
        lex = _counted_lexicon(k)
        before = len(calls)
        for kind in ("e", "t", "et"):
            sig = signature_of(parse_type(kind), lex.space_map)
            listed = len(calls)
            assert len(known_inhabitants(sig, lex)) > 0 and len(calls) == listed
            underspec_tensor(sig, "sum", lex)
        counts.append(len(calls) - before)
    assert counts == [2, 2]  # t from the et verbs, et from the eet verbs


@pytest.mark.parametrize("lex", [_counted_lexicon(5), load_lexicon(fixture_path("traces"))],
                         ids=["counted", "traces"])
def test_each_sense_type_is_summed_once_per_lexicon(monkeypatch, lex):
    summed = []
    real = interpret_module.sum_tensors

    def counting(tensors):
        summed.append(list(tensors))
        return real(tensors)

    monkeypatch.setattr(interpret_module, "sum_tensors", counting)
    entities = [s.tensor for s in lex.senses_of(parse_type("e"))]
    for strategy in ("sum", "direct_sum"):
        for kind in ("t", "e", "et"):
            underspec_tensor(signature_of(parse_type(kind), lex.space_map), strategy, lex)
    operands = [t for tensors in summed for t in tensors]
    # the e stand-in, the t stand-in's entities and the <e,t> stand-in's
    # entities are one sum; so are the <e,t> verbs, read by t and by <e,t>
    assert [tensors for tensors in summed if tensors[0] is entities[0]] == [entities]
    for s in lex.senses:
        if s.tensor is not None:
            assert sum(t is s.tensor for t in operands) == 1, s.sense_id


def test_functions_without_entities_have_no_inhabitants():
    w, s = Space("W", ("x", "y")), Space("S", (TOP, BOTTOM))
    verb = Sense("v#v", "v", parse_type("et"), Tensor(Signature((w, s)), [[1, 2], [3, 4]]))
    lex = Lexicon(SpaceMap(entity=w, sentence=s), (verb,))
    sig = Signature((s,))
    assert len(known_inhabitants(sig, lex)) == 0 and list(known_inhabitants(sig, lex)) == []
    for strategy in ("sum", "direct_sum"):
        with pytest.raises(NoInhabitants):
            underspec_tensor(sig, strategy, lex)


def test_stand_ins_are_required_for_t_then_e_then_et():
    w, s = Space("W", ("x", "y")), Space("S", (TOP, BOTTOM))
    tensors = {"e": Tensor(Signature((w,)), [1, 2]),
               "t": Tensor(Signature((s,)), [3, 4]),
               "et": Tensor(Signature((w, s)), [[1, 2], [3, 4]]),
               "eet": Tensor(Signature((w, s, w)), np.ones((2, 2, 2), dtype=int))}
    missing = {  # the kinds a lexicon holds -> the signature refused first
        ("eet",): "Signature(S)",
        ("e", "eet"): "Signature(S)",  # <e,t> by saturation, but t needs <e,t> itself
        ("t",): "Signature(W)",
        ("t", "et"): "Signature(W)",
        ("t", "e"): "Signature(W @ S)",
        ("t", "e", "et"): None,
        ("e", "et"): None,  # t by saturation
        ("e", "et", "eet"): None,
    }
    for kinds, signature in missing.items():
        senses = [Sense("who#rel", "who", None, None)]
        senses += [Sense(f"{k}#x", k, parse_type(k), tensors[k]) for k in kinds]
        lex = Lexicon(SpaceMap(entity=w, sentence=s), tuple(senses))
        require_stand_ins(lex, "unit")
        for strategy in ("sum", "direct_sum"):
            if signature is None:
                require_stand_ins(lex, strategy)
                continue
            with pytest.raises(NoInhabitants) as refused:
                require_stand_ins(lex, strategy)
            assert str(refused.value) == f"lexicon has no tensors of signature {signature}"
        assert lex.stand_ins == {}  # decided from types, building nothing


def test_the_fixtures_have_every_stand_in(base_lex, split_lex, traces_lex):
    for lex in (base_lex, split_lex, traces_lex):
        for strategy in ("unit", "sum", "direct_sum"):
            require_stand_ins(lex, strategy)
    with pytest.raises(ValueError):
        require_stand_ins(base_lex, "bogus")


def test_memoised_stand_ins_are_shared_and_read_only():
    lex = load_lexicon(fixture_path("traces"))
    sig = et_sig(lex)
    for strategy in ("unit", "sum", "direct_sum"):
        value = underspec_tensor(sig, strategy, lex)
        assert underspec_tensor(sig, strategy, lex) is value
        parts = value.components if isinstance(value, TensorTuple) else (value,)
        assert all(not t.array.flags.writeable for t in parts)
    for _ in range(2):
        with pytest.raises(ValueError):
            underspec_tensor(sig, "bogus", lex)
    assert len(lex.stand_ins) == 3
    # the memo is filled lazily and is not part of the lexicon's value
    cold = load_lexicon(fixture_path("traces"))
    assert cold.stand_ins == {}
    assert lex == cold and hash(lex) == hash(cold) and repr(lex) == repr(cold)


# ---------------------------------------------------------------------------
# compiling trees, finished and unfinished


def test_compile_reproduces_stored_root_on_finished_trees(base_lex, traces_lex):
    cases = [
        (base_lex, "babies vomit"),
        (base_lex, "footballers control balls"),
        (traces_lex, "mary likes john"),
        (traces_lex, "mary who sleeps snores"),
    ]
    for lex, words in cases:
        cand = one_candidate(lex, words)
        stored = cand.tree.nodes[cand.tree.root].formula
        for strategy in ("unit", "sum", "direct_sum"):
            got = compile_root(cand.tree, lex, strategy)
            if isinstance(got, TensorTuple):
                got = got.collapse()
            assert got == stored


def test_compile_prefix_with_sum_standin(base_lex):
    cand = one_candidate(base_lex, "babies")
    got = compile_root(cand.tree, base_lex, "sum")
    baby = base_lex.sense("baby#n").tensor.tolist()
    standin = underspec_tensor(et_sig(base_lex), "sum", base_lex).tolist()
    assert got.tolist() == oracles.sentence_vector(baby, standin)


def test_compile_prefix_with_componentwise_standin(base_lex):
    cand = one_candidate(base_lex, "babies")
    parts = compile_root(cand.tree, base_lex, "direct_sum")
    assert isinstance(parts, TensorTuple) and len(parts) == 7
    baby = base_lex.sense("baby#n").tensor.tolist()
    for (label, verb), part in zip(known_inhabitants(et_sig(base_lex), base_lex), parts):
        assert part.tolist() == oracles.sentence_vector(baby, verb.tolist())
    # componentwise and summed routes agree after collapse
    assert parts.collapse() == compile_root(cand.tree, base_lex, "sum")


def test_direct_sum_root_builds_components_on_demand(traces_lex, monkeypatch):
    tree = saturate(axiom())  # two open leaves: subject, then predicate
    smap = traces_lex.space_map
    subjects = [t for _, t in known_inhabitants(Signature((smap.entity,)), traces_lex)]
    predicates = [t for _, t in known_inhabitants(et_sig(traces_lex), traces_lex)]
    eager = direct_sum([contract(f, a, [(0, 0)]) for f in predicates for a in subjects])
    compile_root(tree, traces_lex, "direct_sum")  # warm the stand-ins
    calls = []
    real = parser_module.contract

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(parser_module, "contract", counting)
    lazy = compile_root(tree, traces_lex, "direct_sum")
    assert len(calls) == 1  # the collapsed pass, as under sum
    assert len(lazy) == len(lazy.components) == len(eager) > 1 and len(calls) == 1
    assert lazy.signature == eager.signature
    assert lazy.collapse() == eager.collapse()
    assert lazy == eager and hash(lazy) == hash(eager)
    assert list(lazy) == list(eager)
    assert lazy[1] == eager[1] and lazy[-1] == eager[-1]
    assert lazy[-len(eager)] == eager[0]
    assert lazy.components[1:4] == eager.components[1:4]
    assert lazy.components[::-2] == eager.components[::-2]
    for out_of_range in (len(eager), -len(eager) - 1):
        with pytest.raises(IndexError):
            lazy[out_of_range]
    with pytest.raises(AttributeError):
        lazy.components = eager.components
    with pytest.raises(TypeError):
        lazy.components[0] = eager[0]


def test_compile_axiom(base_lex):
    tree = initial_state().candidates[0].tree
    assert compile_root(tree, base_lex, "unit").tolist() == [1, 1]
    got = compile_root(tree, base_lex, "sum")
    want = None
    s_sig = Signature((base_lex.space_map.sentence,))
    for _, v in known_inhabitants(s_sig, base_lex):
        want = v.tolist() if want is None else oracles.add_lists(want, v.tolist())
    assert got.tolist() == want


def test_compile_ignores_unfinished_adjuncts(traces_lex):
    cand = parse_sequence("mary who".split(), traces_lex).candidates[0]
    got = compile_root(cand.tree, traces_lex, "sum")
    mary = traces_lex.sense("mary#n").tensor.tolist()
    standin = underspec_tensor(et_sig(traces_lex), "sum", traces_lex).tolist()
    assert got.tolist() == oracles.sentence_vector(mary, standin)


def _open_spine(tree) -> int:
    """Internal nodes outside adjuncts that store no formula."""
    count, stack = 0, [tree.root]
    while stack:
        n = tree.nodes[stack.pop()]
        if not n.is_leaf:
            count += n.formula is None
            stack += [n.argument, n.functor]
    return count


@pytest.mark.parametrize("strategy", ["unit", "sum", "direct_sum"])
@pytest.mark.parametrize("words", [
    "mary likes john",
    "mary who likes john snores",
    "john likes mary who likes john",
])
def test_compiling_a_finished_tree_contracts_nothing(
    words, strategy, traces_lex, parser_contractions
):
    tree = one_candidate(traces_lex, words).tree
    before = len(parser_contractions)
    assert compile_root(tree, traces_lex, strategy) == tree.nodes[tree.root].formula
    assert len(parser_contractions) == before


@pytest.mark.parametrize("words", [
    "", "mary", "john likes", "mary who likes john", "john who likes mary who",
    "mary likes john who likes",
])
def test_compiling_contracts_only_nodes_without_a_formula(
    words, traces_lex, parser_contractions
):
    tree = one_candidate(traces_lex, words).tree
    before = len(parser_contractions)
    compile_root(tree, traces_lex, "sum")
    assert len(parser_contractions) - before == _open_spine(tree)


@pytest.mark.parametrize("words", ["john likes", "mary who likes john", "mary who sleeps"])
def test_each_direct_sum_component_costs_one_open_spine_evaluation(
    words, traces_lex, parser_contractions
):
    tree = one_candidate(traces_lex, words).tree
    root = compile_root(tree, traces_lex, "direct_sum")
    before = len(parser_contractions)
    components = list(root.components)
    assert len(parser_contractions) - before == len(components) * _open_spine(tree) > 0


# ---------------------------------------------------------------------------
# plausibility


def test_plausibility_ratio():
    s = Space("S", (TOP, BOTTOM))
    score = plausibility(Tensor(Signature((s,)), [430, 98]))
    assert (score.top, score.bottom) == (430, 98)
    assert score.ratio == pytest.approx(430 / 528)


def test_plausibility_of_nothing_is_half():
    s = Space("S", (TOP, BOTTOM))
    assert plausibility(Tensor(Signature((s,)), [0, 0])).ratio == 0.5


def test_plausibility_needs_a_two_point_vector():
    s = Space("S", (TOP, BOTTOM))
    w = Space("W", ("a", "b", "c"))
    with pytest.raises(SignatureMismatch):
        plausibility(Tensor(Signature((w,)), [1, 2, 3]))
    with pytest.raises(SignatureMismatch):
        plausibility(Tensor(Signature((w, s)), [[1, 2], [3, 4], [5, 6]]))


def test_plausibility_refuses_a_total_that_overflows():
    # both entries are finite, but their sum is not: the ratio would read 0.0
    s = Space("S", (TOP, BOTTOM))
    with pytest.raises(NonFiniteEntry, match="not a finite number"):
        plausibility(Tensor(Signature((s,)), [1e308, 1e308]))
    assert plausibility(Tensor(Signature((s,)), [1e308, 0.0])).ratio == 1.0
    big = np.iinfo(np.int64).max
    score = plausibility(Tensor(Signature((s,)), [big, big]))
    assert (score.top + score.bottom, score.ratio) == (2 * big, 0.5)


def float_copy(lex):
    """The lexicon with every tensor entry x made the float x * 1.1 + 0.3."""
    return Lexicon(lex.space_map, tuple(
        s if s.tensor is None
        else replace(s, tensor=Tensor(s.tensor.signature, s.tensor.array * 1.1 + 0.3))
        for s in lex.senses
    ))


def test_direct_sum_scores_equal_sum_scores_on_a_float_lexicon(traces_lex):
    # a direct_sum root is scored from collapsed stand-ins, so its float
    # arithmetic is the sum strategy's, step for step
    lex = float_copy(traces_lex)
    vocabulary = sorted({w for s in lex.senses for w in (s.word,) + s.forms})
    states, pairs = [initial_state()], 0
    for _ in range(6):  # every live prefix of up to five words
        grown = []
        for state in states:
            for cand in state.candidates:
                assert score_candidate(cand, lex, "direct_sum") == score_candidate(cand, lex, "sum")
                pairs += 1
            for word in vocabulary:
                try:
                    grown.append(parse_word(state, word, lex))
                except DeadEnd:
                    pass
        states = grown
    assert pairs > 300


def test_plausibility_collapses_tuples():
    s = Space("S", (TOP, BOTTOM))
    pair = direct_sum([
        Tensor(Signature((s,)), [1, 2]),
        Tensor(Signature((s,)), [3, 4]),
    ])
    assert plausibility(pair).top == 4


# ---------------------------------------------------------------------------
# ranking live parses


def test_disambiguate_orders_by_ratio(split_lex):
    st = parse_sequence("footballers dribble".split(), split_lex)
    ranked = disambiguate(st, split_lex)
    assert [c.senses[-1] for c, _ in ranked] == ["dribble#control", "dribble#drip"]
    assert ranked[0][1].ratio == 1.0
    assert ranked[1][1].ratio == 0.0

    st = parse_sequence("babies dribble".split(), split_lex)
    ranked = disambiguate(st, split_lex)
    assert [c.senses[-1] for c, _ in ranked] == ["dribble#drip", "dribble#control"]
    assert ranked[1][1].ratio == 0.5  # nothing for or against


def test_disambiguate_is_stable_for_ties():
    w = Space("W", ("x", "y"))
    s = Space("S", (TOP, BOTTOM))
    smap = SpaceMap(entity=w, sentence=s)
    twin1 = Sense("run#a", "run", parse_type("et"),
                  Tensor(Signature((w, s)), [[1, 1], [1, 1]]))
    twin2 = Sense("run#b", "run", parse_type("et"),
                  Tensor(Signature((w, s)), [[2, 2], [2, 2]]))
    pat = Sense("pat#n", "pat", parse_type("e"), Tensor(Signature((w,)), [1, 2]))
    lex = Lexicon(smap, (pat, twin1, twin2))
    st = parse_sequence(["pat", "run"], lex)
    ranked = disambiguate(st, lex)
    assert [c.senses[-1] for c, _ in ranked] == ["run#a", "run#b"]
    assert ranked[0][1].ratio == ranked[1][1].ratio == 0.5


def test_mid_sentence_score_sits_between_continuations(base_lex):
    prefix = one_candidate(base_lex, "babies")
    mid = score_candidate(prefix, base_lex, "sum").ratio
    finals = []
    for verb in ("vomit", "score", "dribble"):
        cand = one_candidate(base_lex, f"babies {verb}")
        finals.append(score_candidate(cand, base_lex, "sum").ratio)
    assert min(finals) < mid < max(finals)


# ---------------------------------------------------------------------------
# ranking next words


def test_expect_object_after_two_place_verb(split_lex):
    st = parse_sequence("footballers dribble".split(), split_lex)
    got = expect(st, ["ball", "milk"], split_lex)
    assert [(e.word, e.sense_id) for e in got] == [("ball", "ball#n"), ("milk", "milk#n")]
    assert got[0].score.ratio == 1.0
    assert got[1].score.ratio == 0.5


def test_expect_verb_after_subject(base_lex):
    st = parse_sequence(["babies"], base_lex)
    got = expect(st, ["vomit", "score"], base_lex)
    assert [e.word for e in got] == ["vomit", "score"]
    assert got[0].score.ratio > got[1].score.ratio


def test_expect_marks_dead_words(base_lex):
    # a finished intransitive clause accepts nothing further
    st = parse_sequence("babies vomit".split(), base_lex)
    got = expect(st, ["milk", "who"], base_lex)
    assert [e.word for e in got] == ["milk", "who"]
    assert all(e.score is None for e in got)


def test_expect_sorts_dead_words_after_live_ones(base_lex):
    st = parse_sequence(["babies"], base_lex)
    got = expect(st, ["ball", "vomit"], base_lex)
    assert [e.word for e in got] == ["vomit", "ball"]
    assert got[0].score is not None
    assert got[1].score is None and got[1].sense_id == "ball#n"


def test_expect_unknown_word(base_lex):
    st = parse_sequence(["babies"], base_lex)
    got = expect(st, ["zebra"], base_lex)
    assert len(got) == 1
    assert got[0].word == "zebra"
    assert got[0].sense_id is None and got[0].score is None


def test_expect_empty_word_list(base_lex):
    assert expect(parse_sequence(["babies"], base_lex), [], base_lex) == []


def test_expect_keeps_the_first_of_tied_parses():
    # the noun's two senses are v and 2v, so the verb gives two parses of
    # equal ratio whose roots differ; a sense's score is the first one's
    w, s = Space("W", ("x", "y")), Space("S", (TOP, BOTTOM))
    one = Sense("pat#one", "pat", parse_type("e"), Tensor(Signature((w,)), [1, 2]))
    two = Sense("pat#two", "pat", parse_type("e"), Tensor(Signature((w,)), [2, 4]))
    run = Sense("run#v", "run", parse_type("et"), Tensor(Signature((w, s)), [[3, 1], [1, 1]]))
    lex = Lexicon(SpaceMap(entity=w, sentence=s), (one, two, run))
    st = parse_sequence(["pat"], lex)
    first, second = (score_candidate(c, lex) for c in parser_module.advance_with_sense(st, run))
    assert first.ratio == second.ratio and first != second
    for strategy in ("unit", "sum", "direct_sum"):
        (entry,) = expect(st, ["run"], lex, strategy)
        assert entry == ("run", "run#v", first)


def live_prefixes(lex, words: int):
    """The parse state of every live prefix of up to words words over the
    lexicon's vocabulary, shortest first, and the vocabulary."""
    vocabulary = sorted({w for s in lex.senses for w in (s.word,) + s.forms})
    states, level = [], [initial_state()]
    for _ in range(words):
        states += level
        level = [grown for state in level for grown in _parses_of(state, vocabulary, lex)]
    return states + level, vocabulary


def _parses_of(state, vocabulary, lex):
    for word in vocabulary:
        try:
            yield parse_word(state, word, lex)
        except DeadEnd:
            continue


@pytest.mark.parametrize("name", ["paper_s4", "split_senses", "traces"])
def test_expect_on_float_lexicons_is_the_per_sense_loop_bit_for_bit(name):
    # growing a candidate once per sense type leaves every contraction its
    # operands and order, so float scores keep their last bits
    lex = float_copy(load_lexicon(fixture_path(name)))
    states, vocabulary = live_prefixes(lex, 3)
    words = vocabulary + ["zebra"]
    for strategy in ("sum", "direct_sum"):
        for state in states:
            want = oracles.expect_per_sense(state, words, lex, strategy,
                                            parser_module, interpret_module)
            assert repr(expect(state, words, lex, strategy)) == repr(want), state.consumed
    assert len(states) > 20


@pytest.mark.parametrize("name", ["paper_s4", "split_senses", "traces"])
def test_expect_grows_each_candidate_once_per_sense_type(name, monkeypatch):
    lex = load_lexicon(fixture_path(name))
    states, vocabulary = live_prefixes(lex, 3)
    calls = {"canonical_view": 0, "apply_lexical": 0, "open": 0}

    def counted(fn, key):
        def counting(*args):
            calls[key] += 1
            return fn(*args)
        return counting

    for key in ("canonical_view", "apply_lexical"):
        monkeypatch.setattr(parser_module, key, counted(getattr(parser_module, key), key))
    flags = cached_property(counted(Tree.open.func, "open"))
    flags.__set_name__(Tree, "open")
    monkeypatch.setattr(Tree, "open", flags)
    types = len({s.sem_type for s in lex.senses})  # link senses: None
    assert types < len(lex.senses)  # so growing per sense would break a bound
    for state in states:
        for cand in state.candidates:
            cand.tree.open  # the candidate's own flags, which its parse reads
        before = dict(calls)
        expect(state, vocabulary, lex)
        live = len(state.candidates)
        assert calls["canonical_view"] - before["canonical_view"] <= live
        assert calls["apply_lexical"] - before["apply_lexical"] <= live * types
        assert calls["open"] - before["open"] <= live * types


@pytest.mark.parametrize("name", ["paper_s4", "split_senses", "traces"])
def test_expect_on_integer_lexicons_is_the_per_sense_loop(name):
    # each type group is valued at once, stacked; every column keeps the
    # integers that valuing its sense alone gives
    lex = load_lexicon(fixture_path(name))
    assert lex.integer
    states, vocabulary = live_prefixes(lex, 3)
    words = vocabulary + ["zebra"]
    for strategy in ("unit", "sum", "direct_sum"):
        for state in states:
            want = oracles.expect_per_sense(state, words, lex, strategy,
                                            parser_module, interpret_module)
            assert repr(expect(state, words, lex, strategy)) == repr(want), state.consumed


@pytest.mark.parametrize("name", ["paper_s4", "split_senses", "traces"])
def test_expect_saturates_and_compiles_once_per_candidate_and_sense_type(name, monkeypatch):
    lex = load_lexicon(fixture_path(name))
    states, vocabulary = live_prefixes(lex, 3)
    calls = {"saturate": 0, "compile_root": 0, "grown": 0}

    def counted(fn, key):
        def counting(*args):
            calls[key] += 1
            return fn(*args)
        return counting

    def counting_hits(tree, sense):
        grown = apply_lexical(tree, sense)
        calls["grown"] += grown is not None
        return grown

    apply_lexical = parser_module.apply_lexical
    monkeypatch.setattr(parser_module, "apply_lexical", counting_hits)
    counting_saturate = counted(saturate, "saturate")
    monkeypatch.setattr(parser_module, "saturate", counting_saturate)
    monkeypatch.setattr(interpret_module, "saturate", counting_saturate, raising=False)
    monkeypatch.setattr(interpret_module, "compile_root", counted(compile_root, "compile_root"))
    stacked = 0
    for state in states:
        before = dict(calls)
        entries = expect(state, vocabulary, lex)
        grown = calls["grown"] - before["grown"]
        assert calls["saturate"] - before["saturate"] == grown, state.consumed
        assert calls["compile_root"] - before["compile_root"] == grown, state.consumed
        stacked += grown < sum(e.score is not None for e in entries)
    assert stacked  # some group of several senses grew: a pass per sense counts more


def test_expect_gives_every_sense_of_a_group_in_an_unfinished_adjunct_one_score(
        split_lex, monkeypatch):
    # after "footballers who", a two-place verb opens the relative clause's
    # object slot; an unfinished clause folds into nothing, so the root does
    # not depend on the stacked verbs and each takes the root's one score
    st = parse_sequence("footballers who".split(), split_lex)
    sizes = []
    monkeypatch.setattr(interpret_module, "stack",
                        lambda tensors: sizes.append(len(tensors)) or stack(tensors))
    got = expect(st, ["dribble", "control"], split_lex)
    assert sizes == [2]
    scores = {e.sense_id: e.score for e in got}
    assert scores["dribble#control"] == scores["control#v"] == score_candidate(
        st.candidates[0], split_lex)
    assert scores["dribble#drip"] != scores["control#v"]
    want = oracles.expect_per_sense(st, ["dribble", "control"], split_lex, "sum",
                                    parser_module, interpret_module)
    assert repr(got) == repr(want)


@pytest.mark.parametrize("floats", [False, True])
def test_a_surface_whose_sense_types_interleave_grows_sense_by_sense(split_lex, floats):
    # dribble's senses in lookup order are <e,t>, <e,<e,t>>, <e,t>: the two
    # of one type grow as one group across the one between them
    ooze = Sense("dribble#ooze", "dribble", parse_type("et"),
                 Tensor(et_sig(split_lex), [[5, 1], [4, 2], [1, 6], [2, 3]]),
                 forms=("dribbles",))
    lex = Lexicon(split_lex.space_map, split_lex.senses + (ooze,))
    if floats:
        lex = float_copy(lex)
    senses = lex.lookup("dribble")
    assert [s.sem_type.compact() for s in senses] == ["et", "eet", "et"]
    # the drip and ooze parses await the main verb, the control parse the
    # relative clause's object
    state = parse_sequence("footballers who dribble".split(), lex)
    assert len(state.candidates) == 3
    got = parse_word(state, "dribble", lex).candidates
    want = [c for s in senses for c in oracles.advance_alone(state, s, parser_module)]
    assert list(got) == want
    assert [c.senses[-1] for c in got] == [s.sense_id for s in senses for _ in range(2)]
    words = ["dribble", "vomit", "control", "who", "baby"]
    for strategy in ("unit", "sum", "direct_sum"):
        want = oracles.expect_per_sense(state, words, lex, strategy,
                                        parser_module, interpret_module)
        assert repr(expect(state, words, lex, strategy)) == repr(want), strategy


def test_expect_on_a_lexicon_with_one_float_sense_values_each_sense_alone(base_lex, monkeypatch):
    lex = Lexicon(base_lex.space_map, tuple(
        replace(s, tensor=Tensor(s.tensor.signature, s.tensor.array * 1.1 + 0.3))
        if s.sense_id == "vomit#v" else s
        for s in base_lex.senses
    ))
    assert base_lex.integer and not lex.integer

    def refuse(tensors):
        raise AssertionError("a float lexicon is valued sense by sense")

    monkeypatch.setattr(interpret_module, "stack", refuse)
    states, vocabulary = live_prefixes(lex, 3)
    for strategy in ("unit", "sum", "direct_sum"):
        for state in states:
            want = oracles.expect_per_sense(state, vocabulary, lex, strategy,
                                            parser_module, interpret_module)
            assert repr(expect(state, vocabulary, lex, strategy)) == repr(want), state.consumed
