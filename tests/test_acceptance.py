"""Acceptance suite: one test per shipped guarantee, exact tolerances.

Run with `pytest -v tests/test_acceptance.py`; each test is one criterion
and prints a PASS line when it holds (visible with -s).  Numeric
expectations are either carried as frozen literals that were derived by
hand from the bundled count tables, or recomputed in-test with the plain
loop oracles in oracles.py; the implementation must match both.
"""

import random
import time

import numpy as np
import pytest

import oracles
from dsvs import (
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
from dsvs.interpret import known_inhabitants
from dsvs.lexicon import (
    BOTTOM,
    TOP,
    CorpusExcerpt,
    build_cooccurrence,
    build_verb_matrix,
    save_lexicon,
)
from dsvs.parser import canonical_view, render
from dsvs.tensor import (
    Signature,
    Tensor,
    TensorTuple,
    contract,
    mu,
    sum_tensors,
    unit_tensor,
)

from test_tensor import A, B, C, _random_case, rand_tensor


def report(n, text):
    print(f"ACCEPTANCE criterion {n}: PASS  {text}")


def root_formula(lex, sentence):
    state = parse_sequence(sentence.split(), lex)
    assert len(state.candidates) == 1
    tree = state.candidates[0].tree
    assert tree.is_complete()
    return tree.nodes[tree.root].formula


# ---------------------------------------------------------------------------


SENTENCE_VECTORS = [
    ("babies vomit", (430, 98)),
    ("babies score", (34, 318)),
    ("babies dribble", (958, 98)),
    ("footballers vomit", (33, 723)),
    ("footballers score", (493, 11)),
    ("footballers dribble", (986, 526)),
]


def test_criterion_1_intransitive_sentence_vectors_exact_and_fast(base_lex):
    start = time.perf_counter()
    for sentence, want in SENTENCE_VECTORS:
        got = root_formula(base_lex, sentence)
        assert tuple(got.tolist()) == want, sentence
        # dual route: plain loops over the bundled counts give the same
        subject_word, verb_word = sentence.split()
        subject = base_lex.lookup(subject_word)[0].tensor.tolist()
        verb = base_lex.lookup(verb_word)[0].tensor.tolist()
        assert got.tolist() == oracles.sentence_vector(subject, verb)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"six noun-verb vectors exact, {elapsed * 1000:.0f} ms for all six")


def test_criterion_2_transitive_sentences_match_brute_force(base_lex):
    got = root_formula(base_lex, "babies control balls")
    assert tuple(got.tolist()) == (0, 0)
    assert plausibility(got).ratio == 0.5

    got = root_formula(base_lex, "footballers control balls")
    subject = base_lex.sense("footballer#n").tensor.tolist()
    cube = base_lex.sense("control#v").tensor.tolist()
    obj = base_lex.sense("ball#n").tensor.tolist()
    want = oracles.transitive_vector(subject, cube, obj)
    assert got.tolist() == want
    # Worked by hand: only the pitch/goal rows and columns of the relation
    # are nonzero, so the first coordinate is (11+52)*(27+49) = 4788.  An
    # often-repeated hand calculation of this example gives 6866 instead;
    # the brute-force enumeration above settles the value at 4788, so that
    # is what this suite pins.
    assert tuple(got.tolist()) == (4788, 0)
    report(2, "transitive vectors equal brute-force enumeration, (4788, 0) pinned")


SNAPSHOTS = [
    "?t\n  e = [3, 1]\n  ?⟨e,t⟩ ◊",
    ("?t\n  e = [3, 1]\n  ?⟨e,t⟩\n    ?e ◊\n"
     "    ⟨e,⟨e,t⟩⟩ = [[[1, 2], [0, 1]], [[2, 0], [1, 3]]]"),
    ("t = [40, 32] ◊\n  e = [3, 1]\n  ⟨e,t⟩ = [[12, 5], [4, 17]]\n"
     "    e = [2, 5]\n"
     "    ⟨e,⟨e,t⟩⟩ = [[[1, 2], [0, 1]], [[2, 0], [1, 3]]]"),
]


def test_criterion_3_golden_traces(traces_lex):
    # transitive clause: the tree after each word, pointer included
    state = initial_state()
    seen = []
    for word in ["mary", "likes", "john"]:
        state = parse_word(state, word, traces_lex)
        seen.append(render(canonical_view(state.candidates[0].tree)))
    assert seen == SNAPSHOTS

    # adjunct clause: linked root carries subject.verb, main root the
    # entrywise product of both clause vectors
    state = parse_sequence("mary who sleeps snores".split(), traces_lex)
    tree = state.candidates[0].tree
    mary = traces_lex.sense("mary#n").tensor.tolist()
    sleep = traces_lex.sense("sleep#v").tensor.tolist()
    snore = traces_lex.sense("snore#v").tensor.tolist()
    host = tree.nodes[tree.nodes[tree.root].argument]
    linked_root = tree.nodes[host.link]
    assert linked_root.formula.tolist() == oracles.sentence_vector(mary, sleep)
    want = oracles.mul_lists(
        oracles.sentence_vector(mary, snore),
        oracles.sentence_vector(mary, sleep),
    )
    assert tree.nodes[tree.root].formula.tolist() == want
    assert render(canonical_view(tree)) == (
        "t = [140, 35] ◊\n"
        "  e = [3, 1]\n"
        "    LINK: t = [14, 5]\n"
        "      e = [3, 1]\n"
        "      ⟨e,t⟩ = [[4, 1], [2, 2]]\n"
        "  ⟨e,t⟩ = [[3, 2], [1, 1]]"
    )
    report(3, "word-by-word snapshots and adjunct-clause formulae exact")


def test_criterion_4_underspecification_strategies(base_lex):
    sig = Signature((base_lex.space_map.entity, base_lex.space_map.sentence))

    # (b) the summed stand-in has exactly these seven components
    inventory = known_inhabitants(sig, base_lex)
    assert [label for label, _ in inventory] == [
        "vomit#v", "score#v", "dribble#v",
        "control#v+baby#n", "control#v+milk#n",
        "control#v+footballer#n", "control#v+ball#n",
    ]
    cube = base_lex.sense("control#v").tensor.tolist()
    for label, tensor in inventory:
        if "+" in label:
            noun = base_lex.sense(label.split("+")[1]).tensor.tolist()
            assert tensor.tolist() == oracles.contract_lists(cube, noun, [(2, 0)])
        else:
            assert tensor == base_lex.sense(label).tensor
    summed = sum_tensors([t for _, t in inventory])
    assert summed.tolist() == [[33, 11], [30, 14], [163, 20], [163, 20]]

    # (a) prefix root under sum equals the entrywise sum of the
    # componentwise alternatives, exactly
    state = parse_sequence(["babies"], base_lex)
    tree = state.candidates[0].tree
    via_sum = compile_root(tree, base_lex, "sum")
    via_parts = compile_root(tree, base_lex, "direct_sum")
    assert isinstance(via_parts, TensorTuple) and len(via_parts) == 7
    assert via_parts.collapse() == via_sum
    assert tuple(via_sum.tolist()) == (1422, 514)

    # (c) on finished parses every strategy reproduces the stored root
    for sentence in ["babies vomit", "footballers control balls"]:
        stored = root_formula(base_lex, sentence)
        state = parse_sequence(sentence.split(), base_lex)
        for strategy in ("unit", "sum", "direct_sum"):
            got = compile_root(state.candidates[0].tree, base_lex, strategy)
            if isinstance(got, TensorTuple):
                got = got.collapse()
            assert got == stored
    report(4, "stand-in strategies: seven components, exact sums, consistent on "
              "finished parses")


def test_criterion_5_sense_rankings(split_lex):
    ranked = disambiguate(parse_sequence("footballers dribble".split(), split_lex),
                          split_lex)
    assert ranked[0][0].senses[-1] == "dribble#control"
    assert ranked[0][1].ratio > ranked[1][1].ratio

    ranked = disambiguate(parse_sequence("babies dribble".split(), split_lex),
                          split_lex)
    assert ranked[0][0].senses[-1] == "dribble#drip"
    assert ranked[0][1].ratio > ranked[1][1].ratio

    got = expect(parse_sequence("footballers dribble".split(), split_lex),
                 ["ball", "milk"], split_lex)
    assert [e.word for e in got] == ["ball", "milk"]
    assert got[0].score.ratio > got[1].score.ratio

    got = expect(parse_sequence(["babies"], split_lex),
                 ["vomit", "score"], split_lex)
    assert [e.word for e in got] == ["vomit", "score"]
    assert got[0].score.ratio > got[1].score.ratio
    report(5, "mid-sentence sense and continuation rankings ordered as required")


def test_criterion_6_algebra_against_oracles(tmp_path):
    rng = random.Random(987654321)

    # contraction vs nested loops, 200 randomized integer tensors
    for _ in range(200):
        a, b, pairs = _random_case(rng)
        got = contract(a, b, pairs)
        want = oracles.contract_lists(a.tolist(), b.tolist(), pairs)
        if got.rank == 0:
            assert got.array.item() == want
        else:
            assert got.tolist() == want

    # bilinearity: exact over ints, 1e-9 relative over floats
    sig_a, sig_b = Signature((A, B)), Signature((B, C))
    for _ in range(50):
        a1, a2 = rand_tensor(rng, sig_a), rand_tensor(rng, sig_a)
        b = rand_tensor(rng, sig_b)
        assert contract(sum_tensors([a1, a2]), b, [(1, 0)]) == sum_tensors(
            [contract(a1, b, [(1, 0)]), contract(a2, b, [(1, 0)])])
    for _ in range(50):
        fa1 = Tensor(sig_a, np.array([[rng.uniform(-5, 5) for _ in range(3)]
                                      for _ in range(2)]))
        fa2 = Tensor(sig_a, np.array([[rng.uniform(-5, 5) for _ in range(3)]
                                      for _ in range(2)]))
        fb = Tensor(sig_b, np.array([[rng.uniform(-5, 5) for _ in range(4)]
                                     for _ in range(3)]))
        lhs = contract(sum_tensors([fa1, fa2]), fb, [(1, 0)]).array
        rhs = (contract(fa1, fb, [(1, 0)]).array
               + contract(fa2, fb, [(1, 0)]).array)
        assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-12)

    # entrywise product: commutative, associative, unital, all exact
    sig = Signature((A, B))
    u = unit_tensor(sig)
    for _ in range(50):
        x, y, z = (rand_tensor(rng, sig) for _ in range(3))
        assert mu(x, y) == mu(y, x)
        assert mu(mu(x, y), z) == mu(x, mu(y, z))
        assert mu(x, u) == x

    # lexicon files survive a save/load cycle bit for bit
    for name in ("paper_s4", "split_senses", "traces"):
        lex = load_lexicon(fixture_path(name))
        out = tmp_path / f"{name}.lexicon"
        save_lexicon(lex, out)
        again = load_lexicon(out)
        assert again == lex
        for s in again.senses:
            if s.tensor is not None:
                twin = lex.sense(s.sense_id).tensor
                assert s.tensor.array.dtype == twin.array.dtype
                assert s.tensor.array.tobytes() == twin.array.tobytes()
    report(6, "contraction, bilinearity, entrywise product and file round trips "
              "all match oracles")


VOCAB = ["infant", "nappy", "pitch", "goal", "milk", "ball", "net",
         "dribble", "score", "shoe", "grass"]


def _random_corpus(rng, n_excerpts):
    excerpts = []
    for k in range(n_excerpts):
        tokens = tuple(rng.choice(VOCAB) for _ in range(rng.randint(1, 10)))
        excerpts.append(CorpusExcerpt(f"r:{k}", tokens))
    return excerpts


def test_criterion_7_counting_against_oracles():
    rng = random.Random(20240812)
    properties = ["infant", "nappy", "pitch", "goal"]

    # verb profile conservation on 100 random corpora
    for _ in range(100):
        excerpts = _random_corpus(rng, rng.randint(1, 15))
        verb = rng.choice(["dribble", "score", "absentverb"])
        matrix = build_verb_matrix(excerpts, verb, properties)
        with_verb = [e for e in excerpts if verb in e.tokens]
        for i, p in enumerate(properties):
            top, bottom = matrix.tolist()[i]
            assert top == sum(1 for e in with_verb if p in e.tokens)
            assert top + bottom == len(with_verb)

    # co-occurrence counts vs a set-based recount on a ten-excerpt corpus
    excerpts = _random_corpus(rng, 10)
    targets = ["milk", "ball", "dribble"]
    contexts = properties
    counts = build_cooccurrence(excerpts, targets, contexts)
    for i, t in enumerate(targets):
        for j, c in enumerate(contexts):
            want = sum(1 for e in excerpts if t in e.tokens and c in e.tokens)
            assert counts.tolist()[i][j] == want
    report(7, "count builders agree with set-based recounts, row sums conserved")
