import copy
import dataclasses
import gc
import os
import pickle
import random
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import dsvs
import oracles
from dsvs import tensor as tensor_module
from dsvs import (
    DuplicateSlot,
    EmptyList,
    EmptySignature,
    Signature,
    SignatureMismatch,
    SlotOutOfRange,
    Space,
    SpaceMap,
    SpaceMismatch,
    Tensor,
    TensorTuple,
    compile_root,
    contract,
    direct_sum,
    fixture_path,
    load_lexicon,
    mu,
    parse_sequence,
    parse_type,
    signature_of,
    sum_tensors,
    unit_tensor,
)

A = Space("A", ("a1", "a2"))
B = Space("B", ("b1", "b2", "b3"))
C = Space("C", ("c1", "c2", "c3", "c4"))


def rand_tensor(rng, sig, lo=-9, hi=9):
    flat = [rng.randint(lo, hi) for _ in range(int(np.prod(sig.dims, dtype=int)))]
    return Tensor(sig, np.array(flat, dtype=np.int64).reshape(sig.dims))


def test_space_validation():
    assert A.dim == 2
    assert A.index("a2") == 1
    with pytest.raises(KeyError):
        A.index("zzz")
    with pytest.raises(ValueError):
        Space("X", ())
    with pytest.raises(ValueError):
        Space("X", ("p", "p"))


def test_signature_order_matters():
    assert Signature((A, B)) != Signature((B, A))
    assert Signature((A, B)).dims == (2, 3)
    assert len(Signature(())) == 0


def test_signatures_built_apart_are_equal_and_hash_equal():
    one = Signature((Space("W", ("x", "y")), Space("S", ("t", "f"))))
    two = Signature([Space("W", ["x", "y"]), Space("S", ["t", "f"])])
    assert one is not two and one == two and hash(one) == hash(two)
    assert {one: "plan"}[two] == "plan"
    for a, b in zip(one, two):
        assert a is not b and a == b and hash(a) == hash(b)
    assert Signature(tuple(one)[::-1]) != one
    assert Space("W", ("y", "x")) != one[0]
    for again in (copy.deepcopy(one), pickle.loads(pickle.dumps(one))):
        assert again == one and hash(again) == hash(one)


def test_a_signature_computes_its_dims_once():
    sig = Signature((A, B, A))
    assert sig.dims == (2, 3, 2) and sig.dims is sig.dims
    assert Signature(()).dims == ()
    for again in (copy.deepcopy(sig), pickle.loads(pickle.dumps(sig))):
        assert again.dims == (2, 3, 2) and again.dims is again.dims
    with pytest.raises(dataclasses.FrozenInstanceError):
        sig.dims = (1,)


def test_a_reloaded_lexicon_finds_the_plans_of_the_first(monkeypatch):
    words = "john likes mary who sleeps".split()
    first = load_lexicon(fixture_path("traces"))
    want = [compile_root(c.tree, first, "sum") for c in parse_sequence(words, first).candidates]

    def planned_again(*args):
        raise AssertionError("a reloaded lexicon planned a contraction again")

    monkeypatch.setattr(tensor_module, "_plan", planned_again)
    again = load_lexicon(fixture_path("traces"))
    assert again.space_map.entity is not first.space_map.entity
    got = [compile_root(c.tree, again, "sum") for c in parse_sequence(words, again).candidates]
    assert got == want


def test_the_process_wide_caches_let_old_spaces_go():
    # 3,000 lexicon-like space maps, each asked for four signatures and
    # used for one contraction; both caches keep at most 1,024 entries
    alive = weakref.WeakSet()
    s = Space("S", ("yes", "no"))
    try:
        for k in range(3000):
            w = Space(f"W{k}", tuple(f"x{i}" for i in range(100)))
            smap = SpaceMap(entity=w, sentence=s)
            alive.add(w)
            sig = {t: signature_of(parse_type(t), smap) for t in ("e", "t", "et", "eet")}
            contract(Tensor(sig["et"], np.ones((100, 2), dtype=np.int64)),
                     Tensor(sig["e"], np.ones(100, dtype=np.int64)), [(0, 0)])
        del w, smap, sig
        gc.collect()
        assert 0 < len(alive) <= 1024
    finally:
        # later tests reuse plans they make themselves, not these
        tensor_module._PLANS.clear()


def test_tensor_shape_checked():
    with pytest.raises(ValueError):
        Tensor(Signature((A,)), [1, 2, 3])
    t = Tensor(Signature((A, B)), [[1, 2, 3], [4, 5, 6]])
    assert t.rank == 2
    assert t.entry("a2", "b1") == 4


@pytest.mark.parametrize("values", [
    [float("nan"), 1.0],
    [1.0, float("-inf")],
    np.array([True, False]),
    [2**63, 2**63 + 1],  # numpy reads these as uint64, which int64 would wrap
])
def test_tensor_refuses_entries_that_are_not_counts(values):
    with pytest.raises((TypeError, ValueError)):
        Tensor(Signature((A,)), values)


@pytest.mark.parametrize("values, bad", [
    ([1, True], "True"),  # numpy would give int64 [1, 1]
    ([1.5, True], "True"),  # float64 [1.5, 1.0]
    ([2**63, 1], str(2**63)),  # float64 [9.223372036854776e+18, 1.0]
    ([[1, 2], (3, -2**63 - 1)], str(-2**63 - 1)),
])
def test_tensor_refuses_list_entries_numpy_would_convert(values, bad):
    sig = Signature((A,) * (2 if isinstance(values[0], list) else 1))
    with pytest.raises((TypeError, ValueError)) as err:
        Tensor(sig, values)
    assert bad in str(err.value)


def test_tensor_integer_entries_stay_exact():
    t = Tensor(Signature((A,)), [2**40, -(2**40)])
    assert t.array.dtype == np.int64
    assert t.tolist() == [2**40, -(2**40)]


def test_tensor_is_immutable():
    t = Tensor(Signature((A,)), [1, 2])
    with pytest.raises(ValueError):
        t.array[0] = 99


def test_tensor_equality_by_value():
    t1 = Tensor(Signature((A,)), [1, 2])
    t2 = Tensor(Signature((A,)), [1, 2])
    t3 = Tensor(Signature((A,)), [1, 3])
    assert t1 == t2
    assert t1 != t3
    assert t1 != Tensor(Signature((B,)), [1, 2, 3])


@pytest.mark.parametrize("one, other", [
    ([1, 2], [1.0, 2.0]),  # int64 against float64
    ([0.0, 1.5], [-0.0, 1.5]),
    ([[0, -3], [7, 0]], [[-0.0, -3.0], [7.0, 0.0]]),
])
def test_equal_tensors_hash_equal(one, other):
    sig = Signature((A,) * np.ndim(one))
    a, b = Tensor(sig, one), Tensor(sig, other)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    ta, tb = direct_sum([a, a]), direct_sum([b, b])
    assert ta == tb and hash(ta) == hash(tb) and len({ta, tb}) == 1


@pytest.mark.parametrize("branches", [1, 2, 1000])
def test_a_list_holding_itself_is_refused(branches):
    # the entry check walks the nesting depth first; a list inside itself
    # has no last level, so the walk runs out of stack
    looped = [1]
    looped += [looped] * branches
    with pytest.raises(RecursionError):
        Tensor(Signature((A,)), looped)
    with pytest.raises(RecursionError):
        Tensor(Signature((A, A)), [[1, 2], looped])


def test_a_list_holding_itself_is_refused_without_hanging():
    # in a child process, so that a build that never returns fails the test
    code = """if True:
        from dsvs import Signature, Space, Tensor
        A = Space("A", ("a", "b"))
        held = []
        held.append(held)
        row = [[1, 2]]
        row[0][0] = row
        twice = []
        twice += [twice, twice]  # numpy would unfold it 2**64 times
        for values in (held, row, [held, held], twice, [twice, 1]):
            try:
                Tensor(Signature((A,)), values)
            except RecursionError:
                continue
            raise SystemExit("no RecursionError")
    """
    env = {**os.environ, "PYTHONPATH": str(Path(dsvs.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=20)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_shared_rows_are_not_a_loop():
    row = [1, 2]
    assert Tensor(Signature((A, A)), [row, row]).tolist() == [[1, 2], [1, 2]]
    assert Tensor(Signature((A, A, A)), [[row, row]] * 2).tolist() == [[[1, 2]] * 2] * 2


def test_contract_small_example_against_loops():
    m = Tensor(Signature((A, B)), [[1, 2, 3], [4, 5, 6]])
    v = Tensor(Signature((A,)), [7, 9])
    got = contract(m, v, [(0, 0)])
    assert got.signature == Signature((B,))
    assert got.tolist() == oracles.contract_lists(m.tolist(), v.tolist(), [(0, 0)])


def test_contract_keeps_left_then_right_free_slots():
    x = Tensor(Signature((A, B)), np.arange(6).reshape(2, 3))
    y = Tensor(Signature((B, C)), np.arange(12).reshape(3, 4))
    got = contract(x, y, [(1, 0)])
    assert got.signature == Signature((A, C))


def test_contract_without_pairs_is_outer_product():
    x = Tensor(Signature((A,)), [1, 2])
    y = Tensor(Signature((B,)), [3, 4, 5])
    got = contract(x, y, [])
    assert got.signature == Signature((A, B))
    assert got.tolist() == [[3, 4, 5], [6, 8, 10]]


def test_contract_error_cases():
    x = Tensor(Signature((A, B)), np.zeros((2, 3), dtype=int))
    y = Tensor(Signature((B,)), [1, 2, 3])
    with pytest.raises(SpaceMismatch):
        contract(x, y, [(0, 0)])
    with pytest.raises(SlotOutOfRange):
        contract(x, y, [(2, 0)])
    with pytest.raises(SlotOutOfRange):
        contract(x, y, [(1, 1)])
    z = Tensor(Signature((B, B)), np.zeros((3, 3), dtype=int))
    with pytest.raises(DuplicateSlot):
        contract(z, z, [(0, 0), (0, 1)])
    with pytest.raises(DuplicateSlot):
        contract(z, z, [(0, 0), (1, 0)])


def _random_case(rng):
    pool = [A, B, C]
    ra = rng.randint(1, 3)
    a_sig = [rng.choice(pool) for _ in range(ra)]
    k = rng.randint(0, ra)
    paired_a = rng.sample(range(ra), k)
    rb_extra = rng.randint(0, 2)
    b_spaces = [a_sig[i] for i in paired_a] + [rng.choice(pool) for _ in range(rb_extra)]
    rng.shuffle(b_spaces)
    b_sig = list(b_spaces)
    if not b_sig:
        b_sig = [rng.choice(pool)]
    # recover pair positions in b for each paired slot of a, left to right
    used = set()
    pairs = []
    for i in paired_a:
        for j, sp in enumerate(b_sig):
            if j not in used and sp == a_sig[i]:
                used.add(j)
                pairs.append((i, j))
                break
    a = rand_tensor(rng, Signature(tuple(a_sig)))
    b = rand_tensor(rng, Signature(tuple(b_sig)))
    return a, b, pairs


def test_contract_matches_loop_oracle_on_random_tensors():
    rng = random.Random(20240811)
    for _ in range(60):
        a, b, pairs = _random_case(rng)
        got = contract(a, b, pairs)
        want = oracles.contract_lists(a.tolist(), b.tolist(), pairs)
        if got.rank == 0:
            assert got.array.item() == want
        else:
            assert got.tolist() == want


def test_contract_is_bilinear():
    rng = random.Random(7)
    sig_a = Signature((A, B))
    sig_b = Signature((B, C))
    for _ in range(20):
        a1 = rand_tensor(rng, sig_a)
        a2 = rand_tensor(rng, sig_a)
        b = rand_tensor(rng, sig_b)
        lhs = contract(sum_tensors([a1, a2]), b, [(1, 0)])
        rhs = sum_tensors([contract(a1, b, [(1, 0)]), contract(a2, b, [(1, 0)])])
        assert lhs == rhs


def test_sum_tensors_laws_and_errors():
    rng = random.Random(13)
    sig = Signature((A, B))
    x, y, z = (rand_tensor(rng, sig) for _ in range(3))
    assert sum_tensors([x, y]) == sum_tensors([y, x])
    assert sum_tensors([sum_tensors([x, y]), z]) == sum_tensors([x, sum_tensors([y, z])])
    assert sum_tensors([x]) == x
    with pytest.raises(EmptyList):
        sum_tensors([])
    with pytest.raises(SignatureMismatch):
        sum_tensors([x, Tensor(Signature((A,)), [1, 2])])


def test_direct_sum_keeps_components():
    x = Tensor(Signature((A,)), [1, 2])
    y = Tensor(Signature((A,)), [3, 4])
    ds = direct_sum([x, y])
    assert isinstance(ds, TensorTuple)
    assert list(ds) == [x, y]
    assert ds.collapse() == Tensor(Signature((A,)), [4, 6])
    with pytest.raises(EmptyList):
        direct_sum([])
    with pytest.raises(SignatureMismatch):
        direct_sum([x, Tensor(Signature((B,)), [1, 2, 3])])


def test_unit_tensor():
    u = unit_tensor(Signature((A, B)))
    assert u.tolist() == [[1, 1, 1], [1, 1, 1]]
    with pytest.raises(EmptySignature):
        unit_tensor(Signature(()))


def test_mu_laws():
    rng = random.Random(99)
    sig = Signature((A, B))
    u = unit_tensor(sig)
    for _ in range(20):
        x, y, z = (rand_tensor(rng, sig) for _ in range(3))
        assert mu(x, y) == mu(y, x)
        assert mu(mu(x, y), z) == mu(x, mu(y, z))
        assert mu(x, u) == x
        assert mu(x, y).tolist() == oracles.mul_lists(x.tolist(), y.tolist())
    with pytest.raises(SignatureMismatch):
        mu(u, unit_tensor(Signature((A,))))


def test_a_uint64_array_beyond_int64_is_refused_not_wrapped():
    big = np.iinfo(np.int64).max + 1
    with pytest.raises(ValueError, match=f"tensor entry {big} is outside the int64 range"):
        Tensor(Signature((A,)), np.array([big, 1], dtype=np.uint64))
    # within range, a uint64 array is kept exactly, as int64
    t = Tensor(Signature((A,)), np.array([big - 1, 0], dtype=np.uint64))
    assert t.array.dtype == np.int64 and t.tolist() == [big - 1, 0]


def test_entry_needs_one_label_per_slot():
    t = Tensor(Signature((A, B)), [[1, 2, 3], [4, 5, 6]])
    for labels in (("a2",), ("a2", "b1", "b1"), ()):
        with pytest.raises(ValueError, match=f"expected 2 labels, got {len(labels)}"):
            t.entry(*labels)


def test_a_tensor_tuple_with_a_given_sum_still_needs_a_component():
    t = Tensor(Signature((A,)), [1, 2])
    for empty in ([], (), range(0)):
        with pytest.raises(EmptyList):
            TensorTuple(empty, collapsed=t)
    assert list(TensorTuple([t], collapsed=t)) == [t]
