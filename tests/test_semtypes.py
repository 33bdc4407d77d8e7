import copy
import pickle

import pytest

from dsvs import (
    E,
    SemType,
    Signature,
    Space,
    SpaceMap,
    T,
    Tensor,
    TensorTuple,
    application_slot,
    check_formula,
    fn,
    parse_type,
    signature_of,
)

W = Space("W", ("w1", "w2", "w3"))
S = Space("S", ("yes", "no"))
SMAP = SpaceMap(entity=W, sentence=S)


def test_parse_type_round_trips():
    for spelling in ("e", "t", "et", "eet", "eeet"):
        assert parse_type(spelling).compact() == spelling


def test_parse_type_structure():
    assert parse_type("e") == E
    assert parse_type("t") == T
    assert parse_type("et") == fn(E, T)
    assert parse_type("eet") == fn(E, fn(E, T))


def test_parse_type_rejects_junk():
    for bad in ("", "te", "x", "ee", "ett"):
        with pytest.raises(ValueError):
            parse_type(bad)


def test_type_rendering():
    assert str(parse_type("et")) == "⟨e,t⟩"
    assert str(parse_type("eet")) == "⟨e,⟨e,t⟩⟩"
    assert str(E) == "e"


def test_bad_atoms_rejected():
    with pytest.raises(ValueError):
        SemType(atom="x")
    with pytest.raises(ValueError):
        SemType(arg=E)


def test_signatures_of_the_type_family():
    assert signature_of(E, SMAP) == Signature((W,))
    assert signature_of(T, SMAP) == Signature((S,))
    assert signature_of(parse_type("et"), SMAP) == Signature((W, S))
    assert signature_of(parse_type("eet"), SMAP) == Signature((W, S, W))
    assert signature_of(parse_type("eeet"), SMAP) == Signature((W, S, W, W))


def test_types_outside_the_family_are_refused():
    # a function type needs argument e and a result other than e
    for weird in ((fn(E, T), T), (E, E), (T, T), (fn(E, T), fn(E, T))):
        with pytest.raises(ValueError):
            fn(*weird)


def test_check_formula_accepts_only_tensors():
    noun = Tensor(Signature((W,)), [1, 2, 3])
    verb = Tensor(Signature((W, S)), [[1, 2], [3, 4], [5, 6]])
    assert check_formula(E, noun, SMAP)
    assert check_formula(parse_type("et"), verb, SMAP)
    assert not check_formula(E, verb, SMAP)
    assert not check_formula(T, noun, SMAP)
    assert not check_formula(E, TensorTuple((verb,)), SMAP)
    assert not check_formula(E, None, SMAP)
    assert not check_formula(E, [1, 2, 3], SMAP)
    # a tuple of fitting tensors is not a formula, nor is a nested list
    assert not check_formula(parse_type("et"), TensorTuple((verb, verb)), SMAP)
    assert not check_formula(parse_type("et"), [[1, 2], [3, 4], [5, 6]], SMAP)


def test_application_slot():
    assert application_slot(parse_type("et")) == 0
    assert application_slot(parse_type("eet")) == 2
    assert application_slot(parse_type("eeet")) == 3
    with pytest.raises(ValueError):
        application_slot(E)


def test_types_built_apart_are_equal_and_hash_equal():
    for spelling in ("e", "t", "et", "eet", "eeet"):
        one, two = parse_type(spelling), parse_type(spelling)
        assert one == two and hash(one) == hash(two) and {one: 1}[two] == 1
        for again in (copy.deepcopy(one), pickle.loads(pickle.dumps(one))):
            assert again == one and hash(again) == hash(one)
    assert fn(E, fn(E, T)) != fn(E, T) and hash(fn(E, T)) == hash(parse_type("et"))
