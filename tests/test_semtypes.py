import copy
import pickle
import sys
import threading

import pytest

from dsvs import semtypes as semtypes_module
from dsvs.semtypes import (
    E,
    SemType,
    SpaceMap,
    T,
    application_slot,
    fn,
    parse_type,
    signature_of,
)
from dsvs.tensor import Signature, Space

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


def test_each_type_is_one_object():
    assert SemType(atom="e") is E and SemType(atom="t") is T
    assert fn(E, T) is parse_type("et") is SemType(arg=E, res=T)
    assert parse_type("eeet") is fn(E, fn(E, fn(E, T)))
    # equality and hashing are identity, with no hash of their own
    assert type(E).__eq__ is object.__eq__ and "__hash__" not in vars(SemType)
    assert not hasattr(E, "_hash")


def test_copies_and_unpickled_types_are_the_type_itself():
    for spelling in ("e", "t", "et", "eet", "eeet"):
        ty = parse_type(spelling)
        assert copy.copy(ty) is ty
        assert copy.deepcopy(ty) is ty
        assert copy.deepcopy([ty, ty])[1] is ty
        assert pickle.loads(pickle.dumps(ty)) is ty


def test_a_refused_type_is_never_kept():
    kept = len(semtypes_module._TYPES)
    for _ in range(3):
        for bad in ({"atom": "x"}, {"arg": E}, {"arg": T, "res": T}, {"arg": E, "res": E}):
            with pytest.raises(ValueError):
                SemType(**bad)
    assert len(semtypes_module._TYPES) == kept


def test_a_type_is_refused_unless_built_from_types():
    kept = len(semtypes_module._TYPES)
    for res in ("t", "et", [1], 0, parse_type):
        with pytest.raises(ValueError):
            SemType(arg=E, res=res)
    # an atom takes no argument or result, not even an empty one
    for empty in (0, "", []):
        with pytest.raises(ValueError):
            SemType(atom="e", arg=empty)
        with pytest.raises(ValueError):
            SemType(atom="t", res=empty)
    assert len(semtypes_module._TYPES) == kept


def test_signature_and_slot_are_worked_out_once():
    for spelling in ("e", "t", "et", "eet"):
        ty = parse_type(spelling)
        assert signature_of(ty, SMAP) is signature_of(ty, SMAP)
    application_slot(parse_type("eet"))
    hits = application_slot.cache_info().hits
    assert application_slot(fn(E, fn(E, T))) == 2
    assert application_slot.cache_info().hits == hits + 1


def test_threads_building_a_new_type_at_once_get_one_object():
    # spellings no other test builds, so every thread races to make them
    spellings = ["e" * k + "t" for k in range(300, 340)]
    built = [[] for _ in range(8)]
    start = threading.Barrier(len(built))

    def build(out):
        start.wait(timeout=10)
        out.extend(parse_type(s) for s in spellings)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(out,)) for out in built]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(len(out) == len(spellings) for out in built)
    for types in zip(*built):
        assert all(ty is types[0] for ty in types)
    assert all(ty is parse_type(s) for ty, s in zip(built[0], spellings))
