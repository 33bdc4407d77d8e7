import json
import random

import numpy as np
import pytest

import dsvs.lexicon as lexicon_module
from dsvs import EmptyCorpus, ParseError, ValidationError, fixture_path, load_lexicon
from dsvs.lexicon import (
    BOTTOM,
    TOP,
    CorpusExcerpt,
    Lexicon,
    Sense,
    build_cooccurrence,
    build_verb_matrix,
    parse_excerpts,
    read_corpus,
    save_lexicon,
    tokenize,
)
from dsvs.semtypes import SpaceMap, parse_type
from dsvs.tensor import Signature, Space, Tensor, direct_sum


def ex(eid, text):
    return CorpusExcerpt(eid, tuple(text.split()))


# ---------------------------------------------------------------------------
# tokenisation and corpus reading


def test_tokenize_lowercases_and_strips_punctuation():
    assert tokenize("The baby, who dribbles!") == ["the", "baby", "who", "dribbles"]
    assert tokenize("   'Mary'  liked   it...  ") == ["mary", "liked", "it"]
    assert tokenize("-- ... !!") == []
    assert tokenize("half-time isn't removed") == ["half-time", "isn't", "removed"]


def test_parse_excerpts_splits_on_blank_lines():
    text = "The baby dribbles.\nMilk everywhere!\n\n\nA footballer scores.\n\n"
    got = parse_excerpts(text, source="demo.txt")
    assert [e.excerpt_id for e in got] == ["demo.txt:0", "demo.txt:1"]
    assert got[0].tokens == ("the", "baby", "dribbles", "milk", "everywhere")
    assert got[1].tokens == ("a", "footballer", "scores")


def test_read_corpus_directory(tmp_path):
    (tmp_path / "b.txt").write_text("goal goal\n\npitch\n", encoding="utf-8")
    (tmp_path / "a.txt").write_text("infant nappy\n", encoding="utf-8")
    (tmp_path / "ignore.md").write_text("not corpus\n", encoding="utf-8")
    got = read_corpus(tmp_path)
    # files are taken in sorted order
    assert [e.excerpt_id for e in got] == ["a.txt:0", "b.txt:0", "b.txt:1"]
    with pytest.raises(FileNotFoundError):
        read_corpus(tmp_path / "missing_dir")


def test_excerpt_must_have_tokens():
    with pytest.raises(ValueError):
        CorpusExcerpt("x", ())


# ---------------------------------------------------------------------------
# counting


def test_cooccurrence_counts_by_hand():
    excerpts = [
        ex("0", "baby nappy baby"),
        ex("1", "baby infant"),
        ex("2", "goal"),
    ]
    got = build_cooccurrence(excerpts, ["baby"], ["infant", "nappy", "pitch", "goal"])
    assert got.tolist() == [[1, 1, 0, 0]]
    assert got.signature[0].basis == ("baby",)
    assert got.signature[1].basis == ("infant", "nappy", "pitch", "goal")


def test_cooccurrence_ignores_multiplicity():
    excerpts = [ex("0", "baby baby nappy nappy nappy")]
    got = build_cooccurrence(excerpts, ["baby"], ["nappy"])
    assert got.tolist() == [[1]]


def test_cooccurrence_word_cooccurs_with_itself():
    excerpts = [ex("0", "infant alone"), ex("1", "nothing here")]
    got = build_cooccurrence(excerpts, ["infant"], ["infant"])
    assert got.tolist() == [[1]]


def test_cooccurrence_empty_corpus():
    with pytest.raises(EmptyCorpus):
        build_cooccurrence([], ["a"], ["b"])


def test_verb_matrix_by_hand():
    excerpts = [
        ex("0", "dribble goal"),
        ex("1", "dribble infant"),
        ex("2", "dribble"),
    ]
    got = build_verb_matrix(excerpts, "dribble", ["infant", "nappy", "pitch", "goal"])
    assert got.signature[0].basis == ("infant", "nappy", "pitch", "goal")
    assert got.signature[1].basis == (TOP, BOTTOM)
    assert got.tolist() == [[1, 2], [0, 3], [0, 3], [1, 2]]


def test_verb_matrix_absent_verb_is_zero():
    excerpts = [ex("0", "infant nappy")]
    got = build_verb_matrix(excerpts, "dribble", ["infant", "nappy"])
    assert got.tolist() == [[0, 0], [0, 0]]
    with pytest.raises(EmptyCorpus):
        build_verb_matrix([], "dribble", ["infant"])


def test_verb_matrix_row_sums_equal_verb_excerpt_count():
    rng = random.Random(42)
    vocab = ["infant", "nappy", "pitch", "goal", "dribble", "milk", "shoe", "net"]
    for _ in range(10):
        excerpts = []
        for k in range(rng.randint(1, 12)):
            words = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
            excerpts.append(CorpusExcerpt(str(k), tuple(words)))
        verb = "dribble"
        props = ["infant", "nappy", "pitch", "goal"]
        got = build_verb_matrix(excerpts, verb, props)
        n_verb = sum(1 for e in excerpts if verb in e.tokens)
        for row in got.tolist():
            assert row[0] + row[1] == n_verb


# ---------------------------------------------------------------------------
# senses and lexicon objects

W = Space("W", ("w1", "w2"))
S = Space("S", (TOP, BOTTOM))
SMAP = SpaceMap(entity=W, sentence=S)


def noun(sid, word, data):
    return Sense(sid, word, parse_type("e"), Tensor(Signature((W,)), data))


def test_sense_needs_type_and_tensor_together():
    with pytest.raises(ValueError):
        Sense("x#n", "x", parse_type("e"), None)
    with pytest.raises(ValueError):
        Sense("x#n", "x", None, Tensor(Signature((W,)), [1, 2]))
    link = Sense("who#rel", "who", None, None)
    assert link.is_link


@pytest.mark.parametrize("fields, message", [
    ({"word": 1}, "id, word and forms must be strings"),
    ({"forms": ("babies", 2)}, "id, word and forms must be strings"),
    ({"sense_id": 3}, "id, word and forms must be strings"),
    ({"gloss": b"wet"}, "gloss must be a string"),
])
def test_a_sense_refuses_a_field_that_is_not_a_string(fields, message):
    # built in code, where load_lexicon's own checks do not run
    sense = {"sense_id": "x", "word": "x", "sem_type": None, "tensor": None} | fields
    with pytest.raises(ValidationError) as err:
        Lexicon(SMAP, (Sense(**sense),))
    assert str(err.value) == f"sense {sense['sense_id']!r}: {message}"


def test_lexicon_validation():
    a = noun("a#n", "a", [1, 2])
    with pytest.raises(ValidationError):
        Lexicon(SMAP, ())
    with pytest.raises(ValidationError):
        Lexicon(SMAP, (a, noun("a#n", "b", [3, 4])))
    bad = Sense("v#v", "v", parse_type("et"), Tensor(Signature((W,)), [1, 2]))
    with pytest.raises(ValidationError) as err:
        Lexicon(SMAP, (a, bad))
    assert "v#v" in str(err.value)


@pytest.mark.parametrize("formula", [
    direct_sum([Tensor(Signature((W, S)), [[1, 2], [3, 4]])] * 2),
    [[1, 2], [3, 4]],
    # one alternative, of another type's signature
    direct_sum([Tensor(Signature((W,)), [1, 2])]),
    [1, 2],
])
def test_lexicon_refuses_a_formula_that_is_not_a_tensor(formula):
    bad = Sense("v#v", "v", parse_type("et"), formula)
    with pytest.raises(ValidationError) as err:
        Lexicon(SMAP, (noun("a#n", "a", [1, 2]), bad))
    assert "v#v" in str(err.value) and type(formula).__name__ in str(err.value)


def test_lexicon_refuses_negative_entries():
    bad = noun("b#n", "b", [-34, 10])
    with pytest.raises(ValidationError) as err:
        Lexicon(SMAP, (noun("a#n", "a", [1, 2]), bad))
    assert "b#n" in str(err.value) and "-34" in str(err.value)


def test_lexicon_requires_a_two_point_sentence_space():
    s3 = Space("S", (TOP, BOTTOM, "?"))
    v = Sense("v#v", "v", parse_type("et"), Tensor(Signature((W, s3)), [[1, 2, 3]] * 2))
    with pytest.raises(ValidationError) as err:
        Lexicon(SpaceMap(entity=W, sentence=s3), (v,))
    assert "'S'" in str(err.value)


@pytest.mark.parametrize("entity", [S, Space("S", ("w1", "w2", "w3"))],
                         ids=["one-space", "one-name"])
def test_lexicon_refuses_entity_and_sentence_spaces_of_one_name(entity):
    # e and t would denote one signature, so their stand-ins would merge
    a = Sense("a#n", "a", parse_type("e"), Tensor(Signature((entity,)), [1] * entity.dim))
    with pytest.raises(ValidationError, match="different names, both are 'S'"):
        Lexicon(SpaceMap(entity=entity, sentence=S), (a,))


def test_lookup_covers_word_and_forms_in_declaration_order(split_lex):
    ids = [s.sense_id for s in split_lex.lookup("dribble")]
    assert ids == ["dribble#drip", "dribble#control"]
    assert ids == [s.sense_id for s in split_lex.lookup("dribbles")]
    assert split_lex.lookup("nonword") == []
    assert split_lex.sense("ball#n").word == "ball"
    with pytest.raises(KeyError):
        split_lex.sense("nothing#x")


# ---------------------------------------------------------------------------
# files


def test_load_bundled_lexicons(base_lex, split_lex, traces_lex):
    assert [s.sense_id for s in base_lex.senses] == [
        "baby#n", "milk#n", "footballer#n", "ball#n",
        "vomit#v", "score#v", "dribble#v", "control#v", "who#rel",
    ]
    assert base_lex.space_map.entity.basis == ("infant", "nappy", "pitch", "goal")
    assert base_lex.space_map.sentence.basis == (TOP, BOTTOM)
    assert base_lex.sense("baby#n").tensor.tolist() == [34, 10, 0, 0]
    assert base_lex.sense("dribble#v").tensor.tolist() == [
        [22, 2], [21, 3], [14, 10], [16, 8]]
    assert base_lex.sense("who#rel").is_link
    assert len(split_lex.senses) == 10
    assert len(traces_lex.senses) == 6


@pytest.mark.parametrize("surface, read", [
    ("Baby", "'baby'"), ("ice cream", "'ice' 'cream'"), ("milk,", "'milk'"), ("--", "nothing"),
])
def test_a_lexicon_refuses_a_surface_that_is_no_token(surface, read):
    w = Space("W", ("w1", "w2"))
    smap = SpaceMap(entity=w, sentence=Space("S", (TOP, BOTTOM)))
    e = parse_type("e")
    milk = Sense("milk#n", "milk", e, Tensor(Signature((w,)), [1, 2]))
    late = Sense("late#n", "Late", e, Tensor(Signature((w,)), [5, 6]))
    for baby in (Sense("baby#n", surface, e, Tensor(Signature((w,)), [3, 4])),
                 Sense("baby#n", "baby", e, Tensor(Signature((w,)), [3, 4]),
                       forms=("babies", surface))):
        # the first such surface in declaration order is named
        with pytest.raises(ValidationError) as err:
            Lexicon(smap, (milk, baby, late))
        assert str(err.value) == (f"sense 'baby#n': surface {surface!r} is not a token; "
                                  f"a sentence reads it as {read}")


@pytest.mark.parametrize("name", ["paper_s5", "lexicon", "paper_s4.json", ""])
def test_fixture_path_refuses_an_unknown_name(name):
    with pytest.raises(FileNotFoundError, match="no bundled lexicon named"):
        fixture_path(name)
    assert fixture_path("traces") == fixture_path("traces.lexicon")


def test_save_then_load_reproduces_everything(tmp_path, base_lex, split_lex, traces_lex):
    # a space the map does not name is checked on load, then dropped
    extra = _minimal_doc()
    extra["spaces"] = {"S": [TOP, BOTTOM], "X": ["x1"], "W": ["w1", "w2"]}
    for lex in (base_lex, split_lex, traces_lex, load_lexicon(_write(tmp_path, extra))):
        out = tmp_path / "roundtrip.lexicon"
        save_lexicon(lex, out)
        assert list(json.loads(out.read_text(encoding="utf-8"))["spaces"]) == ["W", "S"]
        again = load_lexicon(out)
        assert again == lex
        for s in again.senses:
            if s.tensor is not None:
                assert s.tensor.array.dtype == np.int64
                twin = lex.sense(s.sense_id).tensor
                assert s.tensor.array.tobytes() == twin.array.tobytes()


def _write(tmp_path, doc):
    p = tmp_path / "lex.lexicon"
    p.write_text(json.dumps(doc), encoding="utf-8")
    return p


def _minimal_doc():
    return {
        "format": "dsvs-lexicon/1",
        "spaces": {"W": ["w1", "w2"], "S": [TOP, BOTTOM]},
        "map": {"entity": "W", "sentence": "S"},
        "senses": [{"id": "a#n", "word": "a", "type": "e", "tensor": [1, 2]}],
    }


def test_load_reports_json_position(tmp_path):
    p = tmp_path / "broken.lexicon"
    p.write_text('{\n  "format": oops\n}', encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_lexicon(p)
    assert "line 2" in str(err.value)


def test_load_rejects_wrong_format_tag(tmp_path):
    doc = _minimal_doc()
    doc["format"] = "something/9"
    with pytest.raises(ParseError) as err:
        load_lexicon(_write(tmp_path, doc))
    assert "something/9" in str(err.value)


def test_load_rejects_missing_sense_fields(tmp_path):
    doc = _minimal_doc()
    del doc["senses"][0]["word"]
    with pytest.raises(ParseError) as err:
        load_lexicon(_write(tmp_path, doc))
    assert "word" in str(err.value)


def test_load_rejects_unknown_type_spelling(tmp_path):
    doc = _minimal_doc()
    doc["senses"][0]["type"] = "ee"
    with pytest.raises(ParseError) as err:
        load_lexicon(_write(tmp_path, doc))
    assert "a#n" in str(err.value)


def test_load_rejects_wrong_tensor_shape(tmp_path):
    doc = _minimal_doc()
    doc["senses"][0]["tensor"] = [1, 2, 3]
    with pytest.raises(ValidationError) as err:
        load_lexicon(_write(tmp_path, doc))
    assert "a#n" in str(err.value)


@pytest.mark.parametrize("entry", ["true", "NaN", "Infinity", "-Infinity", "1e999"])
def test_load_rejects_boolean_and_non_finite_entries(tmp_path, entry):
    p = _write(tmp_path, _minimal_doc())
    p.write_text(p.read_text(encoding="utf-8").replace("[1, 2]", f"[1, {entry}]"),
                 encoding="utf-8")
    with pytest.raises(ValidationError) as err:
        load_lexicon(p)
    assert "a#n" in str(err.value)


@pytest.mark.parametrize("entry", [str(2**63), str(2**64), str(-2**63 - 1)])
def test_load_rejects_integers_outside_int64(tmp_path, entry):
    # 2**63 beside a small int would load as a float, 2**64 as an object array
    p = _write(tmp_path, _minimal_doc())
    p.write_text(p.read_text(encoding="utf-8").replace("[1, 2]", f"[{entry}, 1]"),
                 encoding="utf-8")
    with pytest.raises(ValidationError) as err:
        load_lexicon(p)
    assert "a#n" in str(err.value) and entry in str(err.value)


def test_load_rejects_duplicate_sense_ids(tmp_path):
    doc = _minimal_doc()
    doc["senses"].append(dict(doc["senses"][0]))
    with pytest.raises(ValidationError) as err:
        load_lexicon(_write(tmp_path, doc))
    assert "a#n" in str(err.value)


def test_load_rejects_link_sense_with_tensor(tmp_path):
    doc = _minimal_doc()
    doc["senses"].append({"id": "who#rel", "word": "who", "type": "link",
                          "tensor": [1, 2]})
    with pytest.raises(ParseError):
        load_lexicon(_write(tmp_path, doc))


def test_load_rejects_map_to_undeclared_space(tmp_path):
    doc = _minimal_doc()
    doc["map"]["entity"] = "Q"
    with pytest.raises(ParseError):
        load_lexicon(_write(tmp_path, doc))


def test_load_rejects_one_space_mapped_as_entity_and_sentence(tmp_path):
    doc = _minimal_doc()
    doc["map"]["entity"] = "S"
    with pytest.raises(ValidationError, match="different names"):
        load_lexicon(_write(tmp_path, doc))


def test_load_missing_file():
    with pytest.raises(ParseError):
        load_lexicon("/definitely/not/here.lexicon")


def test_float_tensors_survive_round_trip(tmp_path):
    doc = _minimal_doc()
    doc["senses"][0]["tensor"] = [0.5, 2.25]
    lex = load_lexicon(_write(tmp_path, doc))
    t = lex.sense("a#n").tensor
    assert t.array.dtype == np.float64
    out = tmp_path / "again.lexicon"
    save_lexicon(lex, out)
    assert load_lexicon(out).sense("a#n").tensor == t


def test_a_load_converts_each_type_once_and_indexes_the_senses_by_type():
    lex = load_lexicon(fixture_path("paper_s4"))
    assert [ty.compact() for ty in lex.types] == ["e", "et", "eet"]
    for ty in lex.types:
        senses = lex.senses_of(ty)
        assert senses == tuple(s for s in lex.senses if s.sem_type is ty)
        # read-only rows of one array per type
        assert len({id(s.tensor.array.base) for s in senses}) == 1
        assert not any(s.tensor.array.flags.writeable for s in senses)
    assert lex.senses_of(None) == ()  # a link sense has no type


def test_a_load_resolves_each_type_spelling_once(monkeypatch):
    # paper_s4 spells three types (e, et, eet) over eight tensor senses
    spellings, types = [], []
    parse, signature = lexicon_module.parse_type, lexicon_module.signature_of
    monkeypatch.setattr(lexicon_module, "parse_type",
                        lambda text: spellings.append(text) or parse(text))
    monkeypatch.setattr(lexicon_module, "signature_of",
                        lambda ty, smap: types.append(str(ty)) or signature(ty, smap))
    for _ in range(2):  # kept for one load, not across loads
        spellings.clear()
        types.clear()
        lex = load_lexicon(fixture_path("paper_s4"))
        assert sum(s.tensor is not None for s in lex.senses) == 8
        assert sorted(spellings) == ["e", "eet", "et"]
        # once while reading the file, once more when Lexicon checks it
        assert sorted(types) == sorted(["e", "⟨e,t⟩", "⟨e,⟨e,t⟩⟩"] * 2)
