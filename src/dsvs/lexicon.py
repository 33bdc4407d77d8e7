"""Lexicons: senses with tensor formulae, and the counts that build them.

A lexicon file is JSON:

    {
      "format": "dsvs-lexicon/1",
      "spaces": {"W": ["infant", "nappy", "pitch", "goal"],
                 "S": ["⊤", "⊥"]},
      "map": {"entity": "W", "sentence": "S"},
      "senses": [
        {"id": "baby#n", "word": "baby", "forms": ["babies"],
         "type": "e", "tensor": [34, 10, 0, 0]},
        {"id": "vomit#v", "word": "vomit", "forms": ["vomits"],
         "type": "et", "tensor": [[10, 2], [9, 3], [3, 9], [0, 12]]},
        {"id": "who#rel", "word": "who", "type": "link"}
      ]
    }

The map names the entity and the sentence space, which must differ in
name; any other declared space is checked but not kept.  Tensor entries
nest outermost-first: an "et" sense is a list of rows, one per entity
basis label, each row one entry per sentence basis label.  A sense of
type "link" carries no tensor; it triggers adjunct-tree construction in
the parser instead of decorating a node.

Three lexicons ship with the package, in its fixtures directory, and
fixture_path finds each by name:

    paper_s4       four nouns, three one-place verbs, one two-place verb,
                   a relative pronoun; the worked-example counts over the
                   infant/nappy/pitch/goal property space.
    split_senses   same, but "dribble" split into a one-place leaking
                   sense and a two-place ball-control sense.
    traces         a tiny two-property lexicon used by the trace tests.

load_lexicon checks every sense's fields first, then builds each type's
tensors together (tensor.tensors_of), so each tensor is a read-only row
of one array per type.  If anything in that fails, the file is read again
sense by sense, each tensor built on its own, and the error raised is
that of the first bad sense in the file, as a load one sense at a time
would name it.

Corpus text is plain UTF-8.  Excerpts are separated by blank lines; tokens
are whitespace-split, lowercased, and stripped of leading and trailing
punctuation.  Counting is excerpt-level throughout: a word either occurs in
an excerpt or it does not, multiplicity is ignored.
"""

from __future__ import annotations

import json
import string
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from pathlib import Path

import numpy as np

from .errors import DsvsError, EmptyCorpus, ParseError, ValidationError
from .semtypes import SemType, SpaceMap, parse_type, signature_of
from .tensor import Signature, Space, Tensor, tensors_of

TOP = "⊤"
BOTTOM = "⊥"

FORMAT_TAG = "dsvs-lexicon/1"

_STRIP = string.punctuation + "‘’“”…"


def tokenize(text: str) -> list[str]:
    """Lowercase, whitespace-split, strip edge punctuation, drop empties."""
    out = []
    for raw in text.lower().split():
        tok = raw.strip(_STRIP)
        if tok:
            out.append(tok)
    return out


@dataclass(frozen=True)
class CorpusExcerpt:
    """One blank-line-delimited stretch of corpus text, already tokenized."""

    excerpt_id: str
    tokens: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if not self.tokens:
            raise ValueError(f"excerpt {self.excerpt_id!r} has no tokens")


def parse_excerpts(text: str, source: str = "<string>") -> list[CorpusExcerpt]:
    """Split corpus text on blank lines into tokenized excerpts."""
    blocks = groupby(text.splitlines(), key=lambda line: bool(line.strip()))
    tokenized = (tokenize(" ".join(lines)) for filled, lines in blocks if filled)
    return [CorpusExcerpt(f"{source}:{k}", toks)
            for k, toks in enumerate(t for t in tokenized if t)]


def read_text(path, what: str) -> str:
    """A file's text, decoded as UTF-8.

    A file that cannot be read (missing, a directory, no permission) or
    decoded raises ParseError naming what it is and its path.
    """
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot read {what} {Path(path)}: {e}")


def read_corpus(path) -> list[CorpusExcerpt]:
    """Read every *.txt file under a directory (or one file) as excerpts.

    A missing path raises FileNotFoundError; a file that cannot be read or
    decoded, ParseError (see read_text).
    """
    p = Path(path)
    if p.is_dir():
        files = sorted(p.glob("*.txt"))
    elif p.is_file():
        files = [p]
    else:
        raise FileNotFoundError(f"no corpus at {p}")
    excerpts = []
    for f in files:
        excerpts.extend(parse_excerpts(read_text(f, "corpus file"), source=f.name))
    return excerpts


# ---------------------------------------------------------------------------
# counting


def build_cooccurrence(
    excerpts: list[CorpusExcerpt],
    targets: list[str],
    contexts: list[str],
) -> Tensor:
    """Excerpt-level co-occurrence counts.

    Entry (i, j) is the number of excerpts in which both targets[i] and
    contexts[j] occur at least once.  The result is a tensor over
    Space("targets", targets) @ Space("contexts", contexts).
    """
    if not excerpts:
        raise EmptyCorpus("cannot count over zero excerpts")
    t_space = Space("targets", tuple(targets))
    c_space = Space("contexts", tuple(contexts))
    counts = np.zeros((t_space.dim, c_space.dim), dtype=np.int64)
    for ex in excerpts:
        present = set(ex.tokens)
        t_hits = [i for i, w in enumerate(targets) if w in present]
        if not t_hits:
            continue
        c_hits = [j for j, w in enumerate(contexts) if w in present]
        for i in t_hits:
            for j in c_hits:
                counts[i, j] += 1
    return Tensor(Signature((t_space, c_space)), counts)


def build_verb_matrix(
    excerpts: list[CorpusExcerpt],
    verb: str,
    properties: list[str],
) -> Tensor:
    """Count a verb's truth-value profile against a set of properties.

    Restricted to excerpts containing the verb: entry (p, top) counts those
    that also contain p, entry (p, bottom) those that do not.  Rows
    therefore all sum to the number of excerpts containing the verb: the
    top column is build_cooccurrence's row for the verb, and the bottom
    column that number less it.  The result lives over
    Space("W", properties) @ Space("S", (top, bottom)).
    """
    if not excerpts:  # before the space is built, so it is refused first
        raise EmptyCorpus("cannot count over zero excerpts")
    w_space = Space("W", tuple(properties))
    top = build_cooccurrence(excerpts, [verb], properties).array[0]
    bottom = sum(verb in ex.tokens for ex in excerpts) - top
    return Tensor(Signature((w_space, Space("S", (TOP, BOTTOM)))), np.stack([top, bottom], 1))


# ---------------------------------------------------------------------------
# senses and lexicons

LINK_TYPE = "link"


@dataclass(frozen=True)
class Sense:
    """One sense of a surface word.

    Tensor-bearing senses pair a semantic type with a formula of the
    matching signature.  Link senses (sem_type and tensor both None) carry
    no content of their own; they trigger adjunct-tree construction.
    Extra surface forms ("babies" for "baby") resolve to the same sense.
    The id, word and forms are strings, and the gloss a string or None.
    """

    sense_id: str
    word: str
    sem_type: SemType | None
    tensor: Tensor | None
    gloss: str | None = None
    forms: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "forms", tuple(self.forms))
        if (self.sem_type is None) != (self.tensor is None):
            raise ValueError(
                f"sense {self.sense_id!r} must carry both a type and a tensor, "
                f"or neither"
            )
        if not (isinstance(self.sense_id, str) and isinstance(self.word, str)
                and all(isinstance(f, str) for f in self.forms)):
            raise ValidationError(f"sense {self.sense_id!r}: id, word and forms "
                                  f"must be strings")
        if self.gloss is not None and not isinstance(self.gloss, str):
            raise ValidationError(f"sense {self.sense_id!r}: gloss must be a string")

    @property
    def is_link(self) -> bool:
        return self.sem_type is None


def _check_space_map(smap: SpaceMap) -> None:
    """Refuse a space map that cannot be scored, with ValidationError.

    The sentence space has two basis labels: evidence for, then against.
    The entity space has another name: a type's stand-in is keyed by its
    signature, so e and t must never denote the same one.
    """
    sentence = smap.sentence
    if sentence.dim != 2:
        raise ValidationError(
            f"sentence space {sentence.name!r} must have exactly 2 basis "
            f"labels (evidence for, against), got {sentence.dim}"
        )
    if smap.entity.name == sentence.name:
        raise ValidationError(f"entity and sentence spaces must have different "
                              f"names, both are {sentence.name!r}")


@dataclass(frozen=True)
class Lexicon:
    """An ordered collection of senses over a space map's two spaces.

    The sentence space has two basis labels, evidence for then against,
    and the entity space has another name.  Tensor entries are counts or
    weights, so none may be negative.  Every surface, word or form, is a
    token: tokenize reads it as exactly itself.

    The senses are indexed once, in the pass that checks them: by surface
    (lookup) and by type (types, senses_of), each list in
    declaration order, so a stand-in reads a type's senses without a scan
    of the whole lexicon.

    stand_ins and type_sums are derived data, not part of the lexicon's
    value: the interpreter fills them lazily, stand_ins with one stand-in
    per (signature, strategy) and type_sums with the sum_tensors of one
    type's senses per type, which is sound because a lexicon never
    changes.
    """

    space_map: SpaceMap
    senses: tuple[Sense, ...]
    _by_surface: dict = field(init=False, repr=False, compare=False)
    _by_type: dict = field(init=False, repr=False, compare=False)
    stand_ins: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    type_sums: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "senses", tuple(self.senses))
        if not self.senses:
            raise ValidationError("a lexicon must declare at least one sense")
        _check_space_map(self.space_map)
        seen = set()
        signatures = {}  # each distinct type's signature, resolved once
        by_type: dict[SemType, list[Sense]] = {}
        index: dict[str, list[Sense]] = {}
        # one test over every entry; each sense's own only if it fails
        arrays = [s.tensor.array for s in self.senses if isinstance(s.tensor, Tensor)]
        negative = bool(arrays) and bool((np.concatenate(arrays, axis=None) < 0).any())
        for s in self.senses:
            if s.sense_id in seen:
                raise ValidationError(f"duplicate sense id {s.sense_id!r}")
            seen.add(s.sense_id)
            for surface in (s.word, *s.forms):
                listed = index.setdefault(surface, [])
                if not listed or listed[-1] is not s:  # once, if s lists it twice
                    listed.append(s)
            if s.tensor is None:
                continue
            sig = signatures.get(s.sem_type)
            if sig is None:
                sig = signatures[s.sem_type] = signature_of(s.sem_type, self.space_map)
            if not (isinstance(s.tensor, Tensor) and s.tensor.signature == sig):
                got = (f"tensor signature {s.tensor.signature!r}" if isinstance(s.tensor, Tensor)
                       else f"a {type(s.tensor).__name__} formula")
                raise ValidationError(
                    f"sense {s.sense_id!r}: {got} does not fit type {s.sem_type} "
                    f"(expected {sig!r})"
                )
            if negative and (s.tensor.array < 0).any():
                raise ValidationError(f"sense {s.sense_id!r}: negative tensor "
                                      f"entry {s.tensor.array.min().item()}")
            by_type.setdefault(s.sem_type, []).append(s)
        # no sentence reaches a surface that tokenize does not read as
        # itself; one call over the distinct surfaces settles a lexicon
        # that passes
        if tokenize(" ".join(index)) != list(index):
            s, surface = next((s, w) for s in self.senses for w in (s.word, *s.forms)
                              if tokenize(w) != [w])
            read = " ".join(map(repr, tokenize(surface))) or "nothing"
            raise ValidationError(f"sense {s.sense_id!r}: surface {surface!r} is not "
                                  f"a token; a sentence reads it as {read}")
        object.__setattr__(self, "_by_surface", index)
        object.__setattr__(self, "_by_type", {ty: tuple(ss) for ty, ss in by_type.items()})

    def lookup(self, surface: str) -> list[Sense]:
        """All senses reachable from a surface token, each once, in
        declaration order."""
        return list(self._by_surface.get(surface, []))

    @property
    def types(self) -> tuple[SemType, ...]:
        """The types of the tensor senses, each once, in order of first
        declaration."""
        return tuple(self._by_type)

    def senses_of(self, sem_type: SemType) -> tuple[Sense, ...]:
        """The senses of one type, in declaration order; a link sense has
        no type, so none is listed under any."""
        return self._by_type.get(sem_type, ())

    @cached_property
    def integer(self) -> bool:
        """Is every tensor of the lexicon int64?  Then so is every value
        computed from it, and int64 sums and products give the same bits
        in any order and in any array shape."""
        return all(s.tensor.array.dtype.kind == "i" for s in self.senses if s.tensor is not None)

    def sense(self, sense_id: str) -> Sense:
        for s in self.senses:
            if s.sense_id == sense_id:
                return s
        raise KeyError(f"no sense with id {sense_id!r}")


# ---------------------------------------------------------------------------
# file format


def fixture_path(name: str) -> Path:
    """Filesystem path of a bundled lexicon, e.g. fixture_path("paper_s4").

    The files sit in the fixtures directory beside this module, which is
    read anew on each call.
    """
    if not name.endswith(".lexicon"):
        name += ".lexicon"
    p = Path(__file__).parent / "fixtures" / name
    if not p.is_file():
        raise FileNotFoundError(f"no bundled lexicon named {name!r}")
    return p


def _read_sense(obj, pos: int, smap: SpaceMap, resolved: dict) -> tuple:
    """One entry of 'senses', its fields checked, as (id, word, SemType,
    signature, tensor entries, gloss, forms), the type, signature and
    entries None for a link sense; resolved maps each type spelling
    already met in this file to its SemType and signature, and gains this
    one's."""
    if not isinstance(obj, dict):
        raise ParseError(f"senses[{pos}]: expected an object")
    try:
        sid = obj["id"]
        word = obj["word"]
        tyname = obj["type"]
    except KeyError as e:
        raise ParseError(f"senses[{pos}]: missing required field {e.args[0]!r}")
    if not isinstance(sid, str) or not isinstance(word, str) or not isinstance(tyname, str):
        raise ParseError(f"senses[{pos}]: id, word and type must be strings")
    gloss = obj.get("gloss")
    if gloss is not None and not isinstance(gloss, str):
        raise ParseError(f"senses[{pos}] ({sid}): gloss must be a string")
    forms = obj.get("forms", [])
    if not isinstance(forms, list) or not all(isinstance(f, str) for f in forms):
        raise ParseError(f"senses[{pos}] ({sid}): forms must be a list of strings")

    if tyname == LINK_TYPE:
        if "tensor" in obj:
            raise ParseError(f"senses[{pos}] ({sid}): link senses carry no tensor")
        return sid, word, None, None, None, gloss, tuple(forms)

    if tyname not in resolved:
        try:
            ty = parse_type(tyname)
        except ValueError:
            raise ParseError(f"senses[{pos}] ({sid}): unrecognised type {tyname!r}")
        resolved[tyname] = ty, signature_of(ty, smap)
    ty, sig = resolved[tyname]
    if "tensor" not in obj:
        raise ParseError(f"senses[{pos}] ({sid}): missing required field 'tensor'")
    return sid, word, ty, sig, obj["tensor"], gloss, tuple(forms)


def _parse_sense(obj, pos: int, smap: SpaceMap, resolved: dict) -> Sense:
    """One entry of 'senses', its tensor built on its own, so that a bad
    one is named as the sense it belongs to."""
    sid, word, ty, sig, entries, gloss, forms = _read_sense(obj, pos, smap, resolved)
    if ty is None:
        return Sense(sid, word, None, None, gloss=gloss, forms=forms)
    try:
        tensor = Tensor(sig, entries)
    except (TypeError, ValueError, RecursionError) as e:
        raise ValidationError(f"sense {sid!r}: bad tensor: {e}")
    return Sense(sid, word, ty, tensor, gloss=gloss, forms=forms)


def _parse_senses(senses_obj: list, smap: SpaceMap, resolved: dict) -> list[Sense]:
    """Every entry of 'senses', each entry's fields checked first, then
    each type's tensors built together (tensors_of).  What fails raises
    as it comes, not as _parse_sense names it."""
    fields = [_read_sense(o, i, smap, resolved) for i, o in enumerate(senses_obj)]
    by_type: dict = {}  # each type's signature and its senses' positions
    for k, (_, _, ty, sig, _, _, _) in enumerate(fields):
        if ty is not None:
            by_type.setdefault(ty, (sig, []))[1].append(k)
    tensors: list = [None] * len(fields)
    for sig, positions in by_type.values():
        for k, t in zip(positions, tensors_of(sig, [fields[k][4] for k in positions])):
            tensors[k] = t
    return [Sense(sid, word, ty, t, gloss=gloss, forms=forms)
            for (sid, word, ty, _, _, gloss, forms), t in zip(fields, tensors)]


def load_lexicon(path) -> Lexicon:
    """Read and validate a lexicon file.

    Syntax problems raise ParseError with file and position information,
    and a document nested too deeply to decode, ParseError naming the file;
    well-formed files that break a consistency rule (duplicate sense ids,
    tensors that do not fit their type, tensor entries that are negative,
    booleans, non-finite or integers outside int64, a sentence space not
    of 2 labels or an entity space of the same name, a word or form that
    is not a token) raise ValidationError naming the offending sense or
    space.  The map is checked before any sense is read.  Every declared
    space is checked; the lexicon keeps the two the map names.
    """
    p = Path(path)
    text = read_text(p, "lexicon")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{p}: line {e.lineno} column {e.colno}: {e.msg}")
    except RecursionError:
        raise ParseError(f"{p}: nested too deeply to decode")

    if not isinstance(doc, dict):
        raise ParseError(f"{p}: top level must be an object")
    tag = doc.get("format")
    if tag != FORMAT_TAG:
        raise ParseError(f"{p}: expected format {FORMAT_TAG!r}, got {tag!r}")

    spaces_obj = doc.get("spaces")
    if not isinstance(spaces_obj, dict) or not spaces_obj:
        raise ParseError(f"{p}: 'spaces' must be a non-empty object")
    by_name = {}
    for name, basis in spaces_obj.items():
        if not isinstance(basis, list) or not all(isinstance(b, str) for b in basis):
            raise ParseError(f"{p}: space {name!r}: basis must be a list of strings")
        try:
            by_name[name] = Space(name, tuple(basis))
        except ValueError as e:
            raise ValidationError(f"{p}: {e}")

    map_obj = doc.get("map")
    if not isinstance(map_obj, dict):
        raise ParseError(f"{p}: 'map' must be an object")
    try:
        smap = SpaceMap(entity=by_name[map_obj["entity"]], sentence=by_name[map_obj["sentence"]])
    except KeyError as e:
        raise ParseError(f"{p}: 'map' must name declared spaces for 'entity' and "
                         f"'sentence' (missing {e.args[0]!r})")
    except TypeError:  # a name that cannot be a key, such as a list
        raise ParseError(f"{p}: 'map' must name each space by a string, "
                         f"got {map_obj!r}")
    _check_space_map(smap)

    senses_obj = doc.get("senses")
    if not isinstance(senses_obj, list):
        raise ParseError(f"{p}: 'senses' must be an array")
    resolved: dict = {}
    try:
        senses = _parse_senses(senses_obj, smap, resolved)
    except (DsvsError, TypeError, ValueError, RecursionError):
        # sense by sense, so the error is the first bad sense's, in order
        senses = [_parse_sense(o, i, smap, resolved) for i, o in enumerate(senses_obj)]
    return Lexicon(smap, tuple(senses))


def save_lexicon(lexicon: Lexicon, path) -> None:
    """Write a lexicon back out; load_lexicon(save) reproduces it exactly.

    "spaces" holds the space map's two spaces, entity first.
    """
    doc = {
        "format": FORMAT_TAG,
        "spaces": {sp.name: list(sp.basis) for sp in lexicon.space_map},
        "map": {
            "entity": lexicon.space_map.entity.name,
            "sentence": lexicon.space_map.sentence.name,
        },
        "senses": [],
    }
    for s in lexicon.senses:
        entry: dict = {"id": s.sense_id, "word": s.word}
        if s.forms:
            entry["forms"] = list(s.forms)
        if s.is_link:
            entry["type"] = LINK_TYPE
        else:
            entry["type"] = s.sem_type.compact()
            entry["tensor"] = s.tensor.tolist()
        if s.gloss is not None:
            entry["gloss"] = s.gloss
        doc["senses"].append(entry)
    Path(path).write_text(
        json.dumps(doc, ensure_ascii=False, indent=2) + "\n", encoding="utf-8"
    )
