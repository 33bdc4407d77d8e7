"""Seeded inputs for the benchmark: lexicon documents and token lists.

Everything is a pure function of (workload, seed): the same pair gives the
same lexicon bytes and the same token lists on every machine.  Round k of a
workload is drawn from its own generator, so a run that measures more
rounds sees the same first rounds as a shorter one.

Word classes, as the generated lexicons spell them:

    n<i>   noun, type e; in `ambig` a noun has two or three senses n<i>#1..
    v<i>   one-place verb, type et
    t<i>   two-place verb, type eet
    who    relative pronoun, type link

Tensor entries are counts drawn uniformly from 0..3.  The sentence space is
the two-point space S = (⊤, ⊥) every dsvs lexicon uses.

Sentence shapes are fixed per workload and only the words and counts vary
with the seed, so the amount of parser and stand-in work per round, and
with it the timing distribution, does not depend on the seed.
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("relchain", "prefix", "ambig", "cli", "relchain-long")

MAX_COUNT = 3


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def _entries(rng: random.Random, shape: tuple[int, ...]):
    if not shape:
        return rng.randint(0, MAX_COUNT)
    return [_entries(rng, shape[1:]) for _ in range(shape[0])]


def lexicon_doc(rng: random.Random, dim: int, noun_senses: list[int],
                n_et: int, n_eet: int) -> dict:
    """A lexicon over W (dim labels) and S; noun i gets noun_senses[i] senses."""
    senses = []
    for i, k in enumerate(noun_senses):
        for j in range(1, k + 1):
            senses.append({"id": f"n{i}#{j}", "word": f"n{i}", "type": "e",
                           "tensor": _entries(rng, (dim,))})
    for i in range(n_et):
        senses.append({"id": f"v{i}#v", "word": f"v{i}", "type": "et",
                       "tensor": _entries(rng, (dim, 2))})
    for i in range(n_eet):
        senses.append({"id": f"t{i}#v", "word": f"t{i}", "type": "eet",
                       "tensor": _entries(rng, (dim, 2, dim))})
    senses.append({"id": "who#rel", "word": "who", "type": "link"})
    return {
        "format": "dsvs-lexicon/1",
        "spaces": {"W": [f"w{i}" for i in range(dim)], "S": ["⊤", "⊥"]},
        "map": {"entity": "W", "sentence": "S"},
        "senses": senses,
    }


def lexicon_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, ensure_ascii=False, indent=1) + "\n").encode("utf-8")


class Words:
    """Draws words of each class from a lexicon document."""

    def __init__(self, doc: dict, rng: random.Random):
        self.rng = rng
        self.by_class: dict[str, list[str]] = {}
        for s in doc["senses"]:
            words = self.by_class.setdefault(self._cls(s), [])
            if s["word"] not in words:
                words.append(s["word"])

    @staticmethod
    def _cls(sense) -> str:
        return {"e": "n", "et": "v", "eet": "t", "link": "w"}[sense["type"]]

    def sentence(self, pattern: str, nouns_by_senses=None) -> list[str]:
        """Words for a class pattern such as "n t n w t n".

        With nouns_by_senses, a digit after n (n2, n3) picks a noun with that
        many senses.
        """
        out = []
        for tok in pattern.split():
            if tok == "w":
                out.append("who")
            elif tok[0] == "n" and len(tok) > 1:
                out.append(self.rng.choice(nouns_by_senses[int(tok[1:])]))
            else:
                out.append(self.rng.choice(self.by_class[tok[0]]))
        return out

    def draw(self, cls: str, k: int) -> list[str]:
        return self.rng.sample(self.by_class[cls], k)


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Generated inputs of one workload: lexicons, then rounds of items."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.lexicons = self.make_lexicons(_rng(self.name, seed, "lexicon"))

    def make_lexicons(self, rng) -> dict[str, dict]:
        raise NotImplementedError

    def round(self, k: int) -> list:
        raise NotImplementedError


class RelChain(Workload):
    """Object-relative chains n t n (who t n)*, one sense per word.

    A root is the entrywise product of one clause vector per clause, and
    with dimension 8 and counts 0-3 each clause adds about 8.5 bits: a
    seven-clause (21-word) root can come within a bit of 2**63, and from
    eight clauses on roots pass it, where the program's int64 arithmetic
    wraps silently (ROADMAP item 4).  A benchmark op must not fail, so these
    chains stop at six clauses; `relchain-long` runs the same chains on to
    75 words and counts the wrapped ops as failed.
    """

    name = "relchain"
    LENGTHS = (6, 9, 12, 15, 18)

    def make_lexicons(self, rng):
        return {"main": lexicon_doc(rng, 8, [1] * 30, n_et=5, n_eet=14)}

    def round(self, k):
        words = Words(self.lexicons["main"], _rng(self.name, self.seed, "round", k))
        return [
            words.sentence("n t n" + " w t n" * ((length - 3) // 3))
            for length in self.LENGTHS
        ]


class RelChainLong(RelChain):
    """relchain's chains on to 75 words, past int64; run by hand, not gated."""

    name = "relchain-long"
    LENGTHS = (15, 27, 39, 51, 63, 75)


class Prefix(Workload):
    """Prefixes of 0-3 words over a wide vocabulary, each with 12 candidates.

    Items are (prefix, candidates).  The candidate list mixes one-place and
    two-place verbs, nouns and `who`, so some parse and some dead-end.  A
    round takes every shape once.
    """

    name = "prefix"
    SHAPES = ("", "n", "n t", "n w", "n t n", "n w t", "n w v")

    def make_lexicons(self, rng):
        return {"main": lexicon_doc(rng, 8, [1] * 40, n_et=22, n_eet=17)}

    def round(self, k):
        words = Words(self.lexicons["main"], _rng(self.name, self.seed, "round", k))
        items = []
        for shape in self.SHAPES:
            cands = words.draw("v", 4) + words.draw("t", 3) + words.draw("n", 4) + ["who"]
            words.rng.shuffle(cands)
            items.append((words.sentence(shape), cands))
        return items


AMBIG_SHAPES = (
    "n2 w t n2 t n2 w t n2",
    "n3 w t n2 w v t n2 w t n2",
    "n2 w t n2 w t n2 t n3 w t n2 w v",
    "n3 w t n2 w v t n2 w t n2 w t n3",
)


def _ambig_lexicon(rng) -> dict:
    return lexicon_doc(rng, 4, [2] * 6 + [3] * 3, n_et=6, n_eet=7)


def _nouns_by_senses(doc) -> dict[int, list[str]]:
    counts: dict[str, int] = {}
    for s in doc["senses"]:
        if s["type"] == "e":
            counts[s["word"]] = counts.get(s["word"], 0) + 1
    out: dict[int, list[str]] = {}
    for word, k in counts.items():
        out.setdefault(k, []).append(word)
    return out


class Ambig(Workload):
    """Sentences with subject and object relatives over ambiguous nouns.

    Items are (sentence, midpoint, candidates): expect runs on the first
    `midpoint` words with the candidate list.
    """

    name = "ambig"

    def make_lexicons(self, rng):
        return {"main": _ambig_lexicon(rng)}

    def round(self, k):
        doc = self.lexicons["main"]
        words = Words(doc, _rng(self.name, self.seed, "round", k))
        nouns = _nouns_by_senses(doc)
        items = []
        for shape in AMBIG_SHAPES:
            sentence = words.sentence(shape, nouns)
            cands = words.draw("v", 2) + words.draw("t", 2) + words.draw("n", 2) + ["who"]
            words.rng.shuffle(cands)
            items.append((sentence, len(sentence) // 2, cands))
        return items


class Cli(Workload):
    """dsvs command lines on ambig-style and prefix-style inputs.

    Items are (argv tail, lexicon name); the runner adds --lexicon.
    """

    name = "cli"

    def make_lexicons(self, rng):
        return {
            "ambig": _ambig_lexicon(rng),
            "prefix": lexicon_doc(rng, 8, [1] * 16, n_et=10, n_eet=8),
        }

    def round(self, k):
        rng = _rng(self.name, self.seed, "round", k)
        amb = Words(self.lexicons["ambig"], rng)
        nouns = _nouns_by_senses(self.lexicons["ambig"])
        pre = Words(self.lexicons["prefix"], rng)
        items = []
        for shape in ("n2 w v t n3", "n2 w t n2 t n2"):
            items.append((["parse", "--format", "json", " ".join(amb.sentence(shape, nouns))], "ambig"))
        for shape in ("n2 w t n2 v", "n3 t n2 w v"):
            items.append((["disambiguate", " ".join(amb.sentence(shape, nouns))], "ambig"))
        for shape in ("n", "n w"):
            cands = pre.draw("v", 2) + pre.draw("t", 2) + pre.draw("n", 1) + ["who"]
            items.append((["expect", "--after", " ".join(pre.sentence(shape)),
                           "--candidates", ",".join(cands)], "prefix"))
        return items


def workload(name: str, seed: int) -> Workload:
    classes = {c.name: c for c in (RelChain, RelChainLong, Prefix, Ambig, Cli)}
    return classes[name](seed)
