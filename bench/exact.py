"""Exact reference for the benchmark's correctness check.

Plain Python integers and lists only: no numpy and no import from dsvs, in
the manner of tests/oracles.py.  The module reads the same lexicon document
the program loads and predicts, for every operation the benchmark times,
what the program must return:

* the live candidates after each word, in discovery order, with the sense
  chosen for every word and the root vector of each finished tree;
* the plausibility scores and the ranking that `disambiguate` produces;
* the ranked entries that `expect` produces.

Tree shapes follow the growth rules that `dsvs.parser` documents: an axiom
requiring a proposition grows subject and predicate requirements; a sense
decorates the first reachable requirement leaf of its type; a two-place
verb grows an object requirement under a one-place one; `who` hangs a
relative clause off a finished entity node, with the head noun as the
clause's subject.  The pointer travels up from finished nodes (and from a
finished relative clause to its host) and down into subtrees that still
have requirements.  A leaf records which word filled it, so one shape
serves every sense assignment of the same word classes.

Values are computed from the shape, never stored in it.  An inner node is
the contraction of its functor against its argument; a proposition node is
further multiplied entrywise by every finished relative clause hanging in
its clause.  Open leaves take the `sum` stand-in of their type in closed
form: the sum of the lexicon tensors of that type plus the contraction of
the summed function tensors against the summed entities.  By bilinearity
that equals the enumerated inventory the program builds, and the collapsed
`direct_sum` root equals the `sum` root, so one evaluator checks both.
"""

from __future__ import annotations

INT64 = 1 << 64

# node fields: (type, filled_by, argument, functor, link, parent)
# filled_by is the word position that decorated a leaf, or None for an open
# requirement leaf.  Types are the compact spellings "e", "t", "et", "eet".
TYPE, FILLED, ARG, FUN, LINK, PARENT = range(6)


def wrap64(x: int) -> int:
    """The int64 two's-complement value congruent to x modulo 2**64."""
    x %= INT64
    return x - INT64 if x >= INT64 // 2 else x


# ---------------------------------------------------------------------------
# arithmetic on nested lists


def _add(a, b):
    if isinstance(a, list):
        return [_add(x, y) for x, y in zip(a, b)]
    return a + b


def _sum(tensors):
    total = tensors[0]
    for t in tensors[1:]:
        total = _add(total, t)
    return total


def apply(fun_type: str, f, a):
    """Contract a function tensor against an entity vector.

    A one-place predicate (et, signature W S) takes its argument at slot 0
    and gives a sentence vector; a two-place one (eet, W S W) takes it at
    its last slot and gives a one-place predicate.
    """
    if fun_type == "et":
        return [sum(f[i][s] * a[i] for i in range(len(a))) for s in range(len(f[0]))]
    if fun_type == "eet":
        return [
            [sum(row[j] * a[j] for j in range(len(a))) for row in f[i]]
            for i in range(len(f))
        ]
    raise ValueError(f"no application for type {fun_type!r}")


def hadamard(a, b):
    return [x * y for x, y in zip(a, b)]


# ---------------------------------------------------------------------------
# lexicon


class Lexicon:
    """Senses by surface word, plus the closed-form `sum` stand-ins."""

    def __init__(self, doc: dict):
        self.sentence_name = doc["map"]["sentence"]
        self.by_word: dict[str, list[tuple[str, str, object]]] = {}
        by_type: dict[str, list] = {"e": [], "et": [], "eet": []}
        for s in doc["senses"]:
            entry = (s["id"], s["type"], s.get("tensor"))
            for surface in (s["word"], *s.get("forms", [])):
                self.by_word.setdefault(surface, []).append(entry)
            if s["type"] in by_type:
                by_type[s["type"]].append(s["tensor"])
        e_sum = _sum(by_type["e"])
        et_sum = _sum(by_type["et"])
        # open leaves are only ever of type e, t or et: two-place verbs
        # arrive whole
        self.standin = {
            "e": e_sum,
            "t": apply("et", et_sum, e_sum),
            "et": _add(et_sum, apply("eet", _sum(by_type["eet"]), e_sum)),
        }

    def senses(self, word: str):
        return self.by_word[word]


# ---------------------------------------------------------------------------
# tree shapes


class Shape:
    """An immutable tree shape with a pointer; see the node fields above."""

    __slots__ = ("nodes", "pointer", "_complete", "_open")

    def __init__(self, nodes: tuple, pointer: int):
        self.nodes = nodes
        self.pointer = pointer
        self._complete: dict[int, bool] = {}
        self._open: dict[int, bool] = {}

    def complete(self, i: int) -> bool:
        """Node i carries a value: a filled leaf, or both daughters complete."""
        hit = self._complete.get(i)
        if hit is None:
            n = self.nodes[i]
            if n[ARG] is None:
                hit = n[FILLED] is not None
            else:
                hit = self.complete(n[ARG]) and self.complete(n[FUN])
            self._complete[i] = hit
        return hit

    def has_requirement(self, i: int) -> bool:
        """Some node at or under i (relative clauses included) is unmet."""
        hit = self._open.get(i)
        if hit is None:
            n = self.nodes[i]
            hit = not self.complete(i) or any(
                c is not None and self.has_requirement(c)
                for c in (n[ARG], n[FUN], n[LINK])
            )
            self._open[i] = hit
        return hit

    def finished(self) -> bool:
        return not self.has_requirement(0)

    def positions(self) -> list[int]:
        """Pointer positions reachable without a word, stored one first."""
        seen = [self.pointer]
        k = 0
        while k < len(seen):
            n = self.nodes[seen[k]]
            k += 1
            moves = []
            if n[PARENT] is not None and self.complete(seen[k - 1]):
                moves.append(n[PARENT])
            for c in (n[ARG], n[FUN], n[LINK]):
                if c is not None and self.has_requirement(c):
                    moves.append(c)
            for m in moves:
                if m not in seen:
                    seen.append(m)
        return seen


def _set(nodes: list, i: int, **fields) -> None:
    n = list(nodes[i])
    for name, value in fields.items():
        n[{"filled": FILLED, "arg": ARG, "fun": FUN, "link": LINK}[name]] = value
    nodes[i] = tuple(n)


def axiom() -> Shape:
    return Shape((("t", None, None, None, None, None),), 0)


def _grown(shape: Shape) -> Shape:
    """Growth of a pointed bare proposition requirement into two daughters."""
    p = shape.nodes[shape.pointer]
    if p[TYPE] == "t" and p[ARG] is None and p[FILLED] is None:
        base = len(shape.nodes)
        nodes = list(shape.nodes)
        _set(nodes, shape.pointer, arg=base, fun=base + 1)
        nodes.append(("e", None, None, None, None, shape.pointer))
        nodes.append(("et", None, None, None, None, shape.pointer))
        return Shape(tuple(nodes), base)
    return shape


def _act(shape: Shape, at: int, sense_type: str, word_pos: int) -> Shape | None:
    """One word action at node `at`, or None when the sense does not fit."""
    n = shape.nodes[at]
    base = len(shape.nodes)
    nodes = list(shape.nodes)
    if sense_type == "link":
        if n[TYPE] != "e" or not shape.complete(at) or n[LINK] is not None:
            return None
        _set(nodes, at, link=base)
        nodes.append(("t", None, base + 1, base + 2, None, at))
        nodes.append(("e", n[FILLED], None, None, None, base))
        nodes.append(("et", None, None, None, None, base))
        return Shape(tuple(nodes), base + 1)
    if not (n[ARG] is None and n[FILLED] is None):
        return None
    if sense_type == n[TYPE]:
        _set(nodes, at, filled=word_pos)
        return Shape(tuple(nodes), at)
    if sense_type == "e" + n[TYPE] and n[TYPE] != "t":
        _set(nodes, at, arg=base, fun=base + 1)
        nodes.append(("e", None, None, None, None, at))
        nodes.append((sense_type, word_pos, None, None, None, at))
        return Shape(tuple(nodes), base)
    return None


class Grammar:
    """Shape transitions, memoised: candidates share shapes heavily.

    Shapes hash by identity.  The word position is not part of the key
    because every candidate of one parse state is at the same position.
    """

    def __init__(self):
        self._memo: dict[tuple[Shape, str], Shape | None] = {}

    def step(self, shape: Shape, sense_type: str, word_pos: int) -> Shape | None:
        key = (shape, sense_type)
        if key not in self._memo:
            self._memo[key] = self._step(shape, sense_type, word_pos)
        return self._memo[key]

    @staticmethod
    def _step(shape: Shape, sense_type: str, word_pos: int) -> Shape | None:
        shape = _grown(shape)
        for at in shape.positions():
            grown = _act(shape, at, sense_type, word_pos)
            if grown is not None:
                return grown
        return None


# ---------------------------------------------------------------------------
# values


def root_value(shape: Shape, tensors: list, lexicon: Lexicon):
    """Root vector of a shape, open leaves filled by the `sum` stand-in.

    tensors[k] is the tensor of the sense chosen for word k.  On a
    finished shape this is the root the parser stores.
    """

    def value(i: int):
        n = shape.nodes[i]
        if n[ARG] is None:
            if n[FILLED] is None:
                return lexicon.standin[n[TYPE]]
            return tensors[n[FILLED]]
        v = apply(shape.nodes[n[FUN]][TYPE], value(n[FUN]), value(n[ARG]))
        if n[TYPE] == "t":
            for link in _links_in_clause(shape, i):
                if not shape.has_requirement(link):
                    v = hadamard(v, value(link))
        return v

    return value(0)


def _links_in_clause(shape: Shape, top: int) -> list[int]:
    found = []
    stack = [top]
    while stack:
        n = shape.nodes[stack.pop()]
        if n[LINK] is not None:
            found.append(n[LINK])
        stack.extend(c for c in (n[FUN], n[ARG]) if c is not None)
    return found


# ---------------------------------------------------------------------------
# the public operations


class Candidate:
    __slots__ = ("shape", "senses", "tensors")

    def __init__(self, shape, senses, tensors):
        self.shape = shape
        self.senses = senses
        self.tensors = tensors


class Parser:
    """Reference counterpart of parse_word, disambiguate and expect."""

    def __init__(self, lexicon_doc: dict):
        self.lexicon = Lexicon(lexicon_doc)
        self.grammar = Grammar()

    def initial(self) -> list[Candidate]:
        return [Candidate(axiom(), (), ())]

    def _advance(self, cands, sense):
        sid, stype, tensor = sense
        out = []
        for c in cands:
            nxt = self.grammar.step(c.shape, stype, len(c.senses))
            if nxt is not None:
                out.append(Candidate(nxt, c.senses + (sid,), c.tensors + (tensor,)))
        return out

    def parse_word(self, cands, word: str) -> list[Candidate]:
        """Successors in the program's order: sense-major, then candidate."""
        out = []
        for sense in self.lexicon.senses(word):
            out.extend(self._advance(cands, sense))
        if not out:
            raise ValueError(f"reference: no parse at {word!r}")
        return out

    def root(self, cand: Candidate) -> list[int]:
        return root_value(cand.shape, list(cand.tensors), self.lexicon)

    def word_output(self, cands) -> list:
        """What a parse_word call is checked on: senses, and finished roots."""
        return [
            (c.senses, self.root(c) if c.shape.finished() else None) for c in cands
        ]

    def disambiguate(self, cands) -> list[tuple[tuple, list[int]]]:
        """(senses, root) per candidate, discovery order; rank with `ranked`."""
        return [(c.senses, self.root(c)) for c in cands]

    def expect(self, cands, words) -> list[tuple]:
        """(word, sense_id, [roots of the successors] or None) per sense."""
        out = []
        for word in words:
            for sense in self.lexicon.senses(word):
                succ = self._advance(cands, sense)
                out.append((word, sense[0], [self.root(c) for c in succ] or None))
        return out


# ---------------------------------------------------------------------------
# scores and rankings, exact or as int64 would give them


def score(root, wrap: bool = False) -> tuple[int, int, float]:
    top, bottom = (wrap64(x) for x in root) if wrap else root
    total = top + bottom
    return top, bottom, 0.5 if total == 0 else top / total


def ranked(pairs, wrap: bool = False) -> list[tuple[tuple, tuple]]:
    """disambiguate's order: stable sort by descending ratio."""
    scored = [(senses, score(root, wrap)) for senses, root in pairs]
    scored.sort(key=lambda p: -p[1][2])
    return scored


def expect_entries(raw, wrap: bool = False) -> list[tuple]:
    """expect's order: scored entries by descending ratio, then the dead."""
    scored, dead = [], []
    for word, sid, roots in raw:
        if roots is None:
            dead.append((word, sid, None))
            continue
        best = max((score(r, wrap) for r in roots), key=lambda s: s[2])
        scored.append((word, sid, best))
    scored.sort(key=lambda e: -e[2][2])
    return scored + dead
