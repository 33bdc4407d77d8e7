"""Scoring trees, finished or not.

A finished tree carries a vector over the sentence space at its root; its
first coordinate is evidence for the sentence, the second against, and the
ratio top / (top + bottom) is the plausibility read off it.

An unfinished tree still denotes something: every unmet requirement stands
for a value not yet heard.  compile_root values the nodes storing no
formula bottom-up, with a stand-in at each requirement leaf by strategy:

    unit        the all-ones tensor of the right signature
    sum         the entrywise sum of every known tensor of that signature
    direct_sum  the same tensors kept apart as a tuple of alternatives

"Known tensors of a signature" means lexicon formulae of that signature
plus every one-argument saturation of a lexicon function against a lexicon
entity that lands in it.  known_inhabitants lists them lazily, as a
labelled inventory whose saturations are contracted only when read.
Contraction is bilinear, so the sum stand-in needs no enumeration: it is
the lexicon formulae plus at most one contraction, of summed functions
against summed entities, which makes it linear in lexicon size.  A
lexicon never changes, so each stand-in is built once per lexicon,
signature and strategy, on first use, and kept in the lexicon's
stand_ins.

parser.evaluate composes plain tensors only; the direct_sum rule lives
here, in compile_root.  Contraction and mu are multilinear, so a
direct_sum root is the tree evaluated once per choice of alternative at
each open leaf, and the sum of those values is the tree evaluated once
with each leaf's alternatives summed, which is the sum stand-in.
compile_root makes that one collapsed pass, so scoring a direct_sum root
costs what scoring a sum root does and on float lexicons gives the same
ratio bit for bit, and it re-evaluates the open spine for a component
only when someone reads it.

On those root values the module ranks: disambiguate orders a state's live
candidates by plausibility, expect orders candidate next words by the
plausibility of the parse that would follow.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import inf, prod
from typing import NamedTuple

from .errors import NoInhabitants, NonFiniteEntry, SignatureMismatch
from .lexicon import Lexicon
from .parser import ParseState, Tree, advance_with_sense, evaluate
from .semtypes import E, application_slot, signature_of
from .tensor import (
    Signature,
    Tensor,
    TensorTuple,
    contract,
    sum_tensors,
    unit_tensor,
)

STRATEGIES = ("unit", "sum", "direct_sum")


def known_inhabitants(signature: Signature, lexicon: Lexicon) -> Inventory:
    """Labelled tensors of a signature derivable from the lexicon.

    Lexicon formulae of the signature come first, in declaration order,
    then one-argument saturations: each function sense contracted against
    each entity sense at the function's application slot, for functions
    whose result type denotes the requested signature.  Saturations are
    labelled "function+argument".

    The result is a read-only lazy sequence of (label, tensor) pairs:
    finding the senses contracts nothing, a saturation is contracted when
    its item is read, and Inventory.total gives the sum of every item in
    closed form.
    """
    direct, functions, entities = [], [], []
    smap = lexicon.space_map
    for s in lexicon.senses:
        if s.tensor is None:
            continue
        if s.sem_type is E:
            entities.append(s)
        elif s.sem_type.is_function and signature_of(s.sem_type.res, smap) == signature:
            functions.append(s)
        if s.tensor.signature == signature:
            direct.append((s.sense_id, s.tensor))
    return Inventory(tuple(direct), tuple(functions), tuple(entities))


class _Lazy(Sequence):
    """A read-only sequence of n items, item(i) computed when read, for
    0 <= i < n; indexing adds negative indices, slices (as tuples) and
    IndexError."""

    __slots__ = ("_n", "_item")

    def __init__(self, n: int, item):
        self._n, self._item = n, item

    def __len__(self):
        return self._n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self._item(k) for k in range(self._n)[i])
        return self._item(range(self._n)[i])


class Inventory(_Lazy):
    """The labelled tensors of one signature, as known_inhabitants lists them.

    direct holds (sense id, tensor) for the lexicon formulae of the
    signature, functions the function senses whose result lands in it,
    entities the entity senses.  Only one type of the family denotes a
    given signature, so every function here has the same type and binds
    its argument at the same application slot.  Items are direct first,
    then one saturation per (function, entity) pair, function-major; a
    saturation is contracted each time it is read.
    """

    __slots__ = ("_direct", "_functions", "_entities")

    def __init__(self, direct, functions, entities):
        def item(i):  # holds the tuples, not self: no reference cycle
            if i < len(direct):
                return direct[i]
            k, j = divmod(i - len(direct), len(entities))
            f, a = functions[k], entities[j]
            slot = application_slot(f.sem_type)
            return f"{f.sense_id}+{a.sense_id}", contract(f.tensor, a.tensor, [(slot, 0)])

        super().__init__(len(direct) + len(functions) * len(entities), item)
        self._direct, self._functions, self._entities = direct, functions, entities

    def total(self) -> Tensor:
        """Entrywise sum of every item (there must be one), in closed form.

        Contraction is bilinear, so the saturations sum to one contraction:
        contract(sum of the functions, sum of the entities) at their shared
        slot.  The total is the direct tensors plus that term, if there is
        a function and an entity.
        """
        parts = [t for _, t in self._direct]
        if self._functions and self._entities:
            parts.append(contract(
                sum_tensors([f.tensor for f in self._functions]),
                sum_tensors([a.tensor for a in self._entities]),
                [(application_slot(self._functions[0].sem_type), 0)],
            ))
        return sum_tensors(parts)


def _check_strategy(strategy: str) -> None:
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")


def underspec_tensor(signature: Signature, strategy: str, lexicon: Lexicon):
    """Stand-in value for a requirement of the given signature.

    sum is the inventory's closed-form total, direct_sum the inventory's
    tensors as a lazy TensorTuple collapsing to that total, so neither
    enumerates the lexicon's (function, entity) pairs.  Built once per
    lexicon, signature and strategy, then served from lexicon.stand_ins;
    tensors are immutable, so sharing them is safe.  Failures are not
    remembered and raise again on every call, so the strategy is checked
    only when no stand-in is kept for it: an unknown one never is.
    """
    key = (signature, strategy)
    value = lexicon.stand_ins.get(key)
    if value is not None:
        return value
    _check_strategy(strategy)
    if strategy == "unit":
        value = unit_tensor(signature)
    else:
        inventory = known_inhabitants(signature, lexicon)
        if not len(inventory):
            raise NoInhabitants(f"lexicon has no tensors of signature {signature!r}")
        value = inventory.total()
        if strategy == "direct_sum":
            tensors = _Lazy(len(inventory), lambda i: inventory[i][1])
            value = TensorTuple(tensors, collapsed=value)
    lexicon.stand_ins[key] = value
    return value


def compile_root(tree: Tree, lexicon: Lexicon, strategy: str = "sum"):
    """Root value of a tree, unmet requirements filled by strategy.

    One evaluate pass computes only the nodes that store no formula and
    takes every stored formula as it is, so a finished tree scores by its
    stored root with no contraction.  Finished adjunct trees fold into
    their clause's proposition node entrywise; unfinished adjuncts do not
    contribute.

    Under direct_sum that pass fills each open leaf with its stand-in's
    collapse (exactly the sum stand-in), and a tree with open leaves
    comes back as TensorTuple(components, collapsed=root).  Component i
    is the open spine evaluated with open leaf k fixed to alternative k of
    i, read as a mixed-radix number over the open leaves in the order
    evaluate asks for them, the first leaf least significant.  Every pass
    over one tree asks for the same leaves in the same order, so a
    component's pass is filled from its digits in that order.  Components
    are computed when read; len() computes none.  An unknown strategy
    raises ValueError, whether or not the tree has an open leaf.
    """
    _check_strategy(strategy)
    open_leaves: list = []

    def stand_in(node):
        sig = signature_of(node.sem_type, lexicon.space_map)
        value = underspec_tensor(sig, strategy, lexicon)
        if isinstance(value, TensorTuple):
            open_leaves.append(value.components)
            return value.collapse()
        return value

    root = evaluate(tree, stand_in)
    if not open_leaves:
        return root

    def component(i):
        chosen = []
        for alternatives in open_leaves:
            i, digit = divmod(i, len(alternatives))
            chosen.append(alternatives[digit])
        fill = iter(chosen)
        return evaluate(tree, lambda node: next(fill))

    n = prod(len(alternatives) for alternatives in open_leaves)
    return TensorTuple(_Lazy(n, component), collapsed=root)


# ---------------------------------------------------------------------------
# scoring


class PlausibilityScore(NamedTuple):
    """Evidence for and against a sentence, with their normalised ratio."""

    top: float
    bottom: float
    ratio: float

    @classmethod
    def of(cls, vector: Tensor) -> "PlausibilityScore":
        if vector.signature.dims != (2,):
            raise SignatureMismatch(
                f"plausibility needs a vector over a two-point space, got "
                f"{vector.signature!r}"
            )
        top, bottom = vector.tolist()
        total = top + bottom
        if abs(total) == inf:  # two finite floats can overflow; ints cannot
            raise NonFiniteEntry(f"plausibility total {top} + {bottom} is not a finite number")
        ratio = 0.5 if total == 0 else top / total
        return cls(top, bottom, ratio)


def plausibility(vector) -> PlausibilityScore:
    """Score a sentence-space value; tuples collapse by entrywise sum."""
    if isinstance(vector, TensorTuple):
        vector = vector.collapse()
    return PlausibilityScore.of(vector)


def score_candidate(candidate, lexicon: Lexicon, strategy: str = "sum") -> PlausibilityScore:
    return plausibility(compile_root(candidate.tree, lexicon, strategy))


def disambiguate(state: ParseState, lexicon: Lexicon, strategy: str = "sum"):
    """Live candidates ranked by plausibility, most plausible first.

    Returns (candidate, score) pairs.  Sorting is stable, so candidates
    with equal ratios keep their discovery order.
    """
    scored = [
        (cand, score_candidate(cand, lexicon, strategy))
        for cand in state.candidates
    ]
    scored.sort(key=lambda pair: -pair[1].ratio)
    return scored


class ExpectEntry(NamedTuple):
    """One candidate continuation: a word, the sense tried, its score.

    score is None when no live parse accepts the word under that sense;
    such entries sort after every scored one.
    """

    word: str
    sense_id: str | None
    score: PlausibilityScore | None


def expect(state: ParseState, words, lexicon: Lexicon, strategy: str = "sum") -> list[ExpectEntry]:
    """Rank candidate next words by the plausibility of what would follow.

    Each word is tried sense by sense against every live candidate; a
    sense's score is the best plausibility among the parses it yields.
    Words or senses that nothing accepts come back with score None, after
    all scored entries.  An unknown strategy raises ValueError, whether
    or not any word is scored.
    """
    _check_strategy(strategy)
    scored: list[ExpectEntry] = []
    dead: list[ExpectEntry] = []
    for word in words:
        senses = lexicon.lookup(word)
        if not senses:
            dead.append(ExpectEntry(word, None, None))
            continue
        for sense in senses:
            survivors = advance_with_sense(state, sense)
            if not survivors:
                dead.append(ExpectEntry(word, sense.sense_id, None))
                continue
            best = max(
                (score_candidate(c, lexicon, strategy) for c in survivors),
                key=lambda s: s.ratio,
            )
            scored.append(ExpectEntry(word, sense.sense_id, best))
    scored.sort(key=lambda e: -e.score.ratio)
    return scored + dead
