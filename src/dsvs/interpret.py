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
labelled inventory whose saturations are contracted only when read.  It
reads them from the lexicon's per-type index: one type denotes each
signature, and one function type returns it, so it takes three lists of
senses, each in declaration order, and scans no other sense.
Contraction is bilinear, so the sum stand-in needs no enumeration: it is
the lexicon formulae plus at most one contraction, of summed functions
against summed entities, which makes it linear in lexicon size.  A
lexicon never changes, so each stand-in is built once per lexicon,
signature and strategy, on first use, and kept in the lexicon's
stand_ins; each type's sum, which one stand-in can read as its direct
tensors and another as its functions or entities, is summed once per
lexicon and kept in its type_sums.

parser.evaluate composes plain tensors only; the direct_sum rule lives
here, in compile_root.  Contraction and mu are multilinear, so a
direct_sum root is the tree evaluated once per choice of alternative at
each open leaf, and the sum of those values is the tree evaluated once
with each leaf's alternatives summed, which is the sum stand-in.
compile_root makes that one collapsed pass, so scoring a direct_sum root
costs what scoring a sum root does and on float lexicons gives the same
ratio bit for bit, and it re-evaluates the open spine for a component
only when someone reads it.

require_stand_ins settles from the lexicon's types alone, before any
parse, whether every requirement a parse can leave open has a stand-in
under a strategy, so that no sentence fails halfway on a lexicon that
loaded.

On those root values the module ranks.  plausibility is the one function
that turns a root vector into a score.  disambiguate orders a state's live
candidates by ratio, ties in discovery order, and expect scores each
sense of a candidate next word by the parse disambiguate would rank first
among those the sense yields, then orders the words by that score.

expect grows each live candidate once per sense type (parser.grow_by_type),
and the senses of a type differ only in the tensor at one node of the
grown tree.  Contraction and mu are multilinear, so the root is linear in
that node's value: on an integer lexicon the group's tensors are stacked
on a batch slot (tensor.stack), put at that node, and one saturate and
one compile_root value them all, member k's root in column k.  int64
arithmetic gives every column the bits of that sense valued alone.  A
float lexicon values each sense on its own tree instead: a stacked float
contraction is one product of another shape, whose sums may round
differently in the last bits.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import inf, prod
from typing import NamedTuple

from .errors import NoInhabitants, NonFiniteEntry, SignatureMismatch
from .lexicon import Lexicon
from .parser import (
    ParseState,
    Tree,
    evaluate,
    grow_by_type,
    place,
    saturate,
)
from .semtypes import E, T, application_slot, fn, signature_of
from .tensor import (
    Signature,
    Tensor,
    TensorTuple,
    contract,
    stack,
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
    labelled "function+argument".  The three lists come from
    Lexicon.senses_of: the senses of the type that denotes the signature,
    of the function type that returns it, and of e; finding them compares
    the signature with each of the lexicon's types, not with each sense.

    The result is a read-only lazy sequence of (label, tensor) pairs:
    finding the senses contracts nothing, a saturation is contracted when
    its item is read, and Inventory.total gives the sum of every item in
    closed form.
    """
    smap = lexicon.space_map
    direct, functions = (), ()
    for ty in lexicon.types:
        if signature_of(ty, smap) == signature:
            direct = lexicon.senses_of(ty)
        elif ty.is_function and signature_of(ty.res, smap) == signature:
            functions = lexicon.senses_of(ty)
    return Inventory(direct, functions, lexicon.senses_of(E), lexicon.type_sums)


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

    direct holds the senses whose formulae have the signature, functions
    the function senses whose result lands in it, entities the entity
    senses, each all the lexicon's senses of one type.  Only one type of
    the family denotes a given signature, so every function here has the
    same type and binds its argument at the same application slot.  Items
    are (sense id, tensor) for direct first, then one saturation per
    (function, entity) pair, function-major; a saturation is contracted
    each time it is read.  sums is the lexicon's type_sums.
    """

    __slots__ = ("_direct", "_functions", "_entities", "_sums")

    def __init__(self, direct, functions, entities, sums):
        def item(i):  # holds the tuples, not self: no reference cycle
            if i < len(direct):
                return direct[i].sense_id, direct[i].tensor
            k, j = divmod(i - len(direct), len(entities))
            f, a = functions[k], entities[j]
            slot = application_slot(f.sem_type)
            return f"{f.sense_id}+{a.sense_id}", contract(f.tensor, a.tensor, [(slot, 0)])

        super().__init__(len(direct) + len(functions) * len(entities), item)
        self._direct, self._functions, self._entities = direct, functions, entities
        self._sums = sums

    def _type_sum(self, senses) -> Tensor:
        """sum_tensors of one type's senses, summed once per lexicon and
        kept in its type_sums."""
        ty = senses[0].sem_type
        total = self._sums.get(ty)
        if total is None:
            total = self._sums[ty] = sum_tensors([s.tensor for s in senses])
        return total

    def total(self) -> Tensor:
        """Entrywise sum of every item (there must be one), in closed form.

        Contraction is bilinear, so the saturations sum to one contraction:
        contract(sum of the functions, sum of the entities) at their shared
        slot.  The total is the sum of the direct tensors plus that term,
        if there is a function and an entity.  Each sum adds left to right,
        so this has the bits of one left-to-right sum of the direct tensors
        and the term.
        """
        parts = [self._type_sum(self._direct)] if self._direct else []
        if self._functions and self._entities:
            parts.append(contract(
                self._type_sum(self._functions),
                self._type_sum(self._entities),
                [(application_slot(self._functions[0].sem_type), 0)],
            ))
        return parts[0] if len(parts) == 1 else sum_tensors(parts)


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


def require_stand_ins(lexicon: Lexicon, strategy: str) -> None:
    """Refuse a lexicon that cannot stand in for some unheard material.

    A parse leaves requirements open only at t (the empty sentence), e
    and ⟨e,t⟩.  A type has stand-in material when a sense has that type,
    or when one sense has type ⟨e,τ⟩ and another has type e; only one
    type denotes each signature, so that is exactly when known_inhabitants
    is non-empty, and types alone decide it.  t, e and ⟨e,t⟩ are checked
    in that order, and the first without material raises NoInhabitants as
    underspec_tensor would for it.  unit always passes; an unknown
    strategy raises ValueError.
    """
    _check_strategy(strategy)
    if strategy == "unit":
        return
    types = set(lexicon.types)
    for tau in (T, E, fn(E, T)):
        # for e the second test stops at E in types: no function returns e
        if tau not in types and not (E in types and fn(E, tau) in types):
            signature = signature_of(tau, lexicon.space_map)
            raise NoInhabitants(f"lexicon has no tensors of signature {signature!r}")


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


def plausibility(vector) -> PlausibilityScore:
    """Score a sentence-space value; tuples collapse by entrywise sum.

    Every score is built by _score, here or for the columns of a stacked
    root (_member_scores).  The value must be a vector over a
    two-point space, else SignatureMismatch; a float total top + bottom
    that overflows raises NonFiniteEntry.  A zero total scores 0.5.
    """
    if isinstance(vector, TensorTuple):
        vector = vector.collapse()
    if vector.signature.dims != (2,):
        raise SignatureMismatch(
            f"plausibility needs a vector over a two-point space, got "
            f"{vector.signature!r}"
        )
    return _score(*vector.tolist())


def _score(top, bottom) -> PlausibilityScore:
    total = top + bottom
    if abs(total) == inf:  # two finite floats can overflow; ints cannot
        raise NonFiniteEntry(f"plausibility total {top} + {bottom} is not a finite number")
    return PlausibilityScore(top, bottom, 0.5 if total == 0 else top / total)


def _member_scores(root, members: int) -> list[PlausibilityScore]:
    """The score of each of members stacked values of a root: one per
    column of a root with a batch slot, else the root's one score for
    every member, as a root that does not depend on the stacked node
    gives each the same value."""
    if isinstance(root, TensorTuple):
        root = root.collapse()
    if len(root.signature) == 1:
        return [plausibility(root)] * members
    return [_score(top, bottom) for top, bottom in zip(*root.tolist())]


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

    A sense's score is that of the first parse disambiguate ranks among
    those it yields: the best ratio, the earliest found among ties (see
    _best_scores).  Words or senses that nothing accepts come back with
    score None, after all scored entries.  An unknown strategy raises
    ValueError, whether or not any word is scored.
    """
    _check_strategy(strategy)
    looked = [(word, lexicon.lookup(word)) for word in words]
    best = iter(_best_scores(state, [s for _, senses in looked for s in senses], lexicon, strategy))
    scored: list[ExpectEntry] = []
    dead: list[ExpectEntry] = []
    for word, senses in looked:
        if not senses:
            dead.append(ExpectEntry(word, None, None))
        for sense, score in zip(senses, best):
            (dead if score is None else scored).append(ExpectEntry(word, sense.sense_id, score))
    scored.sort(key=lambda e: -e.score.ratio)
    return scored + dead


def _best_scores(state: ParseState, senses, lexicon: Lexicon, strategy: str) -> list:
    """Each sense's best score over the live candidates, the first of the
    best ratio in candidate order, or None where no candidate grows.

    The senses are grouped by type and each candidate grows once per
    group (grow_by_type).  On an integer lexicon a group of several
    senses is valued by one saturate and one compile_root, its tensors
    stacked at the node that holds them (parser.place); the stack is
    built once per group, when the group first grows.  On any other
    lexicon each sense is saturated and compiled on its own copy, as
    advance_with_senses grows it.  A link group or a group of one is
    valued on the grown tree itself.
    """
    stacked: dict = {}  # a group's first position -> its stacked tensors
    best: list = [None] * len(senses)
    for _, group, site, grown in grow_by_type(state.candidates, senses):
        first = group[0]
        if len(group) == 1 or senses[first].is_link:
            scores = _member_scores(compile_root(saturate(grown), lexicon, strategy), len(group))
        elif lexicon.integer:
            formula = stacked.get(first)
            if formula is None:
                formula = stacked[first] = stack([senses[k].tensor for k in group])
            root = compile_root(saturate(place(site, grown, formula)), lexicon, strategy)
            scores = _member_scores(root, len(group))
        else:
            trees = [grown] + [place(site, grown, senses[k].tensor) for k in group[1:]]
            scores = [plausibility(compile_root(saturate(t), lexicon, strategy)) for t in trees]
        for k, score in zip(group, scores):
            if best[k] is None or score.ratio > best[k].ratio:
                best[k] = score
    return best
