"""Word-by-word growth of semantic trees.

A tree starts as a single node requiring a proposition and grows as words
are consumed.  Nodes carry a semantic type, possibly a formula (a tensor),
and up to three outgoing edges: an argument daughter, a functor daughter,
and an adjunct (link) tree hanging off the node sideways.  A node without
a formula is a requirement: it still awaits content.  Every growth gives
a leaf an entity argument leaf, which takes the pointer, and a functor
daughter, and only entities take adjuncts: a clause is a functor spine
with entity leaves, each of which may carry an adjunct, hanging off it.
Nodes, candidates and parse states are named tuples; a Tree is a frozen
dataclass, as it caches its open flags.

After each word the tree saturates: a pointed bare proposition
requirement grows (prediction), and any node whose daughters both carry
formulae receives the contraction of functor against argument.  At
proposition nodes that contraction, the node's product, is additionally
multiplied entrywise with the root formula of every finished adjunct tree
in the clause, and the node keeps its product beside the folded formula.
A word changes values only on the mother chain of the node it touched, so
saturation revisits that chain alone, and not even that when the pointer
rests on a requirement, as after a grown slot: it contracts a node again
only when a daughter got a new value, and refolds every other proposition
node on the chain from its stored product, whose adjuncts may have
finished or reopened.  evaluate, which interpret runs with stand-ins at
unmet requirements, computes only the nodes that store no formula.  A
tree is valued once per word: pointer travel only predicts.

The pointer marks where the next word may act.  Pointer travel
(apply_computational) lists every position it can reach: up from a
finished node to its mother (or an adjunct root to its host), down into
any daughter or adjunct still open, as Tree.open flags, one pass per tree.
A parse never walks that list.  Travel up meets propositions, functors and
hosts, and travel down enters open subtrees only, so a link sense can act
only on the entity the pointer rests on, and any other sense only at
canonical_view's open slot: each candidate forks at most once per sense.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .errors import DeadEnd, LexiconMiss
from .lexicon import Lexicon, Sense
from .semtypes import E, SemType, T, application_slot, fn
from .tensor import Tensor, contract, mu

ET = fn(E, T)


class Node(NamedTuple):
    """One tree node.  Its formula is its state: a node without one is a
    requirement, a node with one is complete.

    An internal proposition node with a formula also keeps its product,
    its functor's formula contracted against its argument's, which the
    formula is folded from (see saturate).  The product follows from the
    daughters' formulae, so comparing it changes no comparison of trees.
    """

    node_id: int
    sem_type: SemType
    formula: Tensor | None = None
    argument: int | None = None
    functor: int | None = None
    link: int | None = None
    parent: int | None = None
    product: Tensor | None = None

    @property
    def requirement(self) -> bool:
        return self.formula is None

    @property
    def complete(self) -> bool:
        return self.formula is not None

    @property
    def is_leaf(self) -> bool:
        return self.argument is None and self.functor is None


@dataclass(frozen=True)
class Tree:
    """An immutable tree; node ids index straight into the node tuple."""

    nodes: tuple[Node, ...]
    pointer: int
    root = 0

    @property
    def pointed(self) -> Node:
        return self.nodes[self.pointer]

    def with_node(self, node: Node) -> "Tree":
        nodes = list(self.nodes)
        nodes[node.node_id] = node
        return Tree(tuple(nodes), self.pointer)

    def with_pointer(self, i: int) -> "Tree":
        return Tree(self.nodes, i)

    @cached_property
    def open(self) -> tuple[bool, ...]:
        """Per node id: does a requirement leaf lie at or under the node,
        adjuncts included?  One pass, on first use.

        Ids alone order the pass: _sprout and apply_link append daughters
        and adjuncts after their mother, so every node's id is below those
        of the nodes hanging from it.  Flags follow leaves only, so a tree
        whose internal formulae are still to be computed already has the
        flags it will have once they are.
        """
        flags = [n.formula is None and n.is_leaf for n in self.nodes]
        for n in reversed(self.nodes):
            if flags[n.node_id] and n.parent is not None:
                flags[n.parent] = True
        return tuple(flags)

    def is_complete(self) -> bool:
        """No unmet requirements anywhere, so a vector at the root."""
        return not self.open[self.root]


def axiom() -> Tree:
    """The starting tree: one pointed node requiring a proposition."""
    return Tree((Node(0, T),), pointer=0)


# ---------------------------------------------------------------------------
# evaluation and saturation


def evaluate(tree: Tree, stand_in):
    """Root value of a tree, computing only the nodes without a formula.

    A node with a formula is valued by it and nothing under it is visited:
    stored formulae are trusted, as saturate leaves them.  An unmet leaf
    is valued by stand_in(node), asked depth first, argument subtree
    before functor subtree; adjuncts take no stand-ins.  An internal node
    is valued by _fold of its _product, as saturate values it; such a node
    has no formula, so no stored product either.  Values are plain tensors;
    alternatives kept apart (direct_sum) are interpret.compile_root's.
    """
    return _value(tree, tree.root, stand_in)


def _value(tree: Tree, i: int, fill):
    """evaluate's recursion, at module level: no closure cycle holds values."""
    n = tree.nodes[i]
    if n.formula is not None:
        return n.formula
    if n.is_leaf:
        return fill(n)
    a = _value(tree, n.argument, fill)  # first, so stand-ins keep their order
    f = _value(tree, n.functor, fill)
    return _fold(tree.nodes, tree.open, n, _product(tree.nodes, n, f, a))


def _product(nodes, n: Node, f, a):
    """Internal node n's unfolded value from its functor's value f and
    argument's a: None unless both are values, else f contracted against
    a at the functor's application slot."""
    if f is None or a is None:
        return None
    return contract(f, a, [(application_slot(nodes[n.functor].sem_type), 0)])


def _fold(nodes, flags, n: Node, v):
    """Internal node n's value from its product v.

    v itself, None included, except at a proposition node, where v is
    multiplied entrywise with the root formula of every finished adjunct
    in n's clause, walking down its functor spine to the functor leaf:
    the subject's adjunct, then the object's, and so on.  An adjunct root
    without a formula is unfinished; whether one with a formula was
    reopened below, flags, the Tree.open flags of nodes' leaves, tell.
    """
    if v is None or n.sem_type is not T:
        return v
    while not n.is_leaf:
        j = nodes[n.argument].link
        if j is not None and nodes[j].complete and not flags[j]:
            v = mu(v, nodes[j].formula)
        n = nodes[n.functor]
    return v


def _sprout(tree: Tree, at: int, argument, functor) -> Tree:
    """Grow the leaf with id at into an entity daughter with formula
    argument, which takes the pointer, and a (type, formula) functor."""
    base = len(tree.nodes)
    nodes = list(tree.nodes)
    m = nodes[at]
    nodes[at] = Node(at, m.sem_type, m.formula, base, base + 1, m.link, m.parent)
    nodes.append(Node(base, E, argument, parent=at))
    nodes.append(Node(base + 1, *functor, parent=at))
    return Tree(tuple(nodes), pointer=base)


def _predict(tree: Tree) -> Tree:
    """Sprout a pointed bare proposition requirement into an entity
    requirement (taking the pointer) and a predicate requirement; any
    other tree comes back as it is.  Adjuncts come pre-grown from
    apply_link and arguments are entities, so in a parse this fires on
    the axiom only."""
    p = tree.pointed
    if p.requirement and p.sem_type is T and p.is_leaf:
        return _sprout(tree, p.node_id, None, (ET, None))
    return tree


def saturate(tree: Tree) -> Tree:
    """Predict at a pointed requirement, else revalue the nodes above the pointer.

    The pointed node's formula and everything off its mother chain are
    trusted, as apply_lexical leaves a tree parse_word kept.  A pointed
    requirement (the axiom, a slot pointer travel reached, or one a
    function sense grew) means no node was valued and no requirement met,
    so nothing above it changed.  Otherwise the walk climbs to the root,
    from an adjunct root to its host too.  A mother whose daughter on the
    chain got a new value (a host does not depend on its adjunct) is
    contracted again; any other keeps its stored product, so only
    proposition nodes are refolded, with mu alone, as their adjuncts may
    have finished or reopened.  Each stores its folded value, a
    proposition node its product too; the saturated tree shares the grown
    tree's flags, as the climb changes no leaf.
    """
    if tree.pointed.requirement:
        return _predict(tree)
    nodes, flags = list(tree.nodes), tree.open
    i, changed = tree.pointer, True
    while nodes[i].parent is not None:
        n = nodes[nodes[i].parent]
        p = (_product(nodes, n, nodes[n.functor].formula, nodes[n.argument].formula)
             if changed and n.link != i else n.product)
        changed = p is not None
        if changed:
            nodes[n.node_id] = Node(n.node_id, n.sem_type, _fold(nodes, flags, n, p), n.argument,
                                    n.functor, n.link, n.parent, p if n.sem_type is T else None)
        i = n.node_id
    saturated = Tree(tuple(nodes), tree.pointer)
    saturated.__dict__["open"] = flags
    return saturated


def canonical_view(tree: Tree) -> Tree:
    """Predicted tree with the pointer on its one open slot, valuing nothing.

    The pointer climbs while its node is complete (from an adjunct root to
    its host too), then follows open daughters (argument, functor, adjunct)
    down to a requirement leaf, or rests on the root when nothing is open;
    on a requirement leaf it stays and reads no flags.  Travel never climbs
    past an incomplete node and words fill a clause's slots in order, so
    this is the only leaf travel can reach, the first in depth-first order.
    Traces display this form.
    """
    t = _predict(tree)
    n = t.pointed
    while n.complete and n.parent is not None:
        n = t.nodes[n.parent]
    while not (n.requirement and n.is_leaf) and t.open[n.node_id]:
        n = t.nodes[next(c for c in (n.argument, n.functor, n.link)
                         if c is not None and t.open[c])]
    return t.with_pointer(n.node_id)


# ---------------------------------------------------------------------------
# pointer travel


def apply_computational(tree: Tree) -> list[Tree]:
    """All trees reachable from here without consuming a word.

    Takes a tree as parse_word leaves it, or the axiom, and predicts but
    values nothing: a caller holding another tree saturates it first.
    Then lists, breadth first, every position the pointer can travel to:
    up from a finished node to its mother (or from a finished adjunct
    root to its host), down into any subtree that still has requirements.
    The stored position comes first; a tree with nothing to do comes
    back as a single unchanged variant.
    """
    t = _predict(tree)
    seen = [t.pointer]
    for i in seen:
        n = t.nodes[i]
        moves = [n.parent] if n.complete and n.parent is not None else []
        moves += [c for c in (n.argument, n.functor, n.link)
                  if c is not None and t.open[c]]
        for m in moves:
            if m not in seen:
                seen.append(m)
    return [t.with_pointer(p) for p in seen]


# ---------------------------------------------------------------------------
# word actions


def apply_link(tree: Tree) -> Tree | None:
    """Hang a relative clause's adjunct tree off the pointed node.

    None unless the pointed node is a formula-bearing entity node without
    an adjunct already.  The adjunct comes pre-grown: its argument daughter
    repeats the host's formula (the head noun is the clause's subject) and
    holds the pointer, its functor daughter awaits the predicate.  No
    adjunct is ever a bare proposition requirement.
    """
    p = tree.pointed
    if not (p.sem_type is E and p.complete and p.link is None):
        return None
    base = len(tree.nodes)
    hung = tree.with_node(
        Node(p.node_id, p.sem_type, p.formula, p.argument, p.functor, base, p.parent))
    linked = Tree(hung.nodes + (Node(base, T, parent=p.node_id),), base)
    return _sprout(linked, base, p.formula, (ET, None))


def apply_lexical(tree: Tree, sense: Sense) -> Tree | None:
    """Try one sense at the pointed node; None if it does not apply.

    Three actions cover the lexicon.  A sense whose type matches a pointed
    requirement leaf decorates it.  A function sense whose result type
    matches a pointed requirement leaf of function type grows the leaf:
    a fresh entity requirement (taking the pointer) plus a functor daughter
    carrying the sense's tensor.  A link sense is apply_link's: it hangs an
    adjunct tree off a finished entity node, or gives None.
    """
    if sense.is_link:
        return apply_link(tree)

    p = tree.pointed
    if not (p.requirement and p.is_leaf):
        return None
    ty = sense.sem_type

    if ty is p.sem_type:
        return tree.with_node(
            Node(p.node_id, p.sem_type, sense.tensor, p.argument, p.functor, p.link, p.parent))

    if ty.is_function and ty.res is p.sem_type and p.sem_type.is_function:
        return _sprout(tree, p.node_id, None, (ty, sense.tensor))

    return None


# ---------------------------------------------------------------------------
# candidate sets


class Candidate(NamedTuple):
    """One live parse: a tree plus the sense chosen for each word so far."""

    tree: Tree
    senses: tuple[str, ...] = ()


class ParseState(NamedTuple):
    candidates: tuple[Candidate, ...]
    consumed: tuple[str, ...] = ()


def initial_state() -> ParseState:
    return ParseState((Candidate(axiom()),))


def advance_with_sense(state: ParseState, sense: Sense) -> list[Candidate]:
    """Successors of every candidate under one sense, tried at one site: a
    link sense where the pointer rests, any other at canonical_view's."""
    out = []
    for cand in state.candidates:
        site = cand.tree if sense.is_link else canonical_view(cand.tree)
        grown = apply_lexical(site, sense)
        if grown is not None:
            out.append(Candidate(saturate(grown), cand.senses + (sense.sense_id,)))
    return out


def parse_word(state: ParseState, word: str, lexicon: Lexicon) -> ParseState:
    """Consume one token, forking candidates over its senses.

    Raises LexiconMiss for an unknown token and DeadEnd when no candidate
    survives; both carry the 1-based token position.
    """
    position = len(state.consumed) + 1
    senses = lexicon.lookup(word)
    if not senses:
        raise LexiconMiss(word, position)
    survivors: list[Candidate] = []
    for sense in senses:
        survivors.extend(advance_with_sense(state, sense))
    if not survivors:
        raise DeadEnd(word, position)
    return ParseState(tuple(survivors), state.consumed + (word,))


def parse_sequence(words, lexicon: Lexicon) -> ParseState:
    """Fold parse_word over a token list, starting from the axiom tree."""
    state = initial_state()
    for word in words:
        state = parse_word(state, word, lexicon)
    return state


# ---------------------------------------------------------------------------
# rendering


def render(tree: Tree) -> str:
    """Multi-line picture of a tree.

    One node per line: requirement marker, type, formula when present, and
    a lozenge on the pointed node.  Arguments print above functors; an
    adjunct prints under its host flagged LINK.
    """
    lines: list[str] = []
    stack = [(tree.root, 0, "")]
    while stack:
        i, depth, prefix = stack.pop()
        n = tree.nodes[i]
        s = prefix + ("?" if n.requirement else "") + str(n.sem_type)
        if n.formula is not None:
            s += " = " + repr(n.formula.tolist())
        if i == tree.pointer:
            s += " ◊"
        lines.append("  " * depth + s)
        for c, tag in ((n.link, "LINK: "), (n.functor, ""), (n.argument, "")):
            if c is not None:
                stack.append((c, depth + 1, tag))
    return "\n".join(lines)
