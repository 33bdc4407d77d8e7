"""Word-by-word growth of semantic trees.

A tree starts as a single node requiring a proposition and grows as words
are consumed.  Nodes carry a semantic type, possibly a formula (a tensor),
and up to three outgoing edges: an argument daughter, a functor daughter,
and an adjunct (link) tree hanging off the node sideways.  A node without
a formula is a requirement: it still awaits content.  Every growth gives
a leaf an argument daughter, which takes the pointer, and a functor one.

After each word the tree saturates: a pointed bare proposition
requirement grows (prediction), and any node whose daughters both carry
formulae receives the contraction of functor against argument.  At
proposition nodes the contraction is additionally multiplied entrywise
with the root formula of every finished adjunct tree in the clause.  A
word changes values only on the mother chain of the node it touched, so
saturation recomputes that chain alone, and evaluate, which interpret
runs with stand-ins at unmet requirements, computes only the nodes that
store no formula.  A tree is valued once per word: pointer travel only
predicts.

The pointer marks where the next word may act.  It can travel up from a
finished node to its mother (also crossing from a finished adjunct root
back to its host) and down into any daughter or adjunct whose subtree
still has unmet requirements, as flagged by Tree.open, one pass per tree.
A word sense applies at the first reachable position that accepts it;
each live candidate therefore forks into at most one successor per sense,
and parsing a locally ambiguous word multiplies the candidate set.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as _dc_replace
from functools import cached_property

from .errors import DeadEnd, LexiconMiss, LinkUnavailable
from .lexicon import Lexicon, Sense
from .semtypes import E, SemType, T, application_slot, fn
from .tensor import Tensor, contract, mu

ET = fn(E, T)


@dataclass(frozen=True)
class Node:
    """One tree node.  Its formula is its only state: a node without one
    is a requirement, a node with one is complete."""

    node_id: int
    sem_type: SemType
    formula: Tensor | None = None
    argument: int | None = None
    functor: int | None = None
    link: int | None = None
    parent: int | None = None

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
    root: int = 0

    @property
    def pointed(self) -> Node:
        return self.nodes[self.pointer]

    def with_node(self, node: Node) -> "Tree":
        nodes = list(self.nodes)
        nodes[node.node_id] = node
        return Tree(tuple(nodes), self.pointer, self.root)

    def with_pointer(self, i: int) -> "Tree":
        return Tree(self.nodes, i, self.root)

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


def evaluate(tree: Tree, stand_in=None):
    """Root value of a tree, computing only the nodes without a formula.

    A node with a formula is valued by it and nothing under it is visited:
    stored formulae are trusted, as saturate leaves them.  An unmet leaf
    is valued by stand_in(node), or None without one, asked depth first,
    argument subtree before functor subtree; adjuncts take no stand-ins.
    An internal node is valued by _compose.  Values are plain tensors;
    alternatives kept apart (direct_sum) are interpret.compile_root's.
    """
    return _value(tree, tree.root, stand_in)


def _value(tree: Tree, i: int, fill):
    """evaluate's recursion, at module level: no closure cycle holds values."""
    n = tree.nodes[i]
    if n.formula is not None:
        return n.formula
    if n.is_leaf:
        return None if fill is None else fill(n)
    a = _value(tree, n.argument, fill)  # first, so stand-ins keep their order
    return _compose(tree.nodes, tree, n, _value(tree, n.functor, fill), a)


def _compose(nodes, flagged: Tree, n: Node, f, a):
    """Internal node n's value from its functor's value f and argument's a.

    None unless both are values; else f contracted against a at the
    functor's application slot, and at a proposition node multiplied
    entrywise with the root formula of every finished adjunct in n's
    clause, in pre-order: n's own, those under its argument, then those
    under its functor.  An adjunct root without a formula is unfinished;
    whether one with a formula was reopened below, the Tree.open flags of
    flagged, a tree with the leaves of nodes, tell.
    """
    if f is None or a is None:
        return None
    v = contract(f, a, [(application_slot(nodes[n.functor].sem_type), 0)])
    if n.sem_type == T:
        stack = [n.node_id]
        while stack:
            m = nodes[stack.pop()]
            j = m.link
            if j is not None and nodes[j].complete and not flagged.open[j]:
                v = mu(v, nodes[j].formula)
            stack.extend(c for c in (m.functor, m.argument) if c is not None)
    return v


def _sprout(tree: Tree, at: int, argument, functor) -> Tree:
    """Grow the leaf with id at into an argument and a functor daughter,
    each a (type, formula) pair; the argument takes the pointer."""
    base = len(tree.nodes)
    nodes = list(tree.nodes)
    nodes[at] = _dc_replace(nodes[at], argument=base, functor=base + 1)
    nodes.append(Node(base, *argument, parent=at))
    nodes.append(Node(base + 1, *functor, parent=at))
    return Tree(tuple(nodes), pointer=base, root=tree.root)


def _predict(tree: Tree) -> Tree:
    """Sprout a pointed bare proposition requirement into an entity
    requirement (taking the pointer) and a predicate requirement; any
    other tree comes back as it is."""
    p = tree.pointed
    if p.requirement and p.sem_type == T and p.is_leaf:
        return _sprout(tree, p.node_id, (E, None), (ET, None))
    return tree


def saturate(tree: Tree) -> Tree:
    """Predict at the pointed node, then revalue the pointer's mother chain.

    Formulae off the chain are trusted, as apply_lexical leaves a tree
    parse_word kept.  The walk goes up to the root, crossing from an
    adjunct root to its host, and stores as formula the recomputed value
    of every proposition node, whose adjuncts may have finished or
    reopened, and of any other internal node whose chain daughter got a
    new value (a host does not depend on its adjunct).  Which adjuncts are
    finished is read from the predicted tree's flags: saturation changes
    internal formulae only, never leaves.
    """
    tree = _predict(tree)
    nodes = list(tree.nodes)
    i, changed = tree.pointer, True
    while True:
        n = nodes[i]
        if not n.is_leaf and (changed or n.sem_type == T):
            v = _compose(nodes, tree, n, nodes[n.functor].formula, nodes[n.argument].formula)
            changed = v is not None
            if changed:
                nodes[i] = _dc_replace(n, formula=v)
        if n.parent is None:
            return Tree(tuple(nodes), tree.pointer, tree.root)
        changed = changed and nodes[n.parent].link != i
        i = n.parent


def canonical_view(tree: Tree) -> Tree:
    """Predicted tree with the pointer advanced to the next open slot.

    Like apply_computational it values nothing, so it takes a tree as
    parse_word leaves it, or the axiom.  The pointer lands on the first
    requirement leaf in depth-first order (argument before functor,
    adjuncts after the node they hang from), or on the root when nothing
    is left to fill.  This is the form traces display.
    """
    t = _predict(tree)
    n = t.nodes[t.root]
    while t.open[n.node_id] and not (n.requirement and n.is_leaf):
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


def apply_link(tree: Tree, relative_pronoun: bool = True) -> list[Tree]:
    """Hang an adjunct tree off the pointed node.

    The pointed node must be a formula-bearing entity node without an
    adjunct already.  With relative_pronoun the new tree comes pre-grown:
    its argument daughter repeats the host's formula (the head noun is the
    adjunct clause's subject) and the pointer rests there; otherwise the
    adjunct is a bare proposition requirement holding the pointer.
    """
    p = tree.pointed
    if not (p.sem_type == E and p.complete and p.link is None):
        raise LinkUnavailable(
            f"node {p.node_id} cannot host an adjunct "
            f"(needs a finished entity node with no adjunct yet)"
        )
    base = len(tree.nodes)
    hung = tree.with_node(_dc_replace(p, link=base))
    linked = Tree(hung.nodes + (Node(base, T, parent=p.node_id),), base, tree.root)
    if relative_pronoun:
        linked = _sprout(linked, base, (E, p.formula), (ET, None))
    return [linked]


def apply_lexical(tree: Tree, sense: Sense) -> Tree | None:
    """Try one sense at the pointed node; None if it does not apply.

    Three actions cover the lexicon.  A sense whose type matches a pointed
    requirement leaf decorates it.  A function sense whose result type
    matches a pointed requirement leaf of function type grows the leaf:
    a fresh entity requirement (taking the pointer) plus a functor daughter
    carrying the sense's tensor.  A link sense hangs an adjunct tree off a
    finished entity node.
    """
    if sense.is_link:
        try:
            return apply_link(tree)[0]
        except LinkUnavailable:
            return None

    p = tree.pointed
    if not (p.requirement and p.is_leaf):
        return None
    ty = sense.sem_type

    if ty == p.sem_type:
        return tree.with_node(_dc_replace(p, formula=sense.tensor))

    if ty.is_function and ty.res == p.sem_type and p.sem_type.is_function:
        return _sprout(tree, p.node_id, (ty.arg, None), (ty, sense.tensor))

    return None


# ---------------------------------------------------------------------------
# candidate sets


@dataclass(frozen=True)
class Candidate:
    """One live parse: a tree plus the sense chosen for each word so far."""

    tree: Tree
    senses: tuple[str, ...] = ()


@dataclass(frozen=True)
class ParseState:
    candidates: tuple[Candidate, ...]
    consumed: tuple[str, ...] = ()


def initial_state() -> ParseState:
    return ParseState((Candidate(axiom()),))


def advance_with_sense(state: ParseState, sense: Sense) -> list[Candidate]:
    """Successors of every candidate under one fixed sense.

    Each candidate contributes at most one successor: the sense acts at the
    first reachable pointer position that accepts it.
    """
    out = []
    for cand in state.candidates:
        for variant in apply_computational(cand.tree):
            grown = apply_lexical(variant, sense)
            if grown is not None:
                out.append(
                    Candidate(saturate(grown), cand.senses + (sense.sense_id,))
                )
                break
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
