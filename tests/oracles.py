"""Slow reference implementations used to cross-check the fast paths.

Everything here works on plain nested Python lists with explicit loops; no
numpy arithmetic (numpy is imported only to recognise its boolean scalar),
no imports from the package under test: advance_alone and
expect_per_sense, the loops over package calls, are handed the modules
they call.  Tests compare dsvs results against these.
"""

import itertools

import numpy as np


def shape_of(nested):
    shape = []
    cur = nested
    while isinstance(cur, list):
        shape.append(len(cur))
        cur = cur[0]
    return tuple(shape)


def at(nested, idx):
    for i in idx:
        nested = nested[i]
    return nested


def build(shape, cell, prefix=()):
    if not shape:
        return cell(prefix)
    return [build(shape[1:], cell, prefix + (k,)) for k in range(shape[0])]


def contract_lists(a, b, pairs):
    """Sum-over-paired-slots contraction of two nested lists.

    pairs is a list of (slot in a, slot in b).  Free slots of a come first
    in the result, then free slots of b.  A fully paired contraction
    returns a bare number.
    """
    ashape, bshape = shape_of(a), shape_of(b)
    a_paired = [i for i, _ in pairs]
    b_paired = [j for _, j in pairs]
    a_free = [i for i in range(len(ashape)) if i not in a_paired]
    b_free = [j for j in range(len(bshape)) if j not in b_paired]
    out_shape = tuple([ashape[i] for i in a_free] + [bshape[j] for j in b_free])

    def cell(out_idx):
        a_idx = [0] * len(ashape)
        b_idx = [0] * len(bshape)
        for pos, i in enumerate(a_free):
            a_idx[i] = out_idx[pos]
        for pos, j in enumerate(b_free):
            b_idx[j] = out_idx[len(a_free) + pos]
        total = 0
        for ks in itertools.product(*[range(ashape[i]) for i in a_paired]):
            for (i, j), k in zip(pairs, ks):
                a_idx[i] = k
                b_idx[j] = k
            total += at(a, a_idx) * at(b, b_idx)
        return total

    if not out_shape:
        return cell(())
    return build(out_shape, cell)


def add_lists(a, b):
    if isinstance(a, list):
        return [add_lists(x, y) for x, y in zip(a, b)]
    return a + b


def mul_lists(a, b):
    if isinstance(a, list):
        return [mul_lists(x, y) for x, y in zip(a, b)]
    return a * b


def scale_lists(a, k):
    if isinstance(a, list):
        return [scale_lists(x, k) for x in a]
    return a * k


def sentence_vector(subject, verb_matrix):
    """subject . (verb rows): intransitive sentence as two nested loops."""
    return contract_lists(verb_matrix, subject, [(0, 0)])


def transitive_vector(subject, cube, obj):
    """subject . (cube applied to object at its last slot)."""
    return contract_lists(contract_lists(cube, obj, [(2, 0)]), subject, [(0, 0)])


# ---------------------------------------------------------------------------
# corpus counting: an excerpt is a plain list of tokens


def split_excerpts(text, tokenize):
    """Token lists of the blank-line-delimited blocks of text, read line by
    line; a block that tokenizes to nothing is dropped."""
    excerpts, block = [], []

    def flush():
        toks = tokenize(" ".join(block))
        if toks:
            excerpts.append(toks)
        block.clear()

    for line in text.splitlines():
        if line.strip():
            block.append(line)
        else:
            flush()
    flush()
    return excerpts


def cooccurrence_lists(excerpts, targets, contexts):
    """counts[i][j]: excerpts holding both targets[i] and contexts[j]."""
    counts = [[0] * len(contexts) for _ in targets]
    for tokens in excerpts:
        for i, t in enumerate(targets):
            for j, c in enumerate(contexts):
                if t in tokens and c in tokens:
                    counts[i][j] += 1
    return counts


def verb_matrix_lists(excerpts, verb, properties):
    """Row p: [excerpts holding the verb and p, holding the verb but not p]."""
    counts = [[0, 0] for _ in properties]
    for tokens in excerpts:
        if verb not in tokens:
            continue
        for i, p in enumerate(properties):
            counts[i][0 if p in tokens else 1] += 1
    return counts


# ---------------------------------------------------------------------------
# tensor entries


def check_entries_walk(values):
    """The recursive walk over nested lists and tuples that tensor entries
    were checked with: the first boolean (Python's or numpy's) or int
    outside int64, depth first, raises TypeError or ValueError naming it."""
    for v in values:
        if isinstance(v, (list, tuple)):
            check_entries_walk(v)
        elif isinstance(v, (bool, np.bool_)):
            raise TypeError(f"tensor entry {v} is a boolean, not a number")
        elif isinstance(v, int) and not -2**63 <= v < 2**63:
            raise ValueError(f"tensor entry {v} is outside the int64 range")


# ---------------------------------------------------------------------------
# growing and ranking continuations


def advance_alone(state, sense, parser):
    """parser.advance_with_sense as one loop over candidates: the sense
    tried where the pointer rests if it is a link sense, else at
    parser.canonical_view's slot, and the grown tree saturated."""
    out = []
    for cand in state.candidates:
        site = cand.tree if sense.is_link else parser.canonical_view(cand.tree)
        grown = parser.apply_lexical(site, sense)
        if grown is not None:
            out.append(parser.Candidate(parser.saturate(grown), cand.senses + (sense.sense_id,)))
    return out


def expect_per_sense(state, words, lexicon, strategy, parser, interpret):
    """interpret.expect as one loop over (word, sense): each sense grown
    alone from every live candidate with advance_alone, then scored by
    the parse interpret.disambiguate ranks first; scored entries sorted
    by ratio, stably, then every dead one in order."""
    scored, dead = [], []
    for word in words:
        senses = lexicon.lookup(word)
        if not senses:
            dead.append(interpret.ExpectEntry(word, None, None))
            continue
        for sense in senses:
            survivors = advance_alone(state, sense, parser)
            if not survivors:
                dead.append(interpret.ExpectEntry(word, sense.sense_id, None))
                continue
            ranked = interpret.disambiguate(parser.ParseState(tuple(survivors)), lexicon, strategy)
            scored.append(interpret.ExpectEntry(word, sense.sense_id, ranked[0][1]))
    scored.sort(key=lambda e: -e.score.ratio)
    return scored + dead
