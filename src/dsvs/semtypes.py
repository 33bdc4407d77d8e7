"""Semantic types and their tensor signatures.

The type family used here is built from two atoms, e (entities) and t
(propositions), closed under function types whose argument is e and whose
result is not:

    e, t, <e,t>, <e,<e,t>>, ...

SemType refuses any other type when it is built.  A SpaceMap assigns a
vector space to each atom.  Every type in the family then denotes a
tensor signature:

    e            -> (E,)
    t            -> (S,)
    <e,t>        -> (E, S)
    <e,<e,R>>    -> signature of <e,R> with one more E slot appended

so an n-place predicate is a tensor with n entity slots around a single
sentence-space slot, the first entity slot belonging to the first argument
composed when the predicate is reduced all the way down to t.

Each type is one object, so types compare and hash by identity; the
module keeps every type built, and application_slot keeps each type's
slot, for the life of the process.  signature_of keeps its answers for
the 1,024 (type, space map) pairs most recently asked, so the spaces of
a lexicon a process has done with are let go.  A kept signature_of
answer still costs a hash of the space map on every call, so a caller
that asks for many types at once keeps its own memo: the loader and
Lexicon keep one per load, keyed by type spelling or type.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import NamedTuple

from .tensor import Signature, Space


_TYPES: dict = {}  # (atom, arg, res) -> the one SemType built from them


@dataclass(frozen=True, eq=False, init=False)
class SemType:
    """A type of the family: e, t, or a function from e to anything but e.
    Use E, T, and fn() to build instances; other types raise ValueError.

    There is one object per type: building a type again, by any route
    (fn, parse_type, SemType(...), copy or unpickling), returns the object
    first built from the same (atom, arg, res), so equality and hashing
    are identity.  A type that fails its check is never kept.
    """

    atom: str | None = None
    arg: "SemType | None" = None
    res: "SemType | None" = None

    def __new__(cls, atom=None, arg=None, res=None):
        if atom is not None:
            if atom not in ("e", "t") or arg is not None or res is not None:
                raise ValueError(f"bad atomic type {atom!r}")
        elif arg is None or res is None:
            raise ValueError("function type needs both argument and result")
        elif not isinstance(res, SemType):
            raise ValueError(f"function type result {res!r} is not a type")
        elif arg is not E or res is E:
            raise ValueError(f"function type ⟨{arg},{res}⟩ needs argument e and result not e")
        key = (atom, arg, res)
        ty = _TYPES.get(key)
        if ty is None:
            ty = object.__new__(cls)
            ty.__dict__.update(atom=atom, arg=arg, res=res)
            ty = _TYPES.setdefault(key, ty)  # the first one made, if another thread won
        return ty

    def __reduce__(self):
        return SemType, (self.atom, self.arg, self.res)

    @property
    def is_function(self) -> bool:
        return self.atom is None

    def compact(self) -> str:
        """Flat spelling: 'e', 't', 'et', 'eet', ..."""
        if self.atom is not None:
            return self.atom
        return self.arg.compact() + self.res.compact()

    def __str__(self):
        if self.atom is not None:
            return self.atom
        return f"⟨{self.arg},{self.res}⟩"

    def __repr__(self):
        return f"SemType({self.compact()!r})"


E = SemType(atom="e")
T = SemType(atom="t")


def fn(arg: SemType, res: SemType) -> SemType:
    return SemType(arg=arg, res=res)


_COMPACT = re.compile(r"^e*t$|^e$")


def parse_type(text: str) -> SemType:
    """Parse the flat spelling used in lexicon files.

    'e' is the entity atom; a string of n 'e's followed by 't' is the
    n-place predicate type, associated to the right ('eet' is <e,<e,t>>).
    """
    if not _COMPACT.match(text):
        raise ValueError(f"unrecognised type spelling {text!r}")
    if text == "e":
        return E
    ty = T
    for _ in range(len(text) - 1):
        ty = fn(E, ty)
    return ty


class SpaceMap(NamedTuple):
    """Assignment of vector spaces to the two atomic types."""

    entity: Space
    sentence: Space


@lru_cache(maxsize=1024)
def signature_of(ty: SemType, smap: SpaceMap) -> Signature:
    """Tensor signature denoted by a type under a space map.

    Total, since every SemType lies in the e...et family.  Worked out once
    per type and space map; later calls return the same Signature while
    the pair is among the 1,024 most recently asked.
    """
    if ty is E:
        return Signature((smap.entity,))
    if ty is T:
        return Signature((smap.sentence,))
    if ty.res is T:
        return Signature((smap.entity, smap.sentence))
    return Signature(tuple(signature_of(ty.res, smap)) + (smap.entity,))


@cache
def application_slot(ty: SemType) -> int:
    """Which slot of a function type's tensor its next argument binds.

    A one-step-from-t function (res == t) consumes its argument at slot 0;
    higher-arity functions consume at their last slot, working inward so the
    final application lands on slot 0.  The signature of <e,...,t> with n
    arguments has n+1 slots, one per letter of its flat spelling: slot 0
    for the innermost argument, the sentence slot next, then one slot per
    remaining argument outward.  Worked out once per type.
    """
    if not ty.is_function:
        raise ValueError(f"type {ty} is not a function type")
    return 0 if ty.res is T else len(ty.compact()) - 1
