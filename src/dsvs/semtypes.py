"""Semantic types and their tensor signatures.

The type family used here is built from two atoms, e (entities) and t
(propositions), closed under function types whose argument is e:

    e, t, <e,t>, <e,<e,t>>, ...

A SpaceMap assigns a vector space to each atom.  Every type in the family
then denotes a tensor signature:

    e            -> (E,)
    t            -> (S,)
    <e,t>        -> (E, S)
    <e,<e,R>>    -> signature of <e,R> with one more E slot appended

so an n-place predicate is a tensor with n entity slots around a single
sentence-space slot, the first entity slot belonging to the first argument
composed when the predicate is reduced all the way down to t.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import UnmappedType
from .tensor import Signature, Space, Tensor, TensorTuple


@dataclass(frozen=True)
class SemType:
    """An atomic or function type.  Use E, T, and fn() to build instances."""

    atom: str | None = None
    arg: "SemType | None" = None
    res: "SemType | None" = None

    def __post_init__(self):
        if self.atom is not None:
            if self.atom not in ("e", "t") or self.arg or self.res:
                raise ValueError(f"bad atomic type {self.atom!r}")
        elif self.arg is None or self.res is None:
            raise ValueError("function type needs both argument and result")

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


@dataclass(frozen=True)
class SpaceMap:
    """Assignment of vector spaces to the two atomic types."""

    entity: Space
    sentence: Space


def signature_of(ty: SemType, smap: SpaceMap) -> Signature:
    """Tensor signature denoted by a type under a space map.

    Raises UnmappedType for types outside the e...et family (for instance a
    type whose argument is itself a function).
    """
    if ty == E:
        return Signature((smap.entity,))
    if ty == T:
        return Signature((smap.sentence,))
    if ty.is_function and ty.arg == E:
        if ty.res == T:
            return Signature((smap.entity, smap.sentence))
        inner = signature_of(ty.res, smap)
        return Signature(tuple(inner) + (smap.entity,))
    raise UnmappedType(f"no tensor signature for type {ty}")


def check_formula(ty: SemType, formula, smap: SpaceMap) -> bool:
    """True when a tensor (or tuple of tensors) fits a type's signature.

    Total: unmappable types and wrong signatures both return False.
    """
    try:
        sig = signature_of(ty, smap)
    except UnmappedType:
        return False
    return isinstance(formula, (Tensor, TensorTuple)) and formula.signature == sig


def application_slot(ty: SemType) -> int:
    """Which slot of a function type's tensor its next argument binds.

    A one-step-from-t function (res == t) consumes its argument at slot 0;
    higher-arity functions consume at their last slot, working inward so the
    final application lands on slot 0.  The signature of <e,...,t> with n
    arguments has n+1 slots: slot 0 for the innermost argument, the sentence
    slot next, then one slot per remaining argument outward.
    """
    if not ty.is_function:
        raise ValueError(f"type {ty} is not a function type")
    if ty.res == T:
        return 0
    arity = 0
    cur = ty
    while cur.is_function:
        arity += 1
        cur = cur.res
    return arity
