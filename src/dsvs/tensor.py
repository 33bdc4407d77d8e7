"""Dense tensors over named vector spaces with labelled bases.

A Space is a finite-dimensional vector space whose basis vectors carry
string labels.  A Signature is an ordered list of spaces; a Tensor pairs a
signature with a dense numpy array of matching shape.  Order matters
throughout: a signature (W, S, W) is not the same object as (W, W, S).

Integer-valued input is stored as int64 so that arithmetic on small count
data stays exact; everything else is carried as float64; booleans,
non-finite floats and integers outside int64 are refused.  Arrays are
copied on construction and marked read-only, so tensors behave as values.

Entries given as nested lists or tuples, as a lexicon file gives them, go
through numpy once as an object array: numpy finds the regular shape and
keeps each entry the Python object it was.  When every entry is a plain
int, or every entry a float, that array is cast to int64 or float64 in
one step; an int outside int64 fails the cast.  Any other nesting, that
failure included, is walked depth first before numpy builds it again, so
the first boolean or integer outside int64 is the one named, and a list
that holds itself is refused with RecursionError.  Arrays are copied once:
np.array copies one given, and a cast to its own dtype copies nothing.

The results of contract, mu and sum_tensors are built by one trusted path
instead: their arrays are fresh int64 or float64 arrays of the right shape
by construction, so they are only marked read-only, and a float result is
still refused unless every entry is finite.  Float overflow inside these
operations is reported that way alone, not also as a numpy warning.

contract plans each contraction once.  A plan is kept per (left signature,
right signature, pairs), compared by value, so a reloaded lexicon reuses
the plans of the first.  At most 1,024 plans are kept: making one more
drops them all, so a process that meets ever new spaces does not keep
every one of them alive.  A plan holds the result signature and the
transposes and reshapes that lower the contraction to one np.dot,
exactly as numpy's tensordot lowers it, so results are bit for bit those
of tensordot.  Pairs are checked when a plan is made; an invalid pair
list is never stored.

A TensorTuple is always built with its sum, so it never adds up its
components itself: interpret knows each sum before it builds a tuple, and
direct_sum, the one place that adds a list of tensors up into a tuple,
takes it with sum_tensors.  direct_sum has no caller inside the package;
it stays as public API, the way to keep alternatives apart from outside,
and bench/spans.py wraps tensor.direct_sum by name.

All operations here are dense.  Contraction of tensors with n and m slots,
k of them paired, costs on the order of the product of all involved
dimensions; fine for the small spaces this package works with, ruinous for
large ones.  The tensors here are tiny, so a call costs mostly its fixed
overhead, which the plans keep small.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .errors import (
    DuplicateSlot,
    EmptyList,
    EmptySignature,
    NonFiniteEntry,
    SignatureMismatch,
    SlotOutOfRange,
    SpaceMismatch,
)


@dataclass(frozen=True)
class Space:
    """A named vector space with an ordered, labelled basis.

    Equal by value; the hash is computed once, on construction, and a
    copy or an unpickled space is built anew, so computes its own.
    """

    name: str
    basis: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "basis", tuple(self.basis))
        if not self.basis:
            raise ValueError(f"space {self.name!r} must have at least one basis label")
        if len(set(self.basis)) != len(self.basis):
            raise ValueError(f"space {self.name!r} has duplicate basis labels")
        object.__setattr__(self, "_hash", hash((self.name, self.basis)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return Space, (self.name, self.basis)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def index(self, label: str) -> int:
        """Position of a basis label, raising KeyError if absent."""
        try:
            return self.basis.index(label)
        except ValueError:
            raise KeyError(f"{label!r} is not a basis label of space {self.name!r}")

    def __repr__(self):
        return f"Space({self.name!r}, dim={self.dim})"


@dataclass(frozen=True)
class Signature:
    """An ordered tuple of spaces.  The empty signature denotes a scalar.

    Equal by value; the hash is computed once, on construction, so that
    contract's plan lookup does not rehash every space on every call, and
    so is dims, the tuple of the spaces' dimensions; a copy or an unpickled
    signature is built anew, as a Space is.
    """

    spaces: tuple[Space, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "spaces", tuple(self.spaces))
        object.__setattr__(self, "_hash", hash(self.spaces))
        object.__setattr__(self, "dims", tuple(len(s.basis) for s in self.spaces))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return Signature, (self.spaces,)

    def __len__(self):
        return len(self.spaces)

    def __iter__(self):
        return iter(self.spaces)

    def __getitem__(self, i):
        return self.spaces[i]

    def __repr__(self):
        if not self.spaces:
            return "Signature(scalar)"
        return "Signature(" + " @ ".join(s.name for s in self.spaces) + ")"


def _check_entries(values) -> None:
    """Refuse what numpy would make another number without complaint when
    it builds an array from nested lists: a boolean beside numbers (counted
    as 1) and an integer outside int64 (made a float, or past 2**64 an
    object array), naming the first such entry, depth first.  A list that
    holds itself has no last level, and is refused with RecursionError.
    """
    for v in values:
        if isinstance(v, (list, tuple)):
            _check_entries(v)
        elif isinstance(v, (bool, np.bool_)):
            raise TypeError(f"tensor entry {v} is a boolean, not a number")
        elif isinstance(v, int) and not -2**63 <= v < 2**63:
            raise ValueError(f"tensor entry {v} is outside the int64 range")


def _check_finite(arr: np.ndarray) -> None:
    finite = np.isfinite(arr)
    if not finite.all():
        raise NonFiniteEntry(f"tensor entry {arr[~finite][0]} is not a finite number")


def _from_lists(values) -> np.ndarray:
    """Nested lists and tuples as a new array, its entries checked.

    numpy builds an object array first, finding the shape and keeping each
    entry as given; all plain ints, or all floats, are cast from it in one
    step.  Anything else, an int outside int64 among them, is walked by
    _check_entries and then built by numpy from the nesting.  numpy unfolds
    nested lists down to 64 dimensions, and a list that holds itself twice
    would take it 2**64 steps, so a nesting whose first entries run 64
    lists deep goes to the walk at once.
    """
    first, depth = values, 0
    while isinstance(first, (list, tuple)) and first and depth < 64:
        first, depth = first[0], depth + 1
    if depth < 64:
        try:
            entries = np.array(values, dtype=object)
            types = set(map(type, entries.ravel()))
            if types == {int}:
                return entries.astype(np.int64)
            if types == {float}:
                return entries.astype(np.float64)
        except (OverflowError, ValueError):  # numpy's message comes below
            pass
    _check_entries(values)
    return np.array(values)


def _freeze(values) -> np.ndarray:
    arr = _from_lists(values) if isinstance(values, (list, tuple)) else np.array(values)
    if arr.dtype.kind in "iu":
        if arr.dtype.kind == "u" and arr.size and arr.max() > np.iinfo(np.int64).max:
            raise ValueError(f"tensor entry {arr.max()} is outside the int64 range")
        arr = arr.astype(np.int64, copy=False)
    elif arr.dtype.kind == "f":
        _check_finite(arr)
        arr = arr.astype(np.float64, copy=False)
    else:
        raise TypeError(f"tensor entries must be numeric, got dtype {arr.dtype}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Tensor:
    """An immutable dense tensor over a signature.

    The array shape must equal the signature's dims, slot by slot.  Equality
    is value equality: same signature and entrywise equal entries, so an
    int tensor equals the float tensor of the same values, and equal
    tensors hash equal.
    """

    signature: Signature
    array: np.ndarray

    def __post_init__(self):
        arr = _freeze(self.array)
        if arr.shape != self.signature.dims:
            raise ValueError(
                f"array shape {arr.shape} does not match signature dims "
                f"{self.signature.dims}"
            )
        object.__setattr__(self, "array", arr)

    @property
    def rank(self) -> int:
        return len(self.signature)

    def entry(self, *labels: str):
        """Look an entry up by basis labels, one label per slot."""
        if len(labels) != self.rank:
            raise ValueError(f"expected {self.rank} labels, got {len(labels)}")
        idx = tuple(sp.index(lab) for sp, lab in zip(self.signature, labels))
        return self.array[idx].item()

    def tolist(self):
        return self.array.tolist()

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return self.signature == other.signature and np.array_equal(
            self.array, other.array
        )

    def __hash__(self):
        # __eq__ compares an int array with a float one as floats, and 0.0
        # with -0.0 as equal, so hash the float64 values with -0.0 made 0.0
        return hash((self.signature, (self.array + 0.0).tobytes()))

    def __repr__(self):
        return f"Tensor({self.signature!r}, {self.array.tolist()!r})"


class TensorTuple:
    """A non-empty ordered tuple of tensors sharing one signature.

    Used when a value is kept as separate alternatives rather than being
    collapsed into a single tensor.  collapsed is the entrywise sum of the
    components, which the caller passes in: the components may be any
    read-only sequence, lazy ones included, and are taken on trust to sum
    to it.  interpret builds its direct_sum stand-ins and roots this way,
    and direct_sum builds a tuple from a list of tensors.  The value is
    immutable.
    """

    __slots__ = ("_components", "_collapsed")

    def __init__(self, components, collapsed: Tensor):
        if not len(components):
            raise EmptyList("a tensor tuple needs at least one component")
        self._components = components
        self._collapsed = collapsed

    @property
    def components(self):
        return self._components

    @property
    def signature(self) -> Signature:
        return self._collapsed.signature

    def collapse(self) -> Tensor:
        """Entrywise sum of all components."""
        return self._collapsed

    def __len__(self):
        return len(self._components)

    def __iter__(self):
        return iter(self._components)

    def __getitem__(self, i):
        return self._components[i]

    def __eq__(self, other):
        if not isinstance(other, TensorTuple):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return f"TensorTuple({len(self)} x {self.signature!r})"


_FLOAT = np.dtype(np.float64)


def _result(signature: Signature, arr) -> Tensor:
    """A Tensor around a value this module just computed from tensors.

    arr is an int64 or float64 array of the signature's shape, or the
    numpy scalar an operation on 0-d arrays returns, and nothing outside
    this module can write to it (a sum of one tensor passes that tensor's
    own read-only array); so _freeze is skipped and the array is only
    marked read-only.  A float result must still be finite everywhere.
    """
    if type(arr) is not np.ndarray:
        arr = np.array(arr)
    if arr.dtype is _FLOAT:
        _check_finite(arr)
    arr.setflags(write=False)
    t = object.__new__(Tensor)
    t.__dict__.update(signature=signature, array=arr)
    return t


def _apply(op, x: np.ndarray, y: np.ndarray):
    """op(x, y), with numpy's float overflow warnings off when either is
    float: _result then refuses a non-finite value, the only report."""
    if x.dtype is _FLOAT or y.dtype is _FLOAT:
        with np.errstate(over="ignore", invalid="ignore"):
            return op(x, y)
    return op(x, y)


# contraction plans by (left signature, right signature, pairs); all are
# dropped when _MAX_PLANS are kept and one more is made
_MAX_PLANS = 1024
_PLANS: dict = {}


def _plan(sa: Signature, sb: Signature, pairs: tuple) -> tuple:
    """Check the pairs against both signatures, then lay the contraction
    out as numpy's tensordot does and keep the layout in _PLANS.

    The plan is (result signature, left transpose, left 2-d shape, right
    transpose, right 2-d shape, result shape): paired slots move to the end
    of the left operand and the front of the right one.
    """
    a_slots = []
    b_slots = []
    for i, j in pairs:
        if not 0 <= i < len(sa):
            raise SlotOutOfRange(f"slot {i} out of range for left operand of rank {len(sa)}")
        if not 0 <= j < len(sb):
            raise SlotOutOfRange(f"slot {j} out of range for right operand of rank {len(sb)}")
        if i in a_slots:
            raise DuplicateSlot(f"left slot {i} paired twice")
        if j in b_slots:
            raise DuplicateSlot(f"right slot {j} paired twice")
        if sa[i] != sb[j]:
            raise SpaceMismatch(
                f"cannot pair slot {i} ({sa[i]!r}) with slot {j} ({sb[j]!r})"
            )
        a_slots.append(i)
        b_slots.append(j)

    a_kept = [k for k in range(len(sa)) if k not in a_slots]
    b_kept = [k for k in range(len(sb)) if k not in b_slots]
    da, db = sa.dims, sb.dims
    paired = prod(da[i] for i in a_slots)
    plan = (
        Signature(tuple(sa[k] for k in a_kept) + tuple(sb[k] for k in b_kept)),
        tuple(a_kept + a_slots),
        (prod(da[k] for k in a_kept), paired),
        tuple(b_slots + b_kept),
        (paired, prod(db[k] for k in b_kept)),
        tuple(da[k] for k in a_kept) + tuple(db[k] for k in b_kept),
    )
    if len(_PLANS) >= _MAX_PLANS:
        _PLANS.clear()  # one atomic call: no two threads evict the same key
    _PLANS[sa, sb, tuple(zip(a_slots, b_slots))] = plan
    return plan


def contract(a: Tensor, b: Tensor, pairs: list[tuple[int, int]]) -> Tensor:
    """Contract tensor a against tensor b along the given slot pairs.

    Each pair (i, j) sums a's slot i against b's slot j; the paired spaces
    must be equal.  The result keeps a's unpaired slots in order, then b's
    unpaired slots in order.  With no pairs this is the outer product.
    """
    pairs = tuple(pairs)
    try:
        plan = _PLANS[a.signature, b.signature, pairs]
    except (KeyError, TypeError):  # TypeError: pairs given as lists
        plan = _plan(a.signature, b.signature, pairs)
    signature, a_axes, a_shape, b_axes, b_shape, shape = plan
    out = _apply(
        np.dot,
        a.array.transpose(a_axes).reshape(a_shape),
        b.array.transpose(b_axes).reshape(b_shape),
    )
    return _result(signature, out.reshape(shape))


def sum_tensors(tensors: list[Tensor]) -> Tensor:
    """Entrywise sum of one or more tensors over a common signature."""
    if not tensors:
        raise EmptyList("cannot sum zero tensors")
    sig = tensors[0].signature
    for i, t in enumerate(tensors[1:], start=1):
        if t.signature is not sig and t.signature != sig:
            raise SignatureMismatch(
                f"operand {i} has signature {t.signature!r}, expected {sig!r}"
            )
    total = tensors[0].array
    for t in tensors[1:]:
        total = _apply(np.add, total, t.array)
    return _result(sig, total)


def direct_sum(tensors: list[Tensor]) -> TensorTuple:
    """Keep tensors as an ordered tuple of alternatives, collapsing to
    their sum_tensors; see TensorTuple."""
    tensors = tuple(tensors)
    return TensorTuple(tensors, sum_tensors(tensors))


def unit_tensor(signature: Signature) -> Tensor:
    """The all-ones tensor over a signature (must name at least one space)."""
    if len(signature) == 0:
        raise EmptySignature("a unit tensor needs at least one space")
    return Tensor(signature, np.ones(signature.dims, dtype=np.int64))


def mu(a: Tensor, b: Tensor) -> Tensor:
    """Entrywise (Hadamard) product of two tensors over one signature.

    Commutative and associative, with the all-ones tensor as unit.
    """
    if a.signature is not b.signature and a.signature != b.signature:
        raise SignatureMismatch(
            f"entrywise product needs equal signatures, got {a.signature!r} "
            f"and {b.signature!r}"
        )
    return _result(a.signature, _apply(np.multiply, a.array, b.array))
