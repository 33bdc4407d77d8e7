"""Dense tensors over named vector spaces with labelled bases.

A Space is a finite-dimensional vector space whose basis vectors carry
string labels.  A Signature is an ordered list of spaces; a Tensor pairs a
signature with a dense numpy array of matching shape.  Order matters
throughout: a signature (W, S, W) is not the same object as (W, W, S).

Integer-valued input is stored as int64 so that arithmetic on small count
data stays exact; everything else is carried as float64; booleans,
non-finite floats and integers outside int64 are refused.  Tensor copies
an array on construction and marks it read-only, so tensors behave as
values.

Entries given as lists or tuples, flat or nested, go through numpy once
as an object array: numpy finds the regular shape and keeps each entry
the Python object it was.  When every entry is a plain int, or every
entry a float, that array is cast to int64 or float64 in one step; an int
outside int64 fails the cast.  Any other nesting, that failure included,
is walked depth first before numpy builds it again, so the first boolean
or integer outside int64 is the one named, and a list that holds itself
is refused with RecursionError.  Arrays are
copied once: np.array copies one given, and a cast to its own dtype
copies nothing.

tensors_of builds many tensors of one signature, as a lexicon load builds
a type's senses: one object array of all the rows, one screen of its
entry types and one cast, and each tensor holds a read-only row of the
result, a view, not a copy.  Rows that are not all plain ints, or all
finite floats, of the signature's shape are built one by one with
Tensor, so each tensor has the value and dtype Tensor gives it, and the
first bad row raises what Tensor raises.

The results of contract, mu and sum_tensors are built by one trusted path
instead: their arrays are fresh int64 or float64 arrays of the right shape
by construction, so they are only marked read-only, and a float result is
still refused unless every entry is finite.  Float overflow inside these
operations is reported that way alone, not also as a numpy warning.
sum_tensors adds its operands left to right, one add at a time, int64
and float alike: a float reduction of eight or more values numpy sums
pairwise, and those sums may round otherwise.

contract plans each contraction once.  A plan is kept per (left signature,
right signature, pairs), compared by value, so a reloaded lexicon reuses
the plans of the first.  The 1,024 plans most recently used are kept,
the least recently used dropped first (functools.lru_cache), so a
process that meets ever new spaces does not keep every one of them
alive.  A plan holds the result signature and the transposes and
reshapes that lower the contraction to one np.dot, exactly as numpy's
tensordot lowers it, so results are bit for bit those of tensordot.  A
transpose that leaves every slot in place is recorded as none and left
out, as an argument vector's always is: it would only make a view of the
same memory, which the reshape reads as it reads the array itself.
Pairs given as lists are looked up as tuples.  Pairs are checked when a
plan is made; a pair list that is refused raises, and lru_cache keeps no
call that raised.

A Batch is a space that marks a slot of stacked alternatives: stack puts
tensors of one signature side by side on a trailing Batch slot, and mu
multiplies a tensor with each stacked value when the other signature is
its own with such a slot; any other difference of signatures is refused
as before.  Each stacked signature is built once per (signature, size)
and kept as plans are, the 1,024 most recently used, so stacks of one
size share contraction plans.  contract needs nothing new: it keeps
unpaired slots in order, so a Batch slot last in an operand stays last
whenever the other operand keeps no slot after it, as an entity argument
keeps none.  A Batch never equals a Space, so it is never paired.
Entrywise products are exact per entry, so mu of a stacked value gives
the bits of mu of that value alone, float or int; a contraction of a
stack is one np.dot of another shape, whose float sums may round
otherwise, so interpret stacks int64 values only.

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
from functools import lru_cache
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


class Batch(Space):
    """A space whose basis vectors index alternative values of one tensor.

    A tensor with a trailing Batch slot of n labels holds n values of the
    signature before that slot, value k at label k; stack builds one.
    Labels are positions ("0", "1", ...), so batches of one size are
    equal and share contraction plans.  A Batch equals only a Batch, never
    a Space of the same name and labels, so a batch slot is never paired.
    """

    def __reduce__(self):
        return Batch, (self.name, self.basis)

    def __repr__(self):
        return f"Batch({self.name!r}, dim={self.dim})"


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


def _depth(values) -> int:
    """How many lists deep the first entries of a nesting run, up to 64."""
    first, depth = values, 0
    while isinstance(first, (list, tuple)) and first and depth < 64:
        first, depth = first[0], depth + 1
    return depth


def _cast_objects(values) -> np.ndarray | None:
    """Nested lists as one object array, numpy finding the shape and
    keeping each entry as given, cast to int64 when every entry is a plain
    int or to float64 when every entry is a float; None for anything else,
    an int outside int64 among it."""
    try:
        entries = np.array(values, dtype=object)
        kinds = set(map(type, entries.ravel()))
        if kinds == {int}:
            return entries.astype(np.int64)
        if kinds == {float}:
            return entries.astype(np.float64)
    except (OverflowError, ValueError):  # the entry is named by the walk
        pass
    return None


def _from_lists(values) -> np.ndarray:
    """Nested lists and tuples as a new array, its entries checked.

    A nesting of plain ints only, or of floats only, is built by
    _cast_objects.  Anything else, an int outside int64 among it, is
    walked by _check_entries and then built by numpy from the nesting.
    numpy unfolds nested lists down to 64 dimensions, and a list that
    holds itself twice would take it 2**64 steps, so a nesting whose
    first entries run 64 lists deep goes to the walk at once.
    """
    if _depth(values) < 64:
        arr = _cast_objects(values)
        if arr is not None:
            return arr
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


def _wrap(signature: Signature, arr: np.ndarray) -> Tensor:
    """A Tensor around a read-only array of the signature's shape that
    this module made, with no check and no copy."""
    t = object.__new__(Tensor)
    t.__dict__.update(signature=signature, array=arr)
    return t


def tensors_of(signature: Signature, rows) -> list[Tensor]:
    """One tensor of the signature per nested entry list in rows, each
    equal in value and dtype to Tensor(signature, row).

    The rows go through numpy together: one object array, one screen of
    its entry types and one cast, and each tensor holds a read-only row of
    the result.  Unless the rows are all plain ints, or all finite floats,
    and of the signature's shape, each is built with Tensor instead, so
    the first bad row raises what Tensor raises for it.
    """
    rows = list(rows)
    shape = (len(rows), *signature.dims)
    # first entries at the depth of the shape, so numpy never unfolds a
    # list that holds itself (see _from_lists)
    arr = _cast_objects(rows) if rows and _depth(rows) == len(shape) else None
    if (arr is None or arr.shape != shape
            or arr.dtype is _FLOAT and not np.isfinite(arr).all()):
        return [Tensor(signature, row) for row in rows]
    arr.setflags(write=False)
    return [_wrap(signature, arr[k, ...]) for k in range(len(rows))]


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
    return _wrap(signature, arr)


def _apply(op, x: np.ndarray, y: np.ndarray):
    """op(x, y), with numpy's float overflow warnings off when either is
    float: _result then refuses a non-finite value, the only report."""
    if x.dtype is _FLOAT or y.dtype is _FLOAT:
        with np.errstate(over="ignore", invalid="ignore"):
            return op(x, y)
    return op(x, y)


def _plan(sa: Signature, sb: Signature, pairs: tuple) -> tuple:
    """Check the pairs against both signatures, then lay the contraction
    out as numpy's tensordot does.

    The plan is (result signature, left transpose, left 2-d shape, right
    transpose, right 2-d shape, result shape): paired slots move to the end
    of the left operand and the front of the right one.  A transpose that
    moves no slot is None.
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
    return (
        Signature(tuple(sa[k] for k in a_kept) + tuple(sb[k] for k in b_kept)),
        _moved(a_kept + a_slots),
        (prod(da[k] for k in a_kept), paired),
        _moved(b_slots + b_kept),
        (paired, prod(db[k] for k in b_kept)),
        tuple(da[k] for k in a_kept) + tuple(db[k] for k in b_kept),
    )


def _moved(axes: list) -> tuple | None:
    """A transpose's axis order, or None when it leaves every axis in place."""
    return None if axes == sorted(axes) else tuple(axes)


@lru_cache(maxsize=1024)
def _planned(sa: Signature, sb: Signature, pairs: tuple) -> tuple:
    """_plan's answer, kept for the 1,024 (left signature, right
    signature, pairs) most recently asked; one that raised is not kept."""
    return _plan(sa, sb, pairs)


def contract(a: Tensor, b: Tensor, pairs: list[tuple[int, int]]) -> Tensor:
    """Contract tensor a against tensor b along the given slot pairs.

    Each pair (i, j) sums a's slot i against b's slot j; the paired spaces
    must be equal.  The result keeps a's unpaired slots in order, then b's
    unpaired slots in order.  With no pairs this is the outer product.
    """
    pairs = tuple(pairs)
    try:
        plan = _planned(a.signature, b.signature, pairs)
    except TypeError:  # pairs given as lists, which cannot be hashed
        plan = _planned(a.signature, b.signature, tuple(map(tuple, pairs)))
    signature, a_axes, a_shape, b_axes, b_shape, shape = plan
    x, y = a.array, b.array
    if a_axes is not None:
        x = x.transpose(a_axes)
    if b_axes is not None:
        y = y.transpose(b_axes)
    out = _apply(np.dot, x.reshape(a_shape), y.reshape(b_shape))
    return _result(signature, out.reshape(shape))


def sum_tensors(tensors: list[Tensor]) -> Tensor:
    """Entrywise sum of one or more tensors over a common signature, added
    left to right."""
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


@lru_cache(maxsize=1024)
def _stacked(sig: Signature, size: int) -> tuple:
    """The signature of size stacked tensors of sig and the axis order that
    puts the values last, kept for the 1,024 pairs most recently asked."""
    batch = Batch("batch", tuple(map(str, range(size))))
    return Signature(sig.spaces + (batch,)), (*range(1, len(sig) + 1), 0)


def stack(tensors: list[Tensor]) -> Tensor:
    """One or more tensors over a common signature as one tensor with a
    trailing Batch slot, tensor k at label k.

    Entries are copied, not computed; a stack of int and float tensors is
    float, as numpy makes it.  The stacked signature is built once per
    signature and size, so stacks of one size share contraction plans.
    """
    if not tensors:
        raise EmptyList("cannot stack zero tensors")
    sig = tensors[0].signature
    for i, t in enumerate(tensors[1:], start=1):
        if t.signature is not sig and t.signature != sig:
            raise SignatureMismatch(
                f"operand {i} has signature {t.signature!r}, expected {sig!r}"
            )
    stacked, axes = _stacked(sig, len(tensors))
    # one copy with the values first, read through a view that puts them
    # last; the copy is read-only, so the view is too
    arr = np.array([t.array for t in tensors])
    arr.setflags(write=False)
    return _result(stacked, arr.transpose(axes))


def unit_tensor(signature: Signature) -> Tensor:
    """The all-ones tensor over a signature (must name at least one space)."""
    if len(signature) == 0:
        raise EmptySignature("a unit tensor needs at least one space")
    return Tensor(signature, np.ones(signature.dims, dtype=np.int64))


def _batch_of(short: Signature, long: Signature) -> bool:
    """Is long short with one trailing Batch slot?"""
    return (len(long) == len(short) + 1 and isinstance(long[-1], Batch)
            and long.spaces[:-1] == short.spaces)


def mu(a: Tensor, b: Tensor) -> Tensor:
    """Entrywise (Hadamard) product of two tensors over one signature.

    Commutative and associative, with the all-ones tensor as unit.  When
    one signature is the other with a trailing Batch slot, the other
    tensor multiplies each stacked value: value k of the result is the
    product with value k, entry for entry as mu of that value alone.  Any
    other difference of signatures raises SignatureMismatch.
    """
    sa, sb = a.signature, b.signature
    x, y = a.array, b.array
    if sa is not sb and sa != sb:
        if _batch_of(sa, sb):
            x, sa = x[..., None], sb
        elif _batch_of(sb, sa):
            y = y[..., None]
        else:
            raise SignatureMismatch(
                f"entrywise product needs equal signatures, got {sa!r} and {sb!r}"
            )
    return _result(sa, _apply(np.multiply, x, y))
