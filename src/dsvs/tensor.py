"""Dense tensors over named vector spaces with labelled bases.

A Space is a finite-dimensional vector space whose basis vectors carry
string labels.  A Signature is an ordered list of spaces; a Tensor pairs a
signature with a dense numpy array of matching shape.  Order matters
throughout: a signature (W, S, W) is not the same object as (W, W, S).

Integer-valued input is stored as int64 so that arithmetic on small count
data stays exact; everything else is carried as float64; booleans,
non-finite floats and integers outside int64 are refused.  Arrays are
copied on construction and marked read-only, so tensors behave as values.

All operations here are dense.  Contraction of tensors with n and m slots,
k of them paired, costs on the order of the product of all involved
dimensions; fine for the small spaces this package works with, ruinous for
large ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DuplicateSlot,
    EmptyList,
    EmptySignature,
    SignatureMismatch,
    SlotOutOfRange,
    SpaceMismatch,
)


@dataclass(frozen=True)
class Space:
    """A named vector space with an ordered, labelled basis."""

    name: str
    basis: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "basis", tuple(self.basis))
        if not self.basis:
            raise ValueError(f"space {self.name!r} must have at least one basis label")
        if len(set(self.basis)) != len(self.basis):
            raise ValueError(f"space {self.name!r} has duplicate basis labels")

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
    """An ordered tuple of spaces.  The empty signature denotes a scalar."""

    spaces: tuple[Space, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "spaces", tuple(self.spaces))

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.spaces)

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
    object array)."""
    for v in values:
        if isinstance(v, (list, tuple)):
            _check_entries(v)
        elif isinstance(v, (bool, np.bool_)):
            raise TypeError(f"tensor entry {v} is a boolean, not a number")
        elif isinstance(v, int) and not -2**63 <= v < 2**63:
            raise ValueError(f"tensor entry {v} is outside the int64 range")


def _freeze(values) -> np.ndarray:
    if isinstance(values, (list, tuple)):
        _check_entries(values)
    arr = np.array(values)
    if arr.dtype.kind in "iu":
        if arr.dtype.kind == "u" and arr.size and arr.max() > np.iinfo(np.int64).max:
            raise ValueError(f"tensor entry {arr.max()} is outside the int64 range")
        arr = arr.astype(np.int64)
    elif arr.dtype.kind == "f":
        finite = np.isfinite(arr)
        if not finite.all():
            raise ValueError(f"tensor entry {arr[~finite][0]} is not a finite number")
        arr = arr.astype(np.float64)
    else:
        raise TypeError(f"tensor entries must be numeric, got dtype {arr.dtype}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Tensor:
    """An immutable dense tensor over a signature.

    The array shape must equal the signature's dims, slot by slot.  Equality
    is value equality: same signature and entrywise identical entries.
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
        return hash((self.signature, self.array.tobytes()))

    def __repr__(self):
        return f"Tensor({self.signature!r}, {self.array.tolist()!r})"


class TensorTuple:
    """A non-empty ordered tuple of tensors sharing one signature.

    Used when a value is kept as separate alternatives rather than being
    collapsed into a single tensor.  Entrywise addition of the components
    recovers the collapsed form; collapse() computes it once and keeps it.

    A caller that already knows that sum may pass it as collapsed; the
    components may then be any read-only sequence, lazy ones included, and
    are taken on trust to sum to it.  interpret builds its direct_sum
    stand-ins and roots this way.  Either way the value is immutable.
    """

    __slots__ = ("_components", "_collapsed")

    def __init__(self, components, collapsed: Tensor | None = None):
        if collapsed is None:
            components = tuple(components)
            for i, c in enumerate(components[1:], start=1):
                if c.signature != components[0].signature:
                    raise SignatureMismatch(
                        f"component {i} has signature {c.signature!r}, "
                        f"expected {components[0].signature!r}"
                    )
        if not len(components):
            raise EmptyList("a tensor tuple needs at least one component")
        self._components = components
        self._collapsed = collapsed

    @property
    def components(self):
        return self._components

    @property
    def signature(self) -> Signature:
        if self._collapsed is not None:
            return self._collapsed.signature
        return self._components[0].signature

    def collapse(self) -> Tensor:
        """Entrywise sum of all components."""
        if self._collapsed is None:
            self._collapsed = sum_tensors(list(self._components))
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


def contract(a: Tensor, b: Tensor, pairs: list[tuple[int, int]]) -> Tensor:
    """Contract tensor a against tensor b along the given slot pairs.

    Each pair (i, j) sums a's slot i against b's slot j; the paired spaces
    must be equal.  The result keeps a's unpaired slots in order, then b's
    unpaired slots in order.  With no pairs this is the outer product.
    """
    a_slots = []
    b_slots = []
    for i, j in pairs:
        if not 0 <= i < a.rank:
            raise SlotOutOfRange(f"slot {i} out of range for left operand of rank {a.rank}")
        if not 0 <= j < b.rank:
            raise SlotOutOfRange(f"slot {j} out of range for right operand of rank {b.rank}")
        if i in a_slots:
            raise DuplicateSlot(f"left slot {i} paired twice")
        if j in b_slots:
            raise DuplicateSlot(f"right slot {j} paired twice")
        if a.signature[i] != b.signature[j]:
            raise SpaceMismatch(
                f"cannot pair slot {i} ({a.signature[i]!r}) with slot {j} "
                f"({b.signature[j]!r})"
            )
        a_slots.append(i)
        b_slots.append(j)

    out = np.tensordot(a.array, b.array, axes=(a_slots, b_slots))
    kept = [sp for k, sp in enumerate(a.signature) if k not in a_slots]
    kept += [sp for k, sp in enumerate(b.signature) if k not in b_slots]
    return Tensor(Signature(tuple(kept)), out)


def sum_tensors(tensors: list[Tensor]) -> Tensor:
    """Entrywise sum of one or more tensors over a common signature."""
    if not tensors:
        raise EmptyList("cannot sum zero tensors")
    sig = tensors[0].signature
    for i, t in enumerate(tensors[1:], start=1):
        if t.signature != sig:
            raise SignatureMismatch(
                f"operand {i} has signature {t.signature!r}, expected {sig!r}"
            )
    total = tensors[0].array
    for t in tensors[1:]:
        total = total + t.array
    return Tensor(sig, total)


def direct_sum(tensors: list[Tensor]) -> TensorTuple:
    """Keep tensors as an ordered tuple of alternatives; see TensorTuple."""
    return TensorTuple(tuple(tensors))


def unit_tensor(signature: Signature) -> Tensor:
    """The all-ones tensor over a signature (must name at least one space)."""
    if len(signature) == 0:
        raise EmptySignature("a unit tensor needs at least one space")
    return Tensor(signature, np.ones(signature.dims, dtype=np.int64))


def mu(a: Tensor, b: Tensor) -> Tensor:
    """Entrywise (Hadamard) product of two tensors over one signature.

    Commutative and associative, with the all-ones tensor as unit.
    """
    if a.signature != b.signature:
        raise SignatureMismatch(
            f"entrywise product needs equal signatures, got {a.signature!r} "
            f"and {b.signature!r}"
        )
    return Tensor(a.signature, a.array * b.array)
