"""Datatype base class and primitive types.

MPI semantics implemented here:

* ``size`` — bytes of actual data in one element of the type.
* ``lb`` / ``ub`` — lower/upper bound markers; ``extent = ub - lb`` is the
  stride between consecutive elements in a ``(datatype, count)`` buffer.
  ``lb`` may be negative (hindexed/struct with negative displacements),
  and ``resized`` can set both arbitrarily.
* ``flatten(count)`` — the merged <offset, length> block list of ``count``
  elements, offsets relative to the buffer origin (the address passed to
  MPI_Send).  Cached per count, since the schemes flatten the same type on
  every operation and real implementations cache dataloops the same way.
* ``signature()`` — a hashable identity used by the receiver-datatype
  cache (Section 5.4.2).
"""

from __future__ import annotations


from repro.datatypes import flatten as flatten_mod
from repro.datatypes.flatten import Flattened

__all__ = [
    "BYTE",
    "CHAR",
    "DOUBLE",
    "Datatype",
    "FLOAT",
    "INT",
    "LONG",
    "Primitive",
    "SHORT",
]


class Datatype:
    """Base class for all MPI datatypes."""

    #: subclasses set these in __init__
    size: int
    lb: int
    ub: int

    def __init__(self):
        self._flat_cache: dict[int, Flattened] = {}

    @property
    def extent(self) -> int:
        return self.ub - self.lb

    @property
    def true_lb(self) -> int:
        """Lowest byte actually containing data (MPI_Type_get_true_extent);
        differs from ``lb`` for resized types."""
        flat = self.flatten(1)
        return int(flat.offsets[0]) if flat.nblocks else 0

    @property
    def true_ub(self) -> int:
        flat = self.flatten(1)
        return int(flat.offsets[-1] + flat.lengths[-1]) if flat.nblocks else 0

    @property
    def true_extent(self) -> int:
        """Span of real data, gaps included but resizing padding excluded."""
        return self.true_ub - self.true_lb

    @property
    def is_contiguous(self) -> bool:
        """True when one element is a single block covering the extent."""
        flat = self.flatten(1)
        return flat.nblocks <= 1 and flat.size == self.extent

    # -- flattening -----------------------------------------------------

    def _flatten_one(self) -> Flattened:
        """Block list of one element; ``flatten`` repeats and caches it."""
        raise NotImplementedError

    def flatten(self, count: int = 1) -> Flattened:
        """Merged block list of ``count`` consecutive elements.

        Cached twice: per instance (``_flat_cache``) and process-wide by
        ``(signature, count)`` — benchmark sweeps rebuild structurally
        identical datatypes for every measurement, and flattening is pure
        in the signature, so distinct instances share layouts.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        flat = self._flat_cache.get(count)
        if flat is None:
            flat = self._flat_cache[count] = flatten_mod.memoized_layout(
                (self.signature(), count), self._flatten_count, count
            )
        return flat

    def _flatten_count(self, count: int) -> Flattened:
        if count == 1:
            return self._flatten_one()
        return self.flatten(1).repeat(count, self.extent)

    # -- typemap ----------------------------------------------------------

    def typemap(self):
        """The MPI typemap of one element: ``[(primitive_name, byte_offset),
        ...]`` in offset order.

        This is the *type signature* MPI matching is defined over — two
        datatypes match iff their typemaps list the same primitives in
        the same order (offsets aside).  Derived types recurse.
        """
        out = list(self._typemap_one())
        out.sort(key=lambda e: e[1])
        return out

    def _typemap_one(self):
        """Yield (primitive_name, offset) pairs; overridden by subclasses."""
        raise NotImplementedError

    def type_signature(self) -> tuple:
        """The ordered primitive sequence (offsets stripped) — what must
        agree between a matched send and receive."""
        return tuple(name for name, _off in self.typemap())

    # -- identity ----------------------------------------------------------

    def signature(self) -> tuple:
        """Hashable structural identity (for the datatype cache)."""
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Datatype):
            return NotImplemented
        return self.signature() == other.signature()

    def __hash__(self) -> int:
        return hash(self.signature())

    def describe(self) -> str:
        """One-line human-readable description."""
        flat = self.flatten(1)
        return (
            f"{type(self).__name__}(size={self.size}, extent={self.extent}, "
            f"blocks={flat.nblocks})"
        )


class Primitive(Datatype):
    """A basic MPI type: MPI_INT, MPI_DOUBLE, ..."""

    def __init__(self, name: str, nbytes: int):
        super().__init__()
        if nbytes <= 0:
            raise ValueError("primitive size must be positive")
        self.name = name
        self.size = nbytes
        self.lb = 0
        self.ub = nbytes

    def _flatten_one(self) -> Flattened:
        return Flattened.from_blocks([(0, self.size)])

    def _typemap_one(self):
        yield (self.name, 0)

    def signature(self) -> tuple:
        return ("primitive", self.name, self.size)

    def __repr__(self) -> str:
        return f"MPI_{self.name}"


#: the MPI basic types used by the paper's benchmarks
CHAR = Primitive("CHAR", 1)
BYTE = Primitive("BYTE", 1)
SHORT = Primitive("SHORT", 2)
INT = Primitive("INT", 4)
LONG = Primitive("LONG", 8)
FLOAT = Primitive("FLOAT", 4)
DOUBLE = Primitive("DOUBLE", 8)
