"""MPI datatype constructors.

Mirrors the MPI-1/MPI-2 constructor set: ``contiguous``, ``vector``,
``hvector``, ``indexed``, ``hindexed``, ``indexed_block``, ``struct``,
``subarray`` and ``resized``.  Element-displacement constructors measure in
multiples of the base type's *extent* (MPI semantics); the ``h`` variants
measure in bytes.

Every constructor lowers to one normal form, :class:`Derived`: arrays of
displacements and blocklengths per base, built with ``np.arange`` or taken
as given, never block by block in Python.  Composition nests arbitrarily.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable, Sequence, Union

import numpy as np

from repro.datatypes.base import Datatype
from repro.datatypes.flatten import Flattened

__all__ = [
    "contiguous",
    "hindexed",
    "hvector",
    "indexed",
    "indexed_block",
    "resized",
    "struct",
    "subarray",
    "vector",
]

#: integers as a sequence or an array
Ints = Union[Sequence[int], np.ndarray]


class Derived(Datatype):
    """A derived datatype in normal form: ``runs`` of ``(base,
    displacements, blocklengths)``, two read-only ``int64`` arrays per run;
    part ``i`` is ``blocklengths[i]`` consecutive copies of ``base`` from
    byte ``displacements[i]``.  Adjacent parts over equal bases share one
    run and empty runs are dropped, so the form (and :meth:`signature`)
    depends on structure only, never on which base objects are shared."""

    runs: list[tuple[Datatype, np.ndarray, np.ndarray]]

    def __init__(self, kind: str, parts: Iterable[tuple[int, Datatype, int]],
                 lb: int | None = None, ub: int | None = None):
        """The generic door (``struct``, the IR's ``derived`` node):
        ``parts`` lists (byte_displacement, base_type, count)."""
        runs: list = []
        for disp, base, count in parts:
            if runs and (base is runs[-1][0] or base == runs[-1][0]):
                runs[-1][1].append(disp)
                runs[-1][2].append(count)
            else:
                runs.append((base, [disp], [count]))
        self._set(kind, runs, lb, ub)

    @classmethod
    def of(cls, kind: str, base: Datatype, displacements: Ints, blocklengths: Ints,
           lb: int | None = None, ub: int | None = None) -> "Derived":
        """The array door: one run of parts over ``base``."""
        self = cls.__new__(cls)
        self._set(kind, [(base, displacements, blocklengths)], lb, ub)
        return self

    def _set(self, kind: str, runs: list, lb: int | None, ub: int | None) -> None:
        super().__init__()
        self.kind, self.runs, self.size = kind, [], 0
        lows, highs = [], []
        for base, disps, counts in runs:
            disps = np.array(disps, dtype=np.int64)  # a private, frozen copy
            counts = np.array(counts, dtype=np.int64)
            if disps.ndim != 1 or counts.ndim != 1:
                raise TypeError("displacements and blocklengths must be flat")
            if (counts < 0).any():
                raise ValueError("blocklength must be non-negative")
            if not len(counts):
                continue
            if not isinstance(base, Datatype):
                raise TypeError(f"base must be a Datatype, got {type(base)!r}")
            disps.setflags(write=False)
            counts.setflags(write=False)
            self.runs.append((base, disps, counts))
            self.size += base.size * int(counts.sum())
            live = counts > 0
            if live.any():
                low = disps[live] + base.lb
                lows.append(int(low.min()))
                highs.append(int((low + counts[live] * base.extent).max()))
        self.lb = min(lows, default=0) if lb is None else int(lb)
        self.ub = max(highs, default=0) if ub is None else int(ub)
        self._signature = (kind, tuple(
            (b.signature(), d.tobytes(), c.tobytes()) for b, d, c in self.runs
        ), self.lb, self.ub)

    @property
    def parts(self) -> list[tuple[int, Datatype, int]]:
        """(byte displacement, base, count) of every part, in order; built
        on demand (the IR encoder and the typemap read it)."""
        return [
            (disp, base, count)
            for base, disps, counts in self.runs
            for disp, count in zip(disps.tolist(), counts.tolist())
        ]

    def _flatten_one(self) -> Flattened:
        """Per run: over a dense base (one block filling its extent) a part
        is one block; otherwise ``base.flatten(c)`` for each distinct
        blocklength ``c`` is broadcast over the displacements that have
        it.  One merge at the end."""
        offsets, lengths = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
        for base, disps, counts in self.runs:
            if base.is_contiguous:
                offsets.append(disps + base.true_lb)
                lengths.append(counts * base.size)
                continue
            for count in np.unique(counts).tolist():
                flat = base.flatten(count)
                at = disps[counts == count, None] + flat.offsets
                offsets.append(at.ravel())
                lengths.append(np.broadcast_to(flat.lengths, at.shape).ravel())
        return Flattened.from_blocks(
            np.stack((np.concatenate(offsets), np.concatenate(lengths)), axis=-1)
        )

    def _typemap_one(self):
        for disp, base, count in self.parts:
            for rep in range(count):
                shift = disp + rep * base.extent
                for name, off in base.typemap():
                    yield (name, shift + off)

    def signature(self) -> tuple:
        """Computed once, at construction, from the runs' array bytes."""
        return self._signature

    def __repr__(self) -> str:
        return f"<{self.kind} size={self.size} extent={self.extent}>"


def contiguous(count: int, base: Datatype) -> Derived:
    """``count`` consecutive elements of ``base`` (MPI_Type_contiguous)."""
    if count < 0:
        raise ValueError("count must be non-negative")
    return Derived.of("contiguous", base, [0], [count])


def vector(count: int, blocklength: int, stride: int, base: Datatype) -> Derived:
    """MPI_Type_vector: ``count`` blocks of ``blocklength`` elements,
    block starts ``stride`` *elements* apart."""
    return hvector(count, blocklength, stride * base.extent, base)


def hvector(count: int, blocklength: int, stride_bytes: int, base: Datatype) -> Derived:
    """MPI_Type_hvector: like vector with the stride in bytes."""
    if count < 0 or blocklength < 0:
        raise ValueError("count and blocklength must be non-negative")
    displacements = np.arange(operator.index(count), dtype=np.int64) * stride_bytes
    return Derived.of(
        "hvector", base, displacements, np.full(count, blocklength, dtype=np.int64)
    )


def indexed(blocklengths: Ints, displacements: Ints, base: Datatype) -> Derived:
    """MPI_Type_indexed: displacements in multiples of the base extent."""
    return hindexed(blocklengths, np.asarray(displacements) * base.extent, base)


def hindexed(blocklengths: Ints, displacements_bytes: Ints, base: Datatype) -> Derived:
    """MPI_Type_hindexed: displacements in bytes."""
    if len(blocklengths) != len(displacements_bytes):
        raise ValueError("blocklengths and displacements length mismatch")
    return Derived.of("hindexed", base, displacements_bytes, blocklengths)


def indexed_block(blocklength: int, displacements: Ints, base: Datatype) -> Derived:
    """MPI_Type_create_indexed_block: equal-size blocks."""
    return indexed(np.full(len(displacements), blocklength), displacements, base)


def struct(blocklengths: Ints, displacements_bytes: Ints,
           types: Sequence[Datatype]) -> Derived:
    """MPI_Type_struct: heterogeneous blocks at byte displacements."""
    if not (len(blocklengths) == len(displacements_bytes) == len(types)):
        raise ValueError("struct argument length mismatch")
    return Derived("struct", zip(displacements_bytes, types, blocklengths))


def resized(base: Datatype, lb: int, extent: int) -> Derived:
    """MPI_Type_create_resized: override lb and extent."""
    return Derived.of("resized", base, [0], [1], lb=lb, ub=lb + extent)


def subarray(sizes: Sequence[int], subsizes: Sequence[int], starts: Sequence[int],
             base: Datatype, order: str = "C") -> Derived:
    """MPI_Type_create_subarray: an n-dimensional slab of an n-dimensional
    array, C or Fortran order.

    The resulting type's extent equals the full array so consecutive
    counts tile correctly.
    """
    ndims = len(sizes)
    if not (len(subsizes) == len(starts) == ndims):
        raise ValueError("subarray argument length mismatch")
    if ndims == 0:
        raise ValueError("subarray needs at least one dimension")
    for d in range(ndims):
        if subsizes[d] < 0 or starts[d] < 0 or starts[d] + subsizes[d] > sizes[d]:
            raise ValueError(f"subarray slab exceeds array bounds in dim {d}")
    if order not in ("C", "F"):
        raise ValueError("order must be 'C' or 'F'")
    if order == "F":
        sizes, subsizes, starts = sizes[::-1], subsizes[::-1], starts[::-1]
    # byte stride of each dimension, the last one contiguous
    strides = [base.extent * math.prod(sizes[d + 1:]) for d in range(ndims)]
    inner: Datatype = contiguous(subsizes[-1], base)  # built innermost-out
    for d in range(ndims - 2, -1, -1):
        inner = hvector(subsizes[d], 1, strides[d], inner)
    offset = sum(map(operator.mul, starts, strides))
    return Derived.of(
        "subarray", inner, [offset], [1], lb=0, ub=strides[0] * sizes[0]
    )
