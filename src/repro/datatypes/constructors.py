"""MPI datatype constructors.

Mirrors the MPI-1/MPI-2 constructor set: ``contiguous``, ``vector``,
``hvector``, ``indexed``, ``hindexed``, ``indexed_block``, ``struct``,
``subarray`` and ``resized``.  Element-displacement constructors measure in
multiples of the base type's *extent* (MPI semantics); the ``h`` variants
measure in bytes.

All constructors are plain functions returning :class:`Derived` instances;
composition nests arbitrarily (a struct of vectors of indexed of ...).
"""

from __future__ import annotations

from typing import Iterable, Sequence

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


class Derived(Datatype):
    """A derived datatype built from (byte displacement, base, blocklength)
    triples — the normal form every constructor lowers to."""

    def __init__(
        self,
        kind: str,
        parts: Iterable[tuple[int, Datatype, int]],
        lb: int | None = None,
        ub: int | None = None,
    ):
        """``parts`` is a list of (byte_displacement, base_type, count):
        ``count`` consecutive copies of ``base_type`` starting at
        ``byte_displacement``."""
        super().__init__()
        self.kind = kind
        self.parts, self.size = [], 0
        lows, highs, seen = [], [], None
        for disp, base, count in parts:
            disp, count = int(disp), int(count)
            if count < 0:
                raise ValueError("blocklength must be non-negative")
            if base is not seen:  # checked and read once per run of parts
                if not isinstance(base, Datatype):
                    raise TypeError(f"base must be a Datatype, got {type(base)!r}")
                seen, base_lb, extent = base, base.lb, base.extent
            self.parts.append((disp, base, count))
            if count:
                self.size += base.size * count
                lows.append(disp + base_lb)
                highs.append(disp + base_lb + count * extent)
        self.lb = min(lows, default=0) if lb is None else int(lb)
        self.ub = max(highs, default=0) if ub is None else int(ub)

    def _flatten_one(self) -> Flattened:
        blocks: list[tuple[int, int]] = []
        for disp, base, count in self.parts:
            flat = base.flatten(count)
            for off, length in flat.blocks():
                blocks.append((disp + off, length))
        return Flattened.from_blocks(blocks)

    def _typemap_one(self):
        for disp, base, count in self.parts:
            for rep in range(count):
                shift = disp + rep * base.extent
                for name, off in base.typemap():
                    yield (name, shift + off)

    def signature(self) -> tuple:
        return (
            self.kind,
            tuple((d, t.signature(), c) for d, t, c in self.parts),
            self.lb,
            self.ub,
        )

    def __repr__(self) -> str:
        return f"<{self.kind} size={self.size} extent={self.extent}>"


def contiguous(count: int, base: Datatype) -> Derived:
    """``count`` consecutive elements of ``base`` (MPI_Type_contiguous)."""
    if count < 0:
        raise ValueError("count must be non-negative")
    return Derived("contiguous", [(0, base, count)])


def vector(count: int, blocklength: int, stride: int, base: Datatype) -> Derived:
    """MPI_Type_vector: ``count`` blocks of ``blocklength`` elements,
    block starts ``stride`` *elements* apart."""
    return hvector(count, blocklength, stride * base.extent, base)


def hvector(count: int, blocklength: int, stride_bytes: int, base: Datatype) -> Derived:
    """MPI_Type_hvector: like vector with the stride in bytes."""
    if count < 0 or blocklength < 0:
        raise ValueError("count and blocklength must be non-negative")
    parts = ((i * stride_bytes, base, blocklength) for i in range(count))
    return Derived("hvector", parts)


def indexed(
    blocklengths: Sequence[int], displacements: Sequence[int], base: Datatype
) -> Derived:
    """MPI_Type_indexed: displacements in multiples of the base extent."""
    return hindexed(
        blocklengths, [d * base.extent for d in displacements], base
    )


def hindexed(
    blocklengths: Sequence[int], displacements_bytes: Sequence[int], base: Datatype
) -> Derived:
    """MPI_Type_hindexed: displacements in bytes."""
    if len(blocklengths) != len(displacements_bytes):
        raise ValueError("blocklengths and displacements length mismatch")
    parts = ((d, base, b) for d, b in zip(displacements_bytes, blocklengths))
    return Derived("hindexed", parts)


def indexed_block(
    blocklength: int, displacements: Sequence[int], base: Datatype
) -> Derived:
    """MPI_Type_create_indexed_block: equal-size blocks."""
    return indexed([blocklength] * len(displacements), displacements, base)


def struct(
    blocklengths: Sequence[int],
    displacements_bytes: Sequence[int],
    types: Sequence[Datatype],
) -> Derived:
    """MPI_Type_struct: heterogeneous blocks at byte displacements."""
    if not (len(blocklengths) == len(displacements_bytes) == len(types)):
        raise ValueError("struct argument length mismatch")
    parts = list(zip(displacements_bytes, types, blocklengths))
    return Derived("struct", parts)


def resized(base: Datatype, lb: int, extent: int) -> Derived:
    """MPI_Type_create_resized: override lb and extent."""
    return Derived("resized", [(0, base, 1)], lb=lb, ub=lb + extent)


def subarray(
    sizes: Sequence[int],
    subsizes: Sequence[int],
    starts: Sequence[int],
    base: Datatype,
    order: str = "C",
) -> Derived:
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
    dims = list(range(ndims))
    if order == "F":
        dims.reverse()
        sizes = list(reversed(sizes))
        subsizes = list(reversed(subsizes))
        starts = list(reversed(starts))
    # Build innermost-out: a row of subsizes[-1] elements, then hvectors.
    elem = base.extent
    inner: Datatype = contiguous(subsizes[-1], base)
    row_bytes = elem
    for d in range(ndims - 1, 0, -1):
        row_bytes *= sizes[d]
        inner = hvector(subsizes[d - 1], 1, row_bytes, inner)
    # offset of the slab origin
    offset = 0
    scale = elem
    for d in range(ndims - 1, -1, -1):
        offset += starts[d] * scale
        scale *= sizes[d]
    total_extent = elem
    for s in sizes:
        total_extent *= s
    slab = Derived("subarray", [(offset, inner, 1)], lb=0, ub=total_extent)
    return slab
