"""SKaMPI-style synthetic datatype patterns (Reussner et al. [25]).

The paper notes "SKaMPI provides benchmark[s] for MPI derived datatypes.
The test datatypes are synthetic and most parameters are defined by
users."  This module provides that style of pattern generator — a fixed
total payload laid out in structurally different ways — so the schemes
can be compared across datatype *shapes* rather than just sizes:

* ``contig``          one block (the baseline shape),
* ``vector-small``    many tiny blocks,
* ``vector-large``    few big blocks,
* ``nested``          a vector of vectors (tests recursive flattening),
* ``struct-mixed``    alternating int/double runs with gaps,
* ``indexed-random``  irregular blocks from a seeded RNG,
* ``sparse-resized``  a resized type tiling data thinly over a big extent.
"""

from __future__ import annotations

from repro.datatypes import (
    DOUBLE,
    INT,
    Datatype,
    contiguous,
    hindexed,
    resized,
    struct,
    vector,
)

__all__ = ["PATTERNS", "make_pattern"]

#: total payload of every pattern, in bytes
TOTAL_BYTES = 256 * 1024


def make_pattern(name: str, total_bytes: int = TOTAL_BYTES) -> Datatype:
    """Build the named pattern carrying ``total_bytes`` of data."""
    ints = total_bytes // 4
    if name == "contig":
        return contiguous(ints, INT)
    if name == "vector-small":
        # 32-byte blocks, half-dense
        return vector(ints // 8, 8, 16, INT)
    if name == "vector-large":
        # 16 KB blocks, half-dense
        return vector(total_bytes // 16384, 4096, 8192, INT)
    if name == "nested":
        # rows of 64 ints picked every other 64-int run, grouped in
        # super-rows: a vector whose base is itself a vector
        inner = vector(4, 64, 128, INT)  # 1 KB data over 2 KB span
        return vector(total_bytes // 1024, 1, 2, inner)
    if name == "struct-mixed":
        # 512 B of ints at 0 and 1.5 KB of doubles at 768 (a 256 B gap
        # between them), repeated with 256 B of padding after each pair
        one = struct([128, 192], [0, 768], [INT, DOUBLE])
        assert one.size == 128 * 4 + 192 * 8
        reps = total_bytes // one.size
        return contiguous(reps, resized(one, 0, one.extent + 256))
    if name == "indexed-random":
        import numpy as np

        rng = np.random.default_rng(20040101)
        lengths, disps, pos, left = [], [], 0, ints
        while left > 0:
            ln = int(rng.integers(1, min(512, left) + 1))
            pos += int(rng.integers(0, 256))
            lengths.append(ln)
            disps.append(pos)
            pos += ln * 4
            left -= ln
        return hindexed(lengths, disps, INT)
    if name == "sparse-resized":
        # 256-byte runs spread out 4 KB apart
        one = resized(contiguous(64, INT), 0, 4096)
        return contiguous(total_bytes // 256, one)
    raise ValueError(f"unknown pattern {name!r}")


PATTERNS = (
    "contig",
    "vector-small",
    "vector-large",
    "nested",
    "struct-mixed",
    "indexed-random",
    "sparse-resized",
)
