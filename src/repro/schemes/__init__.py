"""The paper's datatype communication schemes.

* :mod:`~repro.schemes.generic` — the MPICH-derived baseline (Figure 1).
* :mod:`~repro.schemes.bcspup` — Buffer-Centric Segment Pack/Unpack
  (Section 4.2): pre-registered segment pools + pack/wire/unpack pipeline.
* :mod:`~repro.schemes.rwgup` — RDMA Write Gather with Unpack
  (Section 5.1): no sender-side copy; gather descriptors into receiver
  segment buffers; segment unpack.
* :mod:`~repro.schemes.prrs` — Pack with RDMA Read Scatter (Section 5.2;
  designed but not implemented in the paper — implemented here).
* :mod:`~repro.schemes.multiw` — Multiple RDMA Writes (Section 5.3):
  zero-copy; receiver ships its layout through the datatype cache;
  single- or list-descriptor post.
* :mod:`~repro.schemes.selector` — dynamic scheme choice (Section 6).

Every scheme moves *real bytes*; tests assert all schemes deliver
byte-identical results and differ only in simulated time.
"""

from repro.schemes.base import DatatypeScheme, send_rndv_start
from repro.schemes.buffers import PoolBuffer, SegmentPool
from repro.schemes.generic import GenericScheme
from repro.schemes.bcspup import BCSPUPScheme
from repro.schemes.rwgup import RWGUPScheme
from repro.schemes.prrs import PRRSScheme
from repro.schemes.multiw import MultiWScheme
from repro.schemes.hybrid import HybridScheme
from repro.schemes.selector import AdaptiveScheme

#: user-facing scheme names accepted by Cluster(scheme=...)
SCHEME_NAMES = (
    "generic", "bc-spup", "rwg-up", "p-rrs", "multi-w", "hybrid", "adaptive"
)

#: the four schemes the paper implements and every figure lines up
PAPER_SCHEMES = ("generic", "bc-spup", "rwg-up", "multi-w")

_FACTORIES = {
    "generic": GenericScheme,
    "bc-spup": BCSPUPScheme,
    "rwg-up": RWGUPScheme,
    "p-rrs": PRRSScheme,
    "multi-w": MultiWScheme,
    "hybrid": HybridScheme,
    "adaptive": AdaptiveScheme,
}


def make_scheme(name: str, ctx):
    """Instantiate a scheme for one rank, applying the cluster's
    scheme_options."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(f"unknown scheme {name!r}") from None
    return factory(ctx, **_options_for(name, ctx.cluster.scheme_options))


def _options_for(name: str, options: dict) -> dict:
    """Filter cluster-wide scheme options to those the scheme accepts."""
    accepted = _FACTORIES[name].OPTIONS
    return {k: v for k, v in options.items() if k in accepted}


__all__ = [
    "AdaptiveScheme",
    "BCSPUPScheme",
    "DatatypeScheme",
    "GenericScheme",
    "HybridScheme",
    "MultiWScheme",
    "PAPER_SCHEMES",
    "PRRSScheme",
    "PoolBuffer",
    "RWGUPScheme",
    "SCHEME_NAMES",
    "SegmentPool",
    "make_scheme",
    "send_rndv_start",
]
