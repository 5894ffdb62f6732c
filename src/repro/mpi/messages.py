"""Protocol message headers.

These dataclasses ride the simulated wire as descriptor payloads; their
``WIRE_BYTES`` estimates size the control traffic (charged as
``extra_bytes`` on the SEND descriptors that carry them).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = [
    "CTRL_HEADER_BYTES",
    "Credit",
    "EagerHeader",
    "RndvReply",
    "RndvStart",
    "SegArrival",
]

#: nominal wire size of a bare protocol header
CTRL_HEADER_BYTES = 64


@dataclass(frozen=True)
class EagerHeader:
    """Header of an eager-protocol data message."""

    src: int
    tag: int
    nbytes: int
    seq: int


@dataclass(frozen=True)
class RndvStart:
    """Rendezvous start: sender announces a (matched or future) message.

    ``scheme`` names the sender's chosen datatype scheme so the receiver
    runs the matching receiver side.  ``meta`` carries scheme-specific
    extras (e.g. the P-RRS pack-buffer advertisement).
    """

    src: int
    tag: int
    msg_id: int
    nbytes: int
    scheme: str
    seq: int
    meta: Any = None


@dataclass(frozen=True)
class RndvReply:
    """Rendezvous reply: receiver's buffer advertisement.

    ``segments`` is a list of (addr, rkey, capacity) unpack buffers for
    the staging schemes; ``layout`` the receiver's flattened datatype (or
    a datatype-cache reference) for Multi-W; ``meta`` scheme extras.
    """

    msg_id: int
    segments: tuple = ()
    layout: Any = None
    meta: Any = None


@dataclass(frozen=True)
class SegArrival:
    """Rides RDMA_WRITE_IMM: segment ``index`` carrying packed bytes
    [lo, hi) of message ``msg_id`` has landed."""

    msg_id: int
    index: int
    lo: int
    hi: int
    last: bool


@dataclass(frozen=True)
class SegReady:
    """P-RRS: sender -> receiver, a packed segment is ready to be RDMA
    read from (addr, rkey) on the sender."""

    msg_id: int
    index: int
    lo: int
    hi: int
    addr: int
    rkey: int
    last: bool


@dataclass(frozen=True)
class SegAck:
    """P-RRS: receiver -> sender, segment ``index`` has been read; its
    pack buffer may be recycled."""

    msg_id: int
    index: int
    last: bool


@dataclass(frozen=True)
class Credit:
    """Receiver -> sender eager-slot flow-control credit."""

    count: int


@dataclass(frozen=True)
class RingCredit:
    """Receiver -> sender: these RDMA-eager ring slots are free again
    (the polled eager channel's flow control, [19])."""

    slots: tuple
