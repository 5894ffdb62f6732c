"""Simulated InfiniBand verbs substrate.

This subpackage stands in for the Mellanox InfiniHost HCA + VAPI verbs stack
the paper runs on.  It provides:

* :mod:`repro.ib.costmodel` — every timing parameter of the simulated
  machine (wire, HCA, CPU copy, registration, allocation), with a preset
  calibrated to the paper's 2003 testbed.
* :mod:`repro.ib.memory` — per-node flat byte address spaces backed by
  numpy, an allocator, and memory regions with protection keys.
* :mod:`repro.ib.verbs` — work requests, scatter/gather entries, queue
  pairs and completion queues (channel + memory semantics, RDMA write
  gather / read scatter, immediate data, list descriptor post).
* :mod:`repro.ib.hca` — the HCA model: a send engine that serializes wire
  injection, receive handling, RDMA read responder, CQE generation.
* :mod:`repro.ib.fabric` — the switch connecting HCAs.

Data movement is real — bytes move between the numpy address spaces — so
every transfer is checkable for integrity, while the discrete-event engine
accounts for time.
"""

from repro.ib.costmodel import CostModel
from repro.ib.fabric import Fabric
from repro.ib.hca import HCA, Node
from repro.ib.memory import MemoryRegion, NodeMemory, ProtectionError
from repro.ib.verbs import (
    MAX_SGE,
    Completion,
    CompletionQueue,
    Opcode,
    QueuePair,
    RecvWR,
    SendWR,
    SGE,
    SGEList,
)

__all__ = [
    "CostModel",
    "Completion",
    "CompletionQueue",
    "Fabric",
    "HCA",
    "MAX_SGE",
    "MemoryRegion",
    "Node",
    "NodeMemory",
    "Opcode",
    "ProtectionError",
    "QueuePair",
    "RecvWR",
    "SGE",
    "SGEList",
    "SendWR",
]
