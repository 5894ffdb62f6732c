"""The layer ladder: one small timed step per layer, workload-independent.

Every step calls public functions of one layer from outside and returns
``{metric: value}`` for one sample; :func:`run` keeps the floor (minimum)
of each metric over the step's repeats.  ``ns``/``us``/``ms`` are host
time; ``events_per_*`` are exact counts.
"""

from __future__ import annotations

import gc
from pathlib import Path
from time import perf_counter_ns
from types import SimpleNamespace

import numpy as np

from cells import SCHEMES, column_vector, fig10_struct, fine_hindexed, fine_vector
from repro.datatypes import BYTE, INT, SegmentCursor, contiguous, hvector, vector
from repro.datatypes.flatten import layout_cache_clear
from repro.datatypes.pack import pack_bytes, unpack_bytes
from repro.ib.costmodel import CostModel
from repro.ib.fabric import Fabric
from repro.ib.memory import NodeMemory
from repro.ib.verbs import SGE, Opcode, SendWR
from repro.mpi.matching import MatchEngine
from repro.mpi.world import Cluster
from repro.registration.cache import RegistrationCache
from repro.registration.ogr import plan_regions
from repro.simulator import Resource, Simulator, Store
from repro.workloads import parse, validate

MB = 1 << 20
REPEATS = 7


def _ns(fn) -> int:
    start = perf_counter_ns()
    fn()
    return perf_counter_ns() - start


# -- simulator ---------------------------------------------------------

def heap():
    n = 20_000
    delays = np.random.default_rng(1).random(n).tolist()
    sim = Simulator()

    def push_pop():
        for delay in delays:
            sim.timeout(delay)
        sim.run()

    return {"simulator.heap_ns_per_event": _ns(push_pop) / n}


def process_resume():
    procs, yields = 200, 100
    sim = Simulator()

    def proc():
        for _ in range(yields):
            yield sim.timeout(1.0)

    for _ in range(procs):
        sim.process(proc())
    return {"simulator.process_resume_ns": _ns(sim.run) / (procs * yields)}


def resource():
    procs, grants = 50, 100
    sim = Simulator()
    cpu = Resource(sim, capacity=1, name="cpu")

    def proc():
        for _ in range(grants):
            grant = yield cpu.acquire()
            yield sim.timeout(1.0)
            cpu.release(grant)

    for _ in range(procs):
        sim.process(proc())
    return {"simulator.resource_ns_per_grant": _ns(sim.run) / (procs * grants)}


def store():
    n = 10_000
    sim = Simulator()
    box = Store(sim, name="box")
    for item in range(n):
        box.put(item)

    def drain():
        for _ in range(n):
            yield box.get()

    sim.process(drain())
    return {"simulator.store_ns_per_item": _ns(sim.run) / n}


# -- ib.memory ---------------------------------------------------------

def memory_copies():
    out = {}
    memory = NodeMemory(0, 96 * MB)
    dest = 64 * MB
    for size, count in ((32, 4096), (256, 4096), (4096, 2048)):
        blocks = [(i * 2 * size, size) for i in range(count)]
        out[f"ib.memory.gather_ns_per_block.{size}"] = (
            _ns(lambda: memory.gather_blocks(0, blocks, dest)) / count
        )
        out[f"ib.memory.scatter_ns_per_block.{size}"] = (
            _ns(lambda: memory.scatter_blocks(0, blocks, dest)) / count
        )
    slots = np.random.default_rng(2).choice(MB, 4096, replace=False)
    blocks = [(slot * 64, 32) for slot in slots.tolist()]
    out["ib.memory.gather_irregular_ns_per_block"] = (
        _ns(lambda: memory.gather_blocks(0, blocks, dest)) / len(blocks)
    )
    return out


# -- datatypes ---------------------------------------------------------

def _nested():
    return vector(16, 1, 4, hvector(64, 2, 64, INT))


_FLATTEN = {
    "vector128": column_vector(32).make,
    "vector4096": fine_vector().make,
    "struct18": fig10_struct(1 << 17).make,
    "nested": _nested,
}


def flatten():
    out = {}
    for name, make in _FLATTEN.items():
        # a reused object answers from its own memo and the process-wide
        # layout cache would answer for a fresh one: defeat both
        dt = make()
        layout_cache_clear()
        out[f"datatypes.flatten.cold_us.{name}"] = _ns(dt.flatten) / 1e3
    calls = 1000

    def memo_hits():
        for _ in range(calls):
            dt.flatten()

    out["datatypes.flatten.memo_hit_ns"] = _ns(memo_hits) / calls
    return out


def segment():
    dt = fine_vector().make()
    dt.flatten()
    cursors = []
    build_ns = _ns(lambda: cursors.append(SegmentCursor(dt, 1)))
    (cursor,) = cursors
    return {
        "datatypes.segment.cursor_build_us": build_ns / 1e3,
        "datatypes.segment.slices_ns_per_block": (
            _ns(lambda: cursor.slices(0, cursor.total)) / cursor.flat.nblocks
        ),
    }


def pack():
    out = {}
    memory = NodeMemory(0, 96 * MB)
    dest = 80 * MB
    for name, layout in (
        ("vector4B", fine_vector()),
        ("vector2KB", column_vector(512)),
        ("hindexed4B", fine_hindexed()),
    ):
        cursor = SegmentCursor(layout.make(), 1)
        for verb, move in (("pack", pack_bytes), ("unpack", unpack_bytes)):
            out[f"datatypes.pack.{verb}_ns_per_block.{name}"] = (
                _ns(lambda: move(memory, 0, cursor, 0, cursor.total, dest))
                / layout.nblocks
            )
    return out


# -- registration ------------------------------------------------------

def registration():
    out = {}
    cm = CostModel.mellanox_2003()
    for layout in (column_vector(32), fine_vector()):
        flat = layout.make().flatten()
        blocks = list(flat.blocks())
        out[f"registration.ogr_plan_us.{layout.nblocks}"] = (
            _ns(lambda: plan_regions(blocks, cm)) / 1e3
        )
    sim = Simulator()
    node = Fabric(sim, cm).add_node(MB)
    cache = RegistrationCache(node, MB)
    addr = node.memory.alloc(4096)
    sim.process(cache.acquire(addr, 4096))
    sim.run()
    calls = 1000

    def hits():
        for _ in range(calls):
            # a hit returns without yielding: the generator ends at once
            for _event in cache.acquire(addr, 4096):
                raise AssertionError("registration cache missed")

    out["registration.cache_hit_ns"] = _ns(hits) / calls
    return out


# -- ib.verbs ----------------------------------------------------------

def verbs():
    """RDMA writes between two connected nodes, post to completion."""
    out = {}
    posts = 50
    for name, sges_per_wr, wrs_per_post in (
        ("sge1", 1, 1), ("sge64", 64, 1), ("list32", 1, 32)
    ):
        sim = Simulator()
        fabric = Fabric(sim, CostModel.mellanox_2003())
        n0, n1 = fabric.connect_all(memory_capacity=4 * MB, n=2)
        nbytes = 64 * sges_per_wr
        src, dst = n0.memory.alloc(nbytes), n1.memory.alloc(nbytes)
        lkey = n0.memory.register(src, nbytes).lkey
        rkey = n1.memory.register(dst, nbytes).rkey
        qp = n0.hca.qps[1]
        sges = [SGE(src + 64 * i, 64, lkey) for i in range(sges_per_wr)]
        wrs = [
            SendWR(Opcode.RDMA_WRITE, sges=sges, remote_addr=dst, rkey=rkey,
                   signaled=(k == wrs_per_post - 1))
            for k in range(wrs_per_post)
        ]

        def poster():
            for _ in range(posts):
                if wrs_per_post == 1:
                    yield from qp.post_send(wrs[0])
                else:
                    yield from qp.post_send_list(wrs)
                yield qp.send_cq.wait()

        sim.process(poster())
        ns = _ns(sim.run)
        out[f"ib.verbs.post_to_cqe_us.{name}"] = ns / 1e3 / (posts * wrs_per_post)
        out[f"ib.verbs.events_per_wr.{name}"] = (
            sim.events_processed / (posts * wrs_per_post)
        )
    return out


# -- mpi ---------------------------------------------------------------

def cluster_build(nranks: int):
    def step():
        gc.collect()
        build_ns = _ns(lambda: Cluster(nranks))
        return {f"mpi.world.cluster_build_ms.{nranks}": build_ns / 1e6}

    return step


def matching():
    out = {}
    rounds = 2000
    for depth in (1, 100):
        engine = MatchEngine()
        for tag in range(depth):
            engine.post_recv(SimpleNamespace(source=0, tag=tag))
        # matches the receive at the back of the posted queue every time
        envelope = SimpleNamespace(src=0, tag=depth - 1)

        def match():
            for _ in range(rounds):
                engine.post_recv(engine.arrive(envelope))

        out[f"mpi.matching.ns_per_match.depth{depth}"] = _ns(match) / rounds
    return out


def _pingpong(scheme: str, dt, trips: int) -> tuple[float, float]:
    """(host us, events) per message of a ping-pong, run span only."""
    nbytes = dt.extent + 64

    def rank0(mpi):
        buf = mpi.alloc(nbytes)
        for _ in range(trips):
            yield from mpi.send(buf, dt, 1, dest=1, tag=0)
            yield from mpi.recv(buf, dt, 1, source=1, tag=1)

    def rank1(mpi):
        buf = mpi.alloc(nbytes)
        for _ in range(trips):
            yield from mpi.recv(buf, dt, 1, source=0, tag=0)
            yield from mpi.send(buf, dt, 1, dest=0, tag=1)

    cluster = Cluster(2, scheme=scheme)
    ns = _ns(lambda: cluster.run([rank0, rank1]))
    messages = 2 * trips
    return ns / 1e3 / messages, cluster.sim.events_processed / messages


def protocols():
    out = {}
    for name, nbytes in (("eager", 512), ("rendezvous", 64 * 1024)):
        host_us, events = _pingpong("bc-spup", contiguous(nbytes, BYTE), 10)
        out[f"mpi.{name}.host_us_per_msg"] = host_us
        out[f"mpi.{name}.events_per_msg"] = events
    return out


def schemes():
    out = {}
    for scheme in SCHEMES:
        host_us, events = _pingpong(scheme, column_vector(256).make(), 4)
        out[f"schemes.{scheme}.host_us_per_msg"] = host_us
        out[f"schemes.{scheme}.events_per_msg"] = events
    return out


def alltoall():
    nranks, iters = 4, 2
    dt = fig10_struct(8192).make()

    def program(mpi):
        send = mpi.alloc(nranks * dt.extent)
        recv = mpi.alloc(nranks * dt.extent)
        for _ in range(iters):
            yield from mpi.alltoall(send, dt, 1, recv, dt, 1)

    cluster = Cluster(nranks, scheme="bc-spup")
    ns = _ns(lambda: cluster.run(program))
    legs = iters * nranks * nranks
    return {
        "mpi.collectives.alltoall_host_us_per_leg": ns / 1e3 / legs,
        "mpi.collectives.alltoall_events_per_leg": cluster.sim.events_processed / legs,
    }


def rma():
    """One epoch: window creation, fence, puts from rank 0, fence."""
    puts = 8
    dt = column_vector(8).make()
    nbytes = dt.extent + 64

    def program(mpi):
        buf = mpi.alloc(nbytes)
        win = yield from mpi.win_create(buf, nbytes)
        yield from mpi.win_fence(win)
        if mpi.rank == 0:
            for _ in range(puts):
                yield from mpi.put(win, 1, buf, dt)
        yield from mpi.win_fence(win)

    cluster = Cluster(2)
    ns = _ns(lambda: cluster.run(program))
    return {
        "mpi.rma.put_host_us": ns / 1e3 / puts,
        "mpi.rma.events_per_put": cluster.sim.events_processed / puts,
    }


# -- workloads ---------------------------------------------------------

_TRACE = Path(__file__).resolve().parent / "traces" / "particle_exchange.json"


def workload_ir():
    text = _TRACE.read_text()
    parsed = []
    parse_ns = _ns(lambda: parsed.append(parse(text)))
    return {
        "workloads.parse_ms": parse_ns / 1e6,
        "workloads.validate_ms": _ns(lambda: validate(parsed[0])) / 1e6,
    }


#: (step, repeats): the two large builds take seconds per sample, and the
#: whole ladder has to fit beside the traced passes of one run
STEPS = (
    (heap, REPEATS),
    (process_resume, REPEATS),
    (resource, REPEATS),
    (store, REPEATS),
    (memory_copies, REPEATS),
    (flatten, REPEATS),
    (segment, REPEATS),
    (pack, REPEATS),
    (registration, REPEATS),
    (verbs, REPEATS),
    (cluster_build(2), REPEATS),
    (cluster_build(8), 3),
    (cluster_build(16), 2),
    (matching, REPEATS),
    (protocols, REPEATS),
    (schemes, REPEATS),
    (alltoall, REPEATS),
    (rma, REPEATS),
    (workload_ir, REPEATS),
)


def run(quick: bool = False) -> dict:
    """Floor of every ladder metric over its step's repeats."""
    out: dict = {}
    for step, repeats in STEPS:
        samples = [step() for _ in range(1 if quick else repeats)]
        for metric in samples[0]:
            out[metric] = min(sample[metric] for sample in samples)
    return out
