"""An array-backed ``SGEList`` and a ``[SGE, ...]`` list are the same
descriptor: same bytes delivered, same completion, same errors.  So is a
list ``sge_lists`` cuts from a sorted layout, which carries its shape."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datatypes import BYTE, SegmentCursor, hindexed
from repro.ib import (
    MAX_SGE,
    CostModel,
    Fabric,
    Opcode,
    ProtectionError,
    SGE,
    SGEList,
    SendWR,
)
from repro.ib.memory import NodeMemory
from repro.ib.verbs import WriteList
from repro.schemes.base import RegisteredUserBuffer, sge_lists
from repro.simulator import SimulationError, Simulator

SPAN = 1 << 16


def as_list(sges):
    return list(sges)


def as_arrays(sges):
    return SGEList.of(list(sges))


FORMS = pytest.mark.parametrize("form", [as_list, as_arrays], ids=["list", "arrays"])


def pair():
    """Two connected nodes, a registered ``SPAN`` of pattern bytes on each."""
    sim = Simulator()
    nodes = Fabric(sim, CostModel.mellanox_2003()).connect_all(
        memory_capacity=4 << 20, n=2
    )
    out = []
    for k, node in enumerate(nodes):
        addr = node.memory.alloc(SPAN)
        node.memory.view(addr, SPAN)[:] = (
            np.arange(SPAN, dtype=np.uint32) * (3 + 4 * k) % 251
        ).astype(np.uint8)
        out.append((node, addr, node.memory.register(addr, SPAN)))
    return sim, out


def run(sim, program):
    proc = sim.process(program())
    sim.run()
    return proc.value


@st.composite
def block_lists(draw):
    n = draw(st.integers(2, MAX_SGE))
    width = draw(st.sampled_from([1, 4, 64, 700]))
    equal = draw(st.booleans())
    blocks, pos = [], 0
    for _ in range(n):
        pos += draw(st.integers(0, 40))
        length = width if equal else draw(st.integers(1, width))
        blocks.append((pos, length))
        pos += length
    return draw(st.permutations(blocks))


class TestSameDescriptor:
    def test_an_sge_list_is_a_sized_iterable_of_sges(self):
        sges = [SGE(10, 4, 7), SGE(30, 2, 7), SGE(20, 5, 9)]
        arrays = SGEList.of(sges)
        assert SGEList.of(arrays) is arrays
        assert len(arrays) == 3 and arrays.nbytes == 11
        assert list(arrays) == sges
        assert all(type(v) is int for sge in arrays for v in sge)
        assert SendWR(Opcode.SEND, sges=arrays, extra_bytes=5).byte_len == 16

    @settings(max_examples=40, deadline=None)
    @given(blocks=block_lists())
    def test_write_gather_and_read_scatter(self, blocks):
        """One gather write, then one scatter read, in each form: the
        same bytes land, the CQEs carry the same length, the same
        simulated time passes."""
        nbytes = sum(n for _a, n in blocks)
        results = []
        for form in (as_list, as_arrays):
            sim, ((n0, a0, mr0), (n1, a1, mr1)) = pair()
            sges = form(SGE(a0 + a, n, mr0.lkey) for a, n in blocks)
            qp = n0.hca.qps[1]

            def local():
                return np.concatenate([n0.memory.view(a0 + a, n) for a, n in blocks])

            sent = local()

            def program():
                yield from qp.post_send(SendWR(
                    Opcode.RDMA_WRITE, sges=sges, remote_addr=a1, rkey=mr1.rkey,
                ))
                wrote = yield qp.send_cq.wait()
                yield sim.timeout(100.0)  # the CQE is local: let the bytes land
                landed = n1.memory.view(a1, nbytes).copy()
                yield from qp.post_send(SendWR(
                    Opcode.RDMA_READ, sges=sges, remote_addr=a1 + 8192,
                    rkey=mr1.rkey,
                ))
                read = yield qp.send_cq.wait()
                return wrote.byte_len, read.byte_len, landed

            wrote, read, landed = run(sim, program)
            assert wrote == read == nbytes
            assert np.array_equal(landed, sent)
            # after the read the blocks hold the remote bytes, in list order
            assert np.array_equal(local(), n1.memory.view(a1 + 8192, nbytes))
            assert not np.array_equal(local(), sent)
            results.append((landed.tobytes(), sim.now, sim.events_processed))
        assert results[0] == results[1]

    @FORMS
    def test_one_uncovered_block_is_a_protection_error(self, form):
        sim, ((n0, a0, mr0), (n1, a1, mr1)) = pair()
        small = n0.memory.register(a0, 4096)
        blocks = [(i * 128, 16) for i in range(40)]  # block 32 starts at 4096
        sges = form(SGE(a0 + a, n, small.lkey) for a, n in blocks)
        with pytest.raises(ProtectionError, match=f"lkey {small.lkey} region"):
            run(sim, lambda: n0.hca.qps[1].post_send(SendWR(
                Opcode.RDMA_WRITE, sges=sges, remote_addr=a1, rkey=mr1.rkey,
            )))
        # every block but that one: accepted
        covered = form(SGE(a0 + a, n, small.lkey) for a, n in blocks[:32])
        n0.hca.qps[1]._validate_send(SendWR(
            Opcode.RDMA_WRITE, sges=covered, remote_addr=a1, rkey=mr1.rkey,
        ))

    @FORMS
    def test_each_lkey_is_checked_against_its_own_region(self, form):
        sim, ((n0, a0, mr0), (n1, a1, mr1)) = pair()
        low, high = n0.memory.register(a0, 1024), n0.memory.register(a0 + 8192, 1024)
        inside = [SGE(a0 + 8192 + 64, 8, high.lkey), SGE(a0, 8, low.lkey),
                  SGE(a0 + 9000, 8, high.lkey), SGE(a0 + 1000, 8, low.lkey)]
        qp = n0.hca.qps[1]
        qp._validate_send(SendWR(Opcode.RDMA_WRITE, sges=form(inside)))
        swapped = inside[:3] + [SGE(a0 + 1000, 8, high.lkey)]
        with pytest.raises(ProtectionError, match=f"lkey {high.lkey} region"):
            qp._validate_send(SendWR(Opcode.RDMA_WRITE, sges=form(swapped)))

    @FORMS
    def test_unknown_lkey_is_a_protection_error(self, form):
        sim, ((n0, a0, mr0), (n1, a1, mr1)) = pair()
        sges = form([SGE(a0, 8, mr0.lkey), SGE(a0 + 64, 8, 999_999)])
        with pytest.raises(ProtectionError, match="unknown lkey 999999"):
            run(sim, lambda: n0.hca.qps[1].post_send(SendWR(
                Opcode.RDMA_WRITE, sges=sges, remote_addr=a1, rkey=mr1.rkey,
            )))

    @FORMS
    def test_max_sge(self, form):
        sges = form(SGE(i * 8, 4, 1) for i in range(MAX_SGE + 1))
        with pytest.raises(SimulationError, match=f"{MAX_SGE}-entry limit"):
            SendWR(Opcode.RDMA_WRITE, sges=sges).validate()
        SendWR(Opcode.RDMA_WRITE, sges=form(list(sges)[:MAX_SGE])).validate()


class TestScatter:
    @FORMS
    def test_short_data_fills_a_prefix(self, form):
        sim, ((n0, a0, _mr0), _peer) = pair()
        before = n0.memory.view(a0, 4096).copy()
        sges = form(SGE(a0 + i * 64, 16, 1) for i in range(10))
        data = np.arange(100, 100 + 40, dtype=np.uint8)  # 2.5 entries
        n0.hca._scatter(sges, data)
        want = before.copy()
        want[0:16], want[64:80], want[128:136] = data[:16], data[16:32], data[32:]
        assert np.array_equal(n0.memory.view(a0, 4096), want)

    @FORMS
    def test_list_too_small(self, form):
        sim, ((n0, a0, _mr0), _peer) = pair()
        sges = form(SGE(a0 + i * 64, 16, 1) for i in range(4))
        with pytest.raises(SimulationError, match="scatter list too small for 65"):
            n0.hca._scatter(sges, np.zeros(65, dtype=np.uint8))
        with pytest.raises(SimulationError, match="scatter list too small"):
            n0.hca._scatter(form([]), np.zeros(1, dtype=np.uint8))
        n0.hca._scatter(form([]), np.zeros(0, dtype=np.uint8))


def registered(*mrs) -> RegisteredUserBuffer:
    reg = RegisteredUserBuffer()
    reg._mrs.extend(mrs)
    return reg


@st.composite
def sorted_cuts(draw):
    """``(cursor, lo, hi)``: a cut of a sorted, disjoint layout inside the
    first half of ``SPAN`` — equal or mixed widths, up to three
    descriptors' worth of blocks, its first and last block cut anywhere."""
    n = draw(st.integers(1, 3 * MAX_SGE))
    equal = draw(st.booleans())
    width = draw(st.sampled_from([1, 4, 64]))
    offsets, lengths, pos = [], [], 0
    for _ in range(n):
        pos += draw(st.integers(1, 40))
        lengths.append(width if equal else draw(st.integers(1, width)))
        offsets.append(pos)
        pos += lengths[-1]
    cursor = SegmentCursor(hindexed(lengths, offsets, BYTE))
    lo = draw(st.integers(0, cursor.total - 1))
    return cursor, lo, draw(st.integers(lo + 1, cursor.total))


class TestShapedList:
    """What ``sge_lists`` hands the verbs against the same entries as a
    plain array list, whose checks and copies reduce over the arrays."""

    @settings(max_examples=40, deadline=None)
    @given(cut=sorted_cuts(), split=st.booleans())
    def test_chunks_carry_their_shape(self, cut, split):
        cursor, lo, hi = cut
        sim, ((n0, a0, mr0), _peer) = pair()
        # split: two overlapping regions, so a cut may have entries under each
        low = n0.memory.register(a0, 4096)
        high = n0.memory.register(a0 + 2048, SPAN // 2)
        reg = registered(low, high) if split else registered(mr0)
        lists = sge_lists(a0, cursor, lo, hi, reg)
        offsets, lengths = cursor.slices(lo, hi)
        assert [len(sges) for sges in lists][:-1] == [MAX_SGE] * (len(lists) - 1)
        assert np.array_equal(np.concatenate([s.addrs for s in lists]), a0 + offsets)
        assert np.array_equal(np.concatenate([s.lengths for s in lists]), lengths)
        keys = set(np.concatenate([s.lkeys for s in lists]).tolist())
        qp = n0.hca.qps[1]
        for sges in lists:
            plain = SGEList.of(list(sges))
            assert plain.width is plain.lkey is None
            assert sges.width == cursor.width and sges.nbytes == plain.nbytes
            # one key over the whole cut, or each list's own reductions
            assert sges.lkey == (min(keys) if len(keys) == 1 else None)
            assert list(sges.hulls()) == list(plain.hulls())
            for form in (sges, plain):
                qp._validate_send(SendWR(Opcode.RDMA_WRITE, sges=form))

    @settings(max_examples=40, deadline=None)
    @given(cut=sorted_cuts(), short=st.integers(0, 3))
    def test_gather_and_scatter_as_the_plain_list(self, cut, short):
        """``short``: the inbound data ends ``short`` bytes before the
        list does (a clipped scatter reduces again)."""
        cursor, lo, hi = cut
        moved = []
        for shaped in (True, False):
            sim, ((n0, a0, mr0), _peer) = pair()
            n0.memory._written[:] = False
            lists = sge_lists(a0, cursor, lo, hi, registered(mr0))
            if not shaped:
                lists = [SGEList.of(list(sges)) for sges in lists]
            gathered = [n0.hca._gather(SendWR(Opcode.SEND, sges=s)) for s in lists]
            for sges, data in zip(lists, gathered):
                n0.hca._scatter(sges, data[: max(0, len(data) - short)][::-1].copy())
            after = n0.memory.view(a0, SPAN).copy()
            moved.append((gathered, after, n0.memory._written.copy()))
        (g1, m1, w1), (g2, m2, w2) = moved
        assert all(np.array_equal(a, b) for a, b in zip(g1, g2))
        assert np.array_equal(m1, m2) and np.array_equal(w1, w2)

    @settings(max_examples=20, deadline=None)
    @given(cut=sorted_cuts())
    def test_a_write_gather_and_read_scatter_run_as_the_plain_list(self, cut):
        cursor, lo, hi = cut
        results = []
        for shaped in (True, False):
            sim, ((n0, a0, mr0), (n1, a1, mr1)) = pair()
            lists = sge_lists(a0, cursor, lo, hi, registered(mr0))
            if not shaped:
                lists = [SGEList.of(list(sges)) for sges in lists]
            qp = n0.hca.qps[1]

            def program():
                at = a1
                for op in (Opcode.RDMA_WRITE, Opcode.RDMA_READ):
                    for sges in lists:
                        yield from qp.post_send(
                            SendWR(op, sges=sges, remote_addr=at, rkey=mr1.rkey)
                        )
                        yield qp.send_cq.wait()
                        at += sges.nbytes
                yield sim.timeout(100.0)

            run(sim, program)
            results.append((
                n0.memory.view(a0, SPAN).tobytes(), n1.memory.view(a1, SPAN).tobytes(),
                sim.now, sim.events_processed,
            ))
        assert results[0] == results[1]


def test_a_write_list_lands_in_list_order(monkeypatch):
    """Its destinations are checked and written by reductions, even when
    they are sorted: a write list carries no shape."""
    widths = []
    real = NodeMemory.copy_blocks

    def noting(self, *args, **kwargs):
        widths.append(kwargs.get("width"))
        return real(self, *args, **kwargs)

    monkeypatch.setattr(NodeMemory, "copy_blocks", noting)
    sim, ((n0, a0, mr0), (n1, a1, mr1)) = pair()
    n = 40
    at = np.arange(n, dtype=np.int64) * 64
    sizes = np.full(n, 16, dtype=np.int64)
    wrs = WriteList(
        (a0 + at, a1 + at, sizes), np.full(n, mr0.lkey, dtype=np.int64),
        np.full(n, mr1.rkey, dtype=np.int64), (0, 0),
    )
    wrs.last.signaled = True
    qp = n0.hca.qps[1]

    def program():
        yield from qp.post_send_list(wrs)
        yield qp.send_cq.wait()
        yield sim.timeout(100.0)

    run(sim, program)
    for k in range(n):
        a = int(at[k])
        assert np.array_equal(n1.memory.view(a1 + a, 16), n0.memory.view(a0 + a, 16))
    assert widths and set(widths) == {None}
