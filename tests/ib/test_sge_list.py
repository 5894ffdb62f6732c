"""An array-backed ``SGEList`` and a ``[SGE, ...]`` list are the same
descriptor: same bytes delivered, same completion, same errors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
