"""A ``data`` payload is inflated once per parsed workload, a digest reads
the buffers it hashes in place, and a window's landing is hashed once a
fence, shared with the digest."""

import base64
import hashlib
import importlib
import json
import sys
import threading
import zlib
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.workloads import WorkloadError, ir, parse, to_json, validate
from repro.workloads.fuzz import expected_payloads
from repro.workloads.ir import INFLATE_OFFLOAD_CHARS, Data, encode_data
from repro.workloads.record import UnsupportedOp, record
from repro.workloads.replay import HASH_OFFLOAD_BYTES, digest_buffers, replay

CORPUS_DIR = Path(__file__).resolve().parent / "corpus"
# the module, which the package's ``replay`` function shadows
replay_module = importlib.import_module("repro.workloads.replay")
record_module = importlib.import_module("repro.workloads.record")


def _doc(*payloads):
    """``eager_rndv_overtake`` with rank 0's fills replaced by literal
    bytes: one ``data`` op per entry of ``payloads`` (``(buf, offset,
    bytes-or-text)``)."""
    doc = json.loads((CORPUS_DIR / "eager_rndv_overtake.json").read_text())
    ops = doc["ranks"][0]
    data = [
        {"buf": buf, "offset": offset, "op": "data",
         "zlib64": encode_data(raw) if isinstance(raw, bytes) else raw}
        for buf, offset, raw in payloads
    ]
    ops[2:4] = data
    return json.dumps(doc)


def _two_payloads():
    rng = np.random.default_rng(3)
    return _doc(
        ("a", 0, rng.integers(0, 256, 4096, dtype=np.uint8).tobytes()),
        ("b", 100, rng.integers(0, 256, 11900, dtype=np.uint8).tobytes()),
    )


@pytest.fixture
def inflations(monkeypatch):
    calls = []
    decompress = zlib.decompress

    def counting(data, *args, **kwargs):
        calls.append(len(data))
        return decompress(data, *args, **kwargs)

    # the IR's own door to zlib, not the process's: imports inflate too
    shim = SimpleNamespace(compress=zlib.compress, decompress=counting)
    monkeypatch.setattr(ir, "zlib", shim)
    return calls


def test_parse_validate_replay_inflate_each_payload_once(inflations):
    workload = parse(_two_payloads())
    assert inflations == []  # parsing reads the text, not the bytes
    validate(workload)
    assert len(inflations) == 2
    first = replay(workload, collect_payloads=True)
    assert len(inflations) == 2  # validate inside replay and replay itself
    again = replay(workload, collect_payloads=True)
    expected_payloads(workload)  # the fuzz oracle reads the same bytes
    assert len(inflations) == 2
    assert (again.time_us, again.digests, again.payloads) == (
        first.time_us, first.digests, first.payloads)


def test_a_fresh_parse_is_a_cold_replay(inflations):
    text = _two_payloads()
    replay(parse(text))
    replay(parse(text))  # no process-wide cache keyed on the text
    assert len(inflations) == 4


def test_the_memo_is_invisible_to_the_ir():
    text = _two_payloads()
    cold, warm = parse(text), parse(text)
    validate(warm)
    op = next(op for op in warm.ranks[0] if isinstance(op, Data))
    twin = next(op for op in cold.ranks[0] if isinstance(op, Data))
    assert op.decoded() is op.decoded()
    assert op == twin and hash(op) == hash(twin)
    assert op.to_dict() == twin.to_dict() and "_raw" not in op.to_dict()
    assert warm == cold and to_json(warm) == to_json(cold) == to_json(parse(text))


def test_validate_locates_an_undecodable_payload():
    workload = parse(_doc(("a", 0, "!!not base64 zlib!!")))
    with pytest.raises(WorkloadError, match=r"rank 0 op 2 \(data\): undecodable"):
        validate(workload)
    with pytest.raises(WorkloadError, match="undecodable data payload"):
        replay(workload, check=False)


def test_validate_locates_an_over_long_payload():
    workload = parse(_doc(("a", 1, bytes(4096))))
    with pytest.raises(WorkloadError, match=r"rank 0 op 2 \(data\)"):
        validate(workload)


def test_digest_reads_the_view_and_refuses_to_copy():
    memory = np.arange(4096, dtype=np.uint8)
    views = [("a", memory[100:1100]), ("b", memory[2000:2001]), ("c", memory[:0])]
    want = hashlib.sha256()
    for name, view in views:
        want.update(name.encode() + b"\x00" + hashlib.sha256(bytes(view)).digest())
    assert digest_buffers(views) == want.hexdigest()
    with pytest.raises(ValueError, match="contiguous"):
        digest_buffers([("strided", memory[::2])])


_WINDOW = 4096


def _opening(raw):
    """Allocate ``b0``, write ``raw`` over it, open a window on all of it
    and fence."""
    return [
        ir.Alloc(buf="b0", nbytes=len(raw)),
        ir.Data(buf="b0", offset=0, zlib64=encode_data(raw)),
        ir.WinCreate(win="w0", buf="b0", offset=0, size=len(raw)),
        ir.Fence(win="w0"),
    ]


def _fence_program(flip=False, size=_WINDOW):
    """Two ranks over one whole-buffer window of ``size`` bytes: rank 0
    puts 512 bytes into rank 1's window between two fences, while rank 1
    writes 64 bytes of its own window that the put does not reach (one of
    them flipped with ``flip``).  Returns the workload and rank 1's window
    at the end."""
    rng = np.random.default_rng(5)
    first, second = (
        rng.integers(0, 256, size, dtype=np.uint8).tobytes() for _ in range(2)
    )
    late = bytearray(range(64))
    late[17] ^= flip
    rank0 = _opening(first) + [
        ir.Put(win="w0", target=1, buf="b0", offset=0, type="c", count=1,
               target_disp=1024),
        ir.Fence(win="w0"),
    ]
    rank1 = _opening(second) + [
        ir.Data(buf="b0", offset=2000, zlib64=encode_data(bytes(late))),
        ir.Fence(win="w0"),
    ]
    types = {"c": {"type": "contiguous", "count": 512,
                   "base": {"type": "primitive", "name": "byte"}}}
    workload = ir.Workload(name="fence", nranks=2, types=types,
                           ranks=(tuple(rank0), tuple(rank1)))
    window = bytearray(second)
    window[1024:1536] = first[:512]
    window[2000:2064] = late
    return workload, bytes(window)


@pytest.fixture
def hashed(monkeypatch):
    """The byte length of every SHA-256 the replay takes, through its own
    door to hashlib (the fuzz oracle's and the test's stay uncounted)."""
    sizes = []
    sha256 = hashlib.sha256

    def counting(*data):
        sizes.extend(memoryview(d).nbytes for d in data)
        return sha256(*data)

    shim = SimpleNamespace(sha256=counting)
    monkeypatch.setattr(replay_module, "hashlib", shim)
    return sizes


def test_a_whole_buffer_window_is_hashed_once_a_fence(hashed, monkeypatch):
    envs = []

    class Noting(replay_module.RankEnv):
        def __init__(self, *args):
            super().__init__(*args)
            envs.append(self)

    monkeypatch.setattr(replay_module, "RankEnv", Noting)
    workload, window = _fence_program()
    result = replay(workload, collect_payloads=True)
    # two fences a rank, each one hash of the window for its payload and
    # for the digest; the digest's outer hash takes no data
    assert hashed.count(_WINDOW) == 4
    assert sorted(set(hashed)) == [_WINDOW]
    # read back independently: the window as it sits in rank 1's memory
    env = envs[1]
    landed = env.memory.view(env.bases["b0"], _WINDOW).tobytes()
    assert landed == window
    assert result.payloads[1]["op5"] == hashlib.sha256(landed).digest()
    assert {len(p) for p in result.payloads[0].values()} == {32}
    assert [i for i, _ in result.digests[1]] == [3, 5]


def test_a_flipped_window_byte_changes_that_fence_only():
    base = replay(_fence_program()[0], collect_payloads=True)
    flipped = replay(_fence_program(flip=True)[0], collect_payloads=True)
    assert flipped.payloads[1]["op5"] != base.payloads[1]["op5"]
    assert flipped.digests[1][-1] != base.digests[1][-1]
    # every earlier observation, on both ranks, is untouched
    assert flipped.payloads[1]["op3"] == base.payloads[1]["op3"]
    assert flipped.digests[1][:-1] == base.digests[1][:-1]
    assert (flipped.payloads[0], flipped.digests[0]) == (
        base.payloads[0], base.digests[0])
    assert flipped.time_us == base.time_us


def test_a_threshold_window_is_hashed_once_a_fence(hashed):
    """The twin above at the size whose hash runs on the call's workers:
    still one hash of the window a fence, shared by payload and digest."""
    workload, window = _fence_program(size=HASH_OFFLOAD_BYTES)
    result = replay(workload, collect_payloads=True)
    assert hashed.count(HASH_OFFLOAD_BYTES) == 4
    assert sorted(set(hashed)) == [HASH_OFFLOAD_BYTES]
    assert result.payloads[1]["op5"] == hashlib.sha256(window).digest()
    assert {len(p) for p in result.payloads[0].values()} == {32}
    assert result == replay(_fence_program(size=HASH_OFFLOAD_BYTES)[0],
                            collect_payloads=True)


def _digest(window: bytes) -> str:
    """The digest of a rank whose one buffer ``b0`` holds ``window``."""
    inner = hashlib.sha256(window).digest()
    return hashlib.sha256(b"b0\x00" + inner).hexdigest()


def test_a_write_after_the_fence_cannot_reach_its_hash(monkeypatch):
    """Each rank writes into its window in the op right after a fence,
    while the workers hashing that fence's windows are held until the run
    has ended: the fence's payload and digest are still those of the
    window as it stood at the fence, and so are the next fence's, whose
    snapshots are taken while the first ones' hashes wait."""
    size = HASH_OFFLOAD_BYTES
    rng = np.random.default_rng(9)
    windows = [rng.integers(0, 256, size, dtype=np.uint8).tobytes()
               for _ in range(2)]
    late = [bytes([0xA0 + r]) * 4096 for r in range(2)]
    ranks = tuple(
        tuple(_opening(windows[r]) + [
            ir.Data(buf="b0", offset=512, zlib64=encode_data(late[r])),
            ir.Fence(win="w0"),
        ])
        for r in range(2)
    )
    workload = ir.Workload(name="race", nranks=2, types={}, ranks=ranks)

    entered, ended = threading.Event(), threading.Event()
    sha256, effect = hashlib.sha256, Data.effect

    def held(*data):
        if data and threading.current_thread() is not threading.main_thread():
            entered.set()
            assert ended.wait(30)
        return sha256(*data)

    def writing(self, memory):
        if self.offset == 512:  # the write right after the first fence
            assert entered.wait(30), "the window was not hashed on a worker"
        effect(self, memory)

    class Ending(replay_module.Cluster):
        def run(self, programs):
            try:
                return super().run(programs)
            finally:
                ended.set()

    monkeypatch.setattr(replay_module, "hashlib",
                        SimpleNamespace(sha256=held))
    monkeypatch.setattr(Data, "effect", writing)
    monkeypatch.setattr(replay_module, "Cluster", Ending)
    result = replay(workload, collect_payloads=True)
    for r in range(2):
        after = bytearray(windows[r])
        after[512:512 + 4096] = late[r]
        assert result.payloads[r]["op3"] == sha256(windows[r]).digest()
        assert result.payloads[r]["op5"] == sha256(bytes(after)).digest()
        assert result.digests[r] == [(3, _digest(windows[r])),
                                     (5, _digest(bytes(after)))]


@pytest.fixture
def threads():
    """The process's thread count before the test, required after it."""
    before = threading.active_count()
    yield
    assert threading.active_count() == before


@pytest.fixture
def jobs(monkeypatch):
    """Every job the replay and the recorder hand to their workers."""
    submitted = []

    class Counting(ThreadPoolExecutor):
        def submit(self, fn, *args):
            submitted.append(fn.__name__)
            return super().submit(fn, *args)

    for module in (replay_module, record_module):
        monkeypatch.setattr(module, "worker_pool", lambda: Counting(2))
    return submitted


def _undecodable():
    """A ``data`` op's text past the prefetch threshold that is base64
    but not zlib."""
    text = base64.b64encode(np.random.default_rng(4).bytes(4000)).decode()
    assert len(text) >= INFLATE_OFFLOAD_CHARS
    return _doc(("a", 0, text))


def test_a_prefetched_undecodable_payload_is_located(threads, jobs):
    text = _undecodable()
    with pytest.raises(WorkloadError) as inline:
        validate(parse(text))  # no pool: inflated where it is checked
    assert jobs == []
    assert str(inline.value).startswith(
        "rank 0 op 2 (data): undecodable data payload: ")
    with pytest.raises(WorkloadError) as prefetched:
        replay(parse(text), check=True)
    assert jobs == ["_inflate"]
    assert str(prefetched.value) == str(inline.value)
    with pytest.raises(WorkloadError, match="undecodable data payload"):
        replay(parse(text), check=False)


def test_a_replay_ends_its_threads(threads, jobs):
    replay(parse(_two_payloads()), collect_payloads=True)
    assert jobs == ["_inflate", "_inflate"]
    del jobs[:]
    corpus = (CORPUS_DIR / "eager_rndv_overtake.json").read_text()
    replay(parse(corpus), collect_payloads=True)
    assert jobs == []  # nothing large: no job, so no thread
    replay(_fence_program(size=HASH_OFFLOAD_BYTES)[0], collect_payloads=True)
    assert jobs.count("_hash_snapshot") == 4


def _windowed(fail):
    """A live program over one whole-buffer window at the hash threshold;
    with ``fail``, an unrecordable call after the first fence."""

    def program(mpi):
        addr = mpi.alloc(HASH_OFFLOAD_BYTES)
        mpi.node.memory.view(addr, HASH_OFFLOAD_BYTES)[::3] = mpi.rank + 1
        win = yield from mpi.win_create(addr, HASH_OFFLOAD_BYTES)
        yield from mpi.win_fence(win)
        if fail:
            mpi.iprobe()
        mpi.node.memory.view(addr, 64)[:] = 7
        yield from mpi.win_fence(win)
        return 0

    return program


def test_a_recording_ends_its_threads(threads, jobs):
    recorded = record(_windowed(fail=False), name="w", nranks=2)
    assert jobs.count("_hash_snapshot") == 4
    again = replay(recorded.workload, collect_payloads=True)
    assert (again.digests, again.payloads, again.time_us) == (
        recorded.digests, recorded.payloads, recorded.time_us)
    with pytest.raises(UnsupportedOp, match="iprobe"):
        record(_windowed(fail=True), name="w", nranks=2)
    del jobs[:]
    record(lambda mpi: (yield from mpi.barrier()), name="b", nranks=2)
    assert jobs == []


def test_a_snapshot_is_never_handed_out_twice():
    """Eight threads, four times a replay's workers, take and give back
    snapshots of one size with a short switch interval: an array lent to
    two holders at once would show one holder's fill to the other, and
    the free list never holds more than its bound."""

    def churn(tag):
        for _ in range(300):
            snap = replay_module._snapshot(4096)
            snap[:] = tag
            assert (snap == tag).all()
            replay_module._hash_snapshot(snap)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            for job in [pool.submit(churn, tag) for tag in range(8)]:
                job.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert len(replay_module._snapshots) <= replay_module.SPARE_SNAPSHOTS
