"""A ``data`` payload is inflated once per parsed workload, and a digest
reads the buffers it hashes in place."""

import hashlib
import json
import zlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.workloads import WorkloadError, ir, parse, to_json, validate
from repro.workloads.fuzz import expected_payloads
from repro.workloads.ir import Data, encode_data
from repro.workloads.replay import digest_buffers, replay

CORPUS_DIR = Path(__file__).resolve().parent / "corpus"


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
        want.update(name.encode() + b"\x00" + bytes(view))
    assert digest_buffers(views) == want.hexdigest()
    with pytest.raises(ValueError, match="contiguous"):
        digest_buffers([("strided", memory[::2])])
