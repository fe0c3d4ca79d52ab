"""Array-native ingest: keys and counts travel as arrays from the client
edge to the counters, encoded once.

Covers the ``encode_keys`` dtype fast path (bit-equal to ``encode_key``
item by item), ``AsyncServiceClient.ingest_arrays`` and the record
wrappers built on the same conversion (bit-equal to an offline summary
on every hashing kind and both wires, across frame splits), the refusal
of non-integer counts on every wire, and coordinator ingest over 1-3
shards.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.service.client as client_module
import repro.service.protocol as protocol_module
from repro.cluster.coordinator import ClusterCoordinator
from repro.hashing.encode import encode_key
from repro.hashing.vectorized import encode_keys
from repro.service.client import AsyncServiceClient, ServiceError
from repro.service.protocol import binary_ingest_capacity
from repro.service.server import SketchServer
from repro.service.tables import TableSpec

INT_DTYPES = [np.int8, np.int16, np.int32, np.int64,
              np.uint8, np.uint16, np.uint32, np.uint64]


def spec_for(kind: str, name: str = "t") -> TableSpec:
    return TableSpec(
        name, kind=kind, depth=4, width=128, seed=3, k=8, window=64,
        buckets=4,
    )


def run(coro):
    return asyncio.run(coro)


def numpy_int(dtype) -> st.SearchStrategy:
    info = np.iinfo(dtype)
    return st.integers(int(info.min), int(info.max)).map(dtype)


INT_LIKE = st.one_of(
    st.integers(-(2**65), 2**65),
    st.booleans(),
    st.sampled_from(INT_DTYPES).flatmap(numpy_int),
    st.builds(np.bool_, st.booleans()),
)


def expected_keys(items) -> list[int]:
    return [encode_key(item) for item in items]


class TestEncodeKeysFastPath:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(INT_LIKE, max_size=40))
    def test_int_like_items_match_encode_key(self, items):
        keys = encode_keys(items)
        assert keys.dtype == np.uint64
        assert keys.tolist() == expected_keys(items)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(-(2**64), -1), min_size=1, max_size=10),
        st.lists(st.integers(2**63, 2**64 - 1), min_size=1, max_size=10),
        st.randoms(use_true_random=False),
    )
    def test_negatives_mixed_with_high_values(self, negatives, highs, rng):
        # NumPy infers float64 for this mix; the exact wrap path answers.
        items = negatives + highs
        rng.shuffle(items)
        assert encode_keys(items).tolist() == expected_keys(items)

    @pytest.mark.parametrize("dtype", INT_DTYPES)
    def test_scalars_at_dtype_extremes(self, dtype):
        info = np.iinfo(dtype)
        items = [dtype(info.min), dtype(info.max), dtype(0)]
        assert encode_keys(items).tolist() == expected_keys(items)

    def test_bools_are_ints(self):
        items = [True, False, np.bool_(True), 7]
        assert encode_keys(items).tolist() == [1, 0, 1, 7]

    def test_wide_ints_wrap(self):
        items = [2**64, 2**65 + 3, -(2**65), 5]
        assert encode_keys(items).tolist() == expected_keys(items)

    def test_empty(self):
        keys = encode_keys([])
        assert keys.dtype == np.uint64 and keys.size == 0

    def test_floats_are_digested_not_truncated(self):
        items = [2.5, 3.0, 1]
        keys = encode_keys(items).tolist()
        assert keys == expected_keys(items)
        assert keys[1] != 3
        assert keys[2] == 1

    @pytest.mark.parametrize("bad", [
        [np.array(5)],
        np.array(5.0),
        [None],
        [1, None],
        [complex(1, 2)],
        [3, 1j],
    ], ids=["0d-int-item", "0d-float-array", "none", "int-then-none",
            "complex", "int-then-complex"])
    def test_unencodable_items_raise_type_error(self, bad):
        with pytest.raises(TypeError):
            encode_keys(bad)


STREAM = (
    [(i % 37, 1 + i % 3) for i in range(1500)]
    + [(-(i % 5) - 1, 2) for i in range(300)]
    + [(2**63 + i % 7, 1) for i in range(300)]
    + [(f"s{i % 11}", np.int64(1)) for i in range(400)]
)
PROBES = sorted({item for item, _ in STREAM}, key=repr)


@pytest.fixture()
def tiny_frames(monkeypatch):
    monkeypatch.setattr(protocol_module, "MAX_FRAME_BYTES", 16384)
    monkeypatch.setattr(client_module, "MAX_FRAME_BYTES", 16384)


def offline_estimates(spec: TableSpec, records, *,
                      sketch: bool = False) -> list[float]:
    """Offline estimates of ``PROBES``; with ``sketch``, a ``topk``
    table's inner sketch answers (what a coordinator re-scores with)."""
    offline = spec.build()
    for item, count in records:
        offline.update(item, int(count))
    if sketch:
        offline = getattr(offline, "sketch", offline)
    return [float(offline.estimate(item)) for item in PROBES]


class TestArrayIngestExactness:
    @pytest.mark.parametrize("wire", ["binary", "json"])
    @pytest.mark.parametrize("kind", ["sketch", "vectorized", "window"])
    @pytest.mark.parametrize("path", ["ingest_arrays", "ingest",
                                      "ingest_many"])
    def test_bit_equal_to_offline(self, tiny_frames, wire, kind, path):
        # One batch is larger than a raw frame holds, so every path
        # crosses a split.
        assert len(STREAM) > binary_ingest_capacity("t")

        async def go():
            spec = spec_for(kind)
            server = SketchServer([spec])
            client = AsyncServiceClient.in_process(server, wire=wire)
            if path == "ingest_arrays":
                keys = encode_keys([item for item, _ in STREAM])
                counts = np.array([int(c) for _, c in STREAM],
                                  dtype=np.int64)
                await client.ingest_arrays("t", keys[:100], counts[:100])
                await client.ingest_arrays("t", keys[100:], counts[100:],
                                           wait=True)
            elif path == "ingest":
                await client.ingest("t", STREAM[:100])
                await client.ingest("t", iter(STREAM[100:]), wait=True)
            else:
                acked = await client.ingest_many(
                    "t", [STREAM[:100], [], STREAM[100:]])
                assert acked == len(STREAM)
            assert await client.estimate("t", PROBES) == offline_estimates(
                spec, STREAM)
            stats = await client.stats("t")
            assert stats["table"]["records_applied"] == len(STREAM)
            await server.stop()

        run(go())

    @pytest.mark.parametrize("wire", ["binary", "json"])
    def test_topk_refuses_arrays(self, wire):
        async def go():
            server = SketchServer([spec_for("topk")])
            client = AsyncServiceClient.in_process(server, wire=wire)
            with pytest.raises(ServiceError) as excinfo:
                await client.ingest_arrays(
                    "t", np.array([7], dtype=np.uint64),
                    np.array([1], dtype=np.int64), wait=True)
            assert excinfo.value.code == "bad_request"
            assert (await client.stats("t"))["table"]["records_applied"] == 0
            await server.stop()

        run(go())

    @pytest.mark.parametrize("keys, counts", [
        (np.array([1], dtype=np.int64), np.array([1], dtype=np.int64)),
        (np.array([1], dtype=np.uint64), np.array([1], dtype=np.int32)),
        (np.array([1, 2], dtype=np.uint64), np.array([1], dtype=np.int64)),
        ([1], np.array([1], dtype=np.int64)),
    ], ids=["signed-keys", "int32-counts", "length-mismatch", "list-keys"])
    def test_array_shape_and_dtype_checked(self, keys, counts):
        async def go():
            server = SketchServer([spec_for("vectorized")])
            client = AsyncServiceClient.in_process(server)
            with pytest.raises(ValueError, match="uint64"):
                await client.ingest_arrays("t", keys, counts)
            await server.stop()

        run(go())


BAD_COUNTS = [2.5, True, "3", np.float64(2.0), None, np.bool_(True)]


class TestNonIntegerCountsRefused:
    # Regression: the client used to int()-coerce counts, so 2.5 was
    # applied as 2 and "3" as 3, where the server's JSON handler refuses
    # the same values.  Every wire now refuses them before sending.
    @pytest.mark.parametrize("bad", BAD_COUNTS, ids=repr)
    @pytest.mark.parametrize("wire", ["auto", "binary", "json"])
    def test_refused_on_every_wire(self, wire, bad):
        async def go():
            server = SketchServer([spec_for("sketch")])
            client = AsyncServiceClient.in_process(server, wire=wire)
            for records in ([(1, bad)], [(1, 1), (2, bad)]):
                with pytest.raises(ServiceError) as excinfo:
                    await client.ingest("t", records, wait=True)
                assert excinfo.value.code == "bad_request"
                assert "non-integer count" in excinfo.value.message
                with pytest.raises(ServiceError):
                    await client.ingest_many("t", [[(3, 1)], records])
            assert await client.estimate("t", [1, 2, 3]) == [0.0] * 3
            await client.ingest("t", [(1, np.int64(2)), (2, 3)], wait=True)
            assert await client.estimate("t", [1, 2]) == [2.0, 3.0]
            await server.stop()

        run(go())

    @pytest.mark.parametrize("bad", BAD_COUNTS, ids=repr)
    def test_refused_by_the_coordinator(self, bad):
        async def go():
            servers = [SketchServer([spec_for("vectorized")])
                       for _ in range(2)]
            coordinator = ClusterCoordinator.in_process(servers)
            with pytest.raises(ServiceError) as excinfo:
                await coordinator.ingest("t", [(1, 1), (2, bad)], wait=True)
            assert excinfo.value.code == "bad_request"
            assert "non-integer count" in excinfo.value.message
            for server in servers:
                table = (await AsyncServiceClient.in_process(server)
                         .stats("t"))["table"]
                assert table["records_applied"] == 0
            for server in servers:
                await server.stop()

        run(go())


class TestCoordinatorArrays:
    @pytest.mark.parametrize("wire", ["auto", "json"])
    @pytest.mark.parametrize("kind", ["sketch", "vectorized", "topk"])
    @pytest.mark.parametrize("n_shards", [1, 2, 3])
    def test_bit_equal_to_one_offline_sketch(self, n_shards, kind, wire):
        async def go():
            spec = spec_for(kind)
            servers = [SketchServer([]) for _ in range(n_shards)]
            coordinator = ClusterCoordinator.in_process(servers, wire=wire)
            await coordinator.create_table(spec)
            await coordinator.ingest("t", STREAM[:700])
            await coordinator.ingest("t", STREAM[700:], wait=True)
            assert await coordinator.estimate("t", PROBES) == (
                offline_estimates(spec, STREAM, sketch=True))
            applied = 0
            for client in coordinator.clients:
                applied += (await client.stats("t"))["table"][
                    "records_applied"]
            assert applied == len(STREAM)
            for server in servers:
                await server.stop()

        run(go())
