"""Batched estimates are bit-equal to the per-key and ``np.median`` paths.

``VectorizedCountSketch.estimate_batch`` hashes every row in one
broadcast, gathers once and takes the median by sort-and-pick.  These
tests pin that the result is byte-for-byte what ``np.median`` gives
over the float64 readouts, what a single-key ``estimate`` gives, and
what a served ``estimate`` returns on every table kind.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.vectorized import VectorizedCountSketch, median_of_rows
from repro.hashing.vectorized import VectorizedRowHashes
from repro.service.client import AsyncServiceClient
from repro.service.server import SketchServer
from repro.service.tables import TABLE_KINDS, TableSpec

U64 = st.integers(min_value=0, max_value=2**64 - 1)
EDGE_KEYS = [0, 2**64 - 1]


@settings(max_examples=80, deadline=None)
@given(
    depth=st.integers(min_value=1, max_value=8),
    width=st.sampled_from([1, 7, 1024]),
    seed=st.integers(min_value=0, max_value=2**32),
    updates=st.lists(
        st.tuples(U64, st.integers(min_value=-1000, max_value=1000)),
        max_size=60,
    ),
    queries=st.lists(U64, max_size=40),
)
def test_batch_estimate_is_np_median_of_row_values(
    depth, width, seed, updates, queries
):
    sketch = VectorizedCountSketch(depth, width, seed=seed)
    if updates:
        keys, weights = zip(*updates)
        sketch.update_batch(np.asarray(keys, dtype=np.uint64),
                            np.asarray(weights, dtype=np.int64))
    keys = np.asarray(queries + EDGE_KEYS + [k for k, _ in updates],
                      dtype=np.uint64)
    rows = sketch.row_values_batch(keys)
    expected = np.median(rows.astype(np.float64), axis=0)
    assert sketch.estimate_batch(keys).tobytes() == expected.tobytes()
    # The readouts themselves, against one row hash and gather at a time.
    hashes = VectorizedRowHashes(depth, width, seed=seed)
    for row in range(depth):
        buckets = hashes.buckets(keys, row)
        assert np.array_equal(
            rows[row],
            sketch.counters[row, buckets] * hashes.signs(keys, row))


@settings(max_examples=80, deadline=None)
@given(
    depth=st.integers(min_value=1, max_value=8),
    width=st.sampled_from([1, 7, 1024]),
    keys=st.lists(U64, min_size=1, max_size=20),
)
def test_all_rows_matches_the_single_row_hashes(depth, width, keys):
    hashes = VectorizedRowHashes(depth, width, seed=depth + width)
    array = np.asarray(keys, dtype=np.uint64)
    buckets, signs = hashes.all_rows(array)
    assert buckets.shape == signs.shape == (depth, len(keys))
    assert buckets.dtype == signs.dtype == np.int64
    for row in range(depth):
        assert np.array_equal(buckets[row], hashes.buckets(array, row))
        assert np.array_equal(signs[row], hashes.signs(array, row))


@settings(max_examples=100, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=8).flatmap(
        lambda depth: st.lists(
            st.lists(st.integers(min_value=-(2**63), max_value=2**63 - 1),
                     min_size=depth, max_size=depth),
            min_size=1, max_size=10,
        )
    )
)
def test_median_of_rows_matches_np_median_at_int64_extremes(rows):
    array = np.asarray(rows, dtype=np.int64).T
    floats = array.astype(np.float64)
    expected = np.median(floats, axis=0)
    assert median_of_rows(array).tobytes() == expected.tobytes()
    # The cluster coordinator reduces summed readouts as float64.
    assert median_of_rows(floats).tobytes() == expected.tobytes()


@pytest.mark.parametrize("depth", [1, 2, 4, 5, 8])
def test_single_estimate_is_a_batch_of_one(depth):
    sketch = VectorizedCountSketch(depth, 64, seed=9)
    items = ["a", "b", b"raw", ("t", 1), 7, -3, 0, 2**64 - 1]
    sketch.update_batch(items, [5, -2, 3, 4, 9, 1, 2, 6])
    for item in items + ["never-seen"]:
        assert sketch.estimate(item) == sketch.estimate_batch([item])[0]


def test_empty_batch_returns_empty_arrays():
    sketch = VectorizedCountSketch(5, 32, seed=1)
    assert sketch.estimate_batch([]).shape == (0,)
    assert sketch.row_values_batch([]).shape == (5, 0)


class TestServedEstimates:
    """Served answers equal the offline per-key estimate on every kind."""

    ITEMS = ["x", "y", b"bytes-key", ("tuple", 2), 11, 2**64 - 1, 0]
    PROBES = ["x", "x", "y", b"bytes-key", ("tuple", 2), 11, 11,
              2**64 - 1, 0, "never-seen", ("tuple", 2)]

    @staticmethod
    def serve(kind, probes, rows=False):
        async def go():
            spec = TableSpec("t", kind=kind, depth=4, width=64, seed=5,
                             k=4, window=64, buckets=4)
            server = SketchServer([spec])
            client = AsyncServiceClient.in_process(server)
            offline = spec.build()
            records = [(item, 1 + index)
                       for index, item in enumerate(TestServedEstimates.ITEMS)]
            await client.ingest(spec.name, records)
            for item, count in records:
                offline.update(item, count)
            if rows:
                served = await client.estimate_rows(spec.name, probes)
            else:
                served = await client.estimate(spec.name, probes)
            await server.stop()
            return served, offline

        return asyncio.run(go())

    @pytest.mark.parametrize("kind", TABLE_KINDS)
    def test_served_estimate_matches_offline_per_key(self, kind):
        served, offline = self.serve(kind, self.PROBES)
        assert served == [float(offline.estimate(p)) for p in self.PROBES]

    @pytest.mark.parametrize("kind", TABLE_KINDS)
    def test_empty_keys_answer_empty(self, kind):
        served, _ = self.serve(kind, [])
        assert served == []

    def test_served_rows_match_offline_row_values(self):
        served, offline = self.serve("vectorized", self.PROBES, rows=True)
        expected = offline.row_values_batch(self.PROBES).T.tolist()
        assert served == expected
        assert all(type(value) is int for row in served for value in row)
