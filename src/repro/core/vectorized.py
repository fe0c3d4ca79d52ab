"""A batch-oriented Count Sketch backed by vectorized hashing.

Semantically identical to :class:`~repro.core.countsketch.CountSketch`
(same counter layout, same median estimator, same linearity), but the
update and estimate paths take whole key arrays and run as NumPy
operations — the backend to reach for when streams arrive as blocks
(log-shipping batches, columnar scans) rather than item by item.

The hash family differs (multiply-shift rows instead of the polynomial
family; see :mod:`repro.hashing.vectorized` for the independence caveat),
so a vectorized sketch is *not* mergeable with a scalar one; it is
mergeable with any vectorized sketch built from the same
``(depth, width, seed)``.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Hashable, Iterable, Mapping, Sequence
from typing import Any

import numpy as np

from repro.core.sketch_base import coerce_counter_array
from repro.hashing.encode import encode_key
from repro.hashing.vectorized import VectorizedRowHashes, encode_keys
from repro.observability.registry import MetricsRegistry, get_registry


class _VectorizedMetrics:
    """Metric handles captured once per sketch when collection is on.

    Batch paths count *items*, not calls, so throughput ratios against the
    scalar backends stay comparable; batches get their own counter.
    """

    __slots__ = ("update_batches", "update_items", "estimate_items")

    def __init__(self, registry: MetricsRegistry) -> None:
        self.update_batches = registry.counter(
            "vectorized_countsketch_update_batches_total"
        )
        self.update_items = registry.counter(
            "vectorized_countsketch_update_items_total"
        )
        self.estimate_items = registry.counter(
            "vectorized_countsketch_estimate_items_total"
        )


def _as_keys(items: Iterable[Hashable] | np.ndarray) -> np.ndarray:
    if isinstance(items, np.ndarray) and items.dtype == np.uint64:
        return items
    return encode_keys(items)


def median_of_rows(rows: np.ndarray) -> np.ndarray:
    """Column medians of a ``(depth, n)`` int64 or float64 array, as float64.

    Bit-equal to ``np.median(rows.astype(np.float64), axis=0)`` for
    values without NaN: the int64 to float64 cast never reorders values,
    so sorting first and casting the middle row (odd depth) gives the
    same float, and for even depth ``(lo + hi) / 2`` over the two middle
    rows is the same float64 arithmetic ``np.median`` performs.
    """
    depth = rows.shape[0]
    ordered = np.sort(rows, axis=0)
    middle = ordered[depth // 2].astype(np.float64)
    if depth % 2:
        return middle
    return (ordered[depth // 2 - 1] + middle) / 2


class VectorizedCountSketch:
    """A Count Sketch with NumPy batch update/estimate paths.

    Args:
        depth: number of rows ``t``.
        width: counters per row ``b``.
        seed: hash derivation seed; equal ``(depth, width, seed)`` means
            shared hash functions and therefore mergeability.
    """

    def __init__(self, depth: int, width: int, seed: int = 0) -> None:
        self._hashes = VectorizedRowHashes(depth, width, seed)
        self._counters = np.zeros((depth, width), dtype=np.int64)
        self._row_starts = np.arange(0, depth * width, width,
                                     dtype=np.int64)[:, None]
        self._total_weight = 0
        registry = get_registry()
        self._metrics = (
            _VectorizedMetrics(registry) if registry.enabled else None
        )

    # -- properties -----------------------------------------------------------

    @property
    def depth(self) -> int:
        """Number of rows ``t``."""
        return self._hashes.depth

    @property
    def width(self) -> int:
        """Counters per row ``b``."""
        return self._hashes.width

    @property
    def seed(self) -> int:
        """The hash derivation seed."""
        return self._hashes.seed

    @property
    def total_weight(self) -> int:
        """Net weight of all updates applied."""
        return self._total_weight

    @property
    def counters(self) -> np.ndarray:
        """Read-only view of the counter array."""
        view = self._counters.view()
        view.flags.writeable = False
        return view

    def counters_used(self) -> int:
        """Total counters ``t·b``."""
        return self.depth * self.width

    def items_stored(self) -> int:
        """A bare sketch stores no stream objects."""
        return 0

    # -- batch updates ----------------------------------------------------------

    def update_batch(
        self,
        items: Iterable[Hashable] | np.ndarray,
        weights: Sequence[int] | np.ndarray | None = None,
    ) -> None:
        """Apply weighted updates for a whole batch of items at once.

        Args:
            items: iterable of stream items (ints take the fast path) or a
                pre-encoded uint64 key array.
            weights: optional per-item weights (default 1 each); negative
                weights delete, preserving linearity.
        """
        keys = _as_keys(items)
        if keys.size == 0:
            return
        if weights is None:
            weights_arr = np.ones(keys.size, dtype=np.int64)
        else:
            weights_arr = np.asarray(weights, dtype=np.int64)
            if weights_arr.shape != keys.shape:
                raise ValueError("weights must match items in length")
        for row in range(self.depth):
            buckets = self._hashes.buckets(keys, row)
            signed = self._hashes.signs(keys, row) * weights_arr
            np.add.at(self._counters[row], buckets, signed)
        self._total_weight += int(weights_arr.sum())
        if self._metrics is not None:
            self._metrics.update_batches.inc()
            self._metrics.update_items.inc(int(keys.size))

    def update(self, item: Hashable, count: int = 1) -> None:
        """Single-item update (protocol compatibility; batches are faster)."""
        key = np.asarray([encode_key(item)], dtype=np.uint64)
        self.update_batch(key, np.asarray([count], dtype=np.int64))

    def update_counts(self, counts: Mapping[Hashable, int]) -> None:
        """Apply a pre-aggregated count table as one batch."""
        items = list(counts)
        self.update_batch(items, np.asarray(list(counts.values()),
                                            dtype=np.int64))

    def extend(self, stream: Iterable[Hashable]) -> None:
        """Sketch an entire stream (aggregated, then one batch update)."""
        self.update_counts(Counter(stream))

    # -- estimates ----------------------------------------------------------------

    def estimate_batch(
        self, items: Iterable[Hashable] | np.ndarray
    ) -> np.ndarray:
        """Median-of-rows estimates for a whole batch of items.

        One all-rows hash, one gather and one sort per batch; the result
        is bit-equal to ``np.median`` over the float64 cast of
        :meth:`row_values_batch` (see :func:`median_of_rows`).
        """
        keys = _as_keys(items)
        if keys.size == 0:
            return np.zeros(0, dtype=np.float64)
        if self._metrics is not None:
            self._metrics.estimate_items.inc(int(keys.size))
        return median_of_rows(self._row_values(keys))

    def estimate(self, item: Hashable) -> float:
        """Single-item estimate (protocol compatibility)."""
        key = np.asarray([encode_key(item)], dtype=np.uint64)
        return float(self.estimate_batch(key)[0])

    def row_values_batch(
        self, items: Iterable[Hashable] | np.ndarray
    ) -> np.ndarray:
        """Per-row signed counter readouts as an ``(depth, n)`` int64 array.

        Column ``j`` holds ``counters[i][h_i(q_j)] · s_i(q_j)`` for each
        row ``i`` — the integers :meth:`estimate_batch` takes the
        column-median of (after a float64 cast).  By §3.2 linearity the
        readouts of sharded sketches sum, elementwise, to the readouts of
        their merge, which is what makes distributed scatter-gather
        estimates bit-equal to a single merged sketch.
        """
        return self._row_values(_as_keys(items))

    def _row_values(self, keys: np.ndarray) -> np.ndarray:
        buckets, signs = self._hashes.all_rows(keys)
        # Offsetting each row's buckets by its start in the flattened
        # counters turns the per-row lookup into one gather.
        buckets += self._row_starts
        values = np.take(self._counters, buckets)
        values *= signs
        return values

    def estimate_f2(self) -> float:
        """AMS-style second-moment estimate (median of row sums of squares)."""
        row_sums = (self._counters.astype(np.float64) ** 2).sum(axis=1)
        return float(np.median(row_sums))

    # -- linearity -------------------------------------------------------------------

    def compatible_with(self, other: VectorizedCountSketch) -> bool:
        """True iff sketch arithmetic with ``other`` is meaningful."""
        return isinstance(
            other, VectorizedCountSketch
        ) and self._hashes.same_functions(other._hashes)

    def _require_compatible(self, other: VectorizedCountSketch) -> None:
        if not isinstance(other, VectorizedCountSketch):
            raise TypeError(
                f"expected VectorizedCountSketch, got {type(other).__name__}"
            )
        if not self.compatible_with(other):
            raise ValueError(
                "sketches are not compatible: build both with the same "
                "(depth, width, seed)"
            )

    def _with_counters(self, counters: np.ndarray,
                       total: int) -> VectorizedCountSketch:
        clone = VectorizedCountSketch(self.depth, self.width, seed=self.seed)
        clone._counters = counters
        clone._total_weight = total
        return clone

    def copy(self) -> VectorizedCountSketch:
        """Return an independent copy."""
        return self._with_counters(self._counters.copy(), self._total_weight)

    def __add__(self, other: VectorizedCountSketch) -> VectorizedCountSketch:
        self._require_compatible(other)
        return self._with_counters(
            self._counters + other._counters,
            self._total_weight + other._total_weight,
        )

    def __sub__(self, other: VectorizedCountSketch) -> VectorizedCountSketch:
        self._require_compatible(other)
        return self._with_counters(
            self._counters - other._counters,
            self._total_weight - other._total_weight,
        )

    def merge(self, other: VectorizedCountSketch) -> None:
        """In-place ``+=`` of a compatible sketch."""
        self._require_compatible(other)
        self._counters += other._counters
        self._total_weight += other._total_weight

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorizedCountSketch):
            return NotImplemented
        return self.compatible_with(other) and bool(
            np.array_equal(self._counters, other._counters)
        )

    def __hash__(self) -> int:  # pragma: no cover - mutable, not hashable
        raise TypeError("VectorizedCountSketch is mutable and unhashable")

    # -- serialization -------------------------------------------------------

    def state_dict(self) -> dict[str, Any]:
        """Serialize to a plain dict; the counters travel as an ndarray.

        The hash functions are fully determined by ``seed``, so only the
        dimensions, seed, and counters need to travel; the round-trip is
        exact.  The ``counters`` value is an independent int64 array copy
        (``.tolist()`` it for JSON; durable snapshots should go through
        :mod:`repro.store`).
        """
        return {
            "depth": self.depth,
            "width": self.width,
            "seed": self.seed,
            "total_weight": self._total_weight,
            "counters": self._counters.copy(),
        }

    @classmethod
    def from_state_dict(cls, state: dict[str, Any]) -> VectorizedCountSketch:
        """Rebuild a sketch serialized by :meth:`state_dict`.

        Raises:
            ValueError: if the counter array is non-integral or its shape
                disagrees with ``depth``/``width``.
        """
        sketch = cls(state["depth"], state["width"], seed=state["seed"])
        sketch._counters = coerce_counter_array(
            state["counters"], state["depth"], state["width"]
        )
        sketch._total_weight = state["total_weight"]
        return sketch

    def __repr__(self) -> str:
        return (
            f"VectorizedCountSketch(depth={self.depth}, width={self.width}, "
            f"seed={self.seed}, total_weight={self._total_weight})"
        )
