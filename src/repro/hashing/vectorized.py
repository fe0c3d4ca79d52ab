"""Vectorized multiply-shift hashing over NumPy uint64 arrays.

The scalar polynomial family (:mod:`repro.hashing.mersenne`) is the
analysis-faithful default, but it hashes one key at a time in Python.
For batch workloads — millions of pre-encoded integer keys — this module
hashes a key array against every row at once: the per-row multipliers and
addends broadcast against the keys as a ``(depth, n)`` multiply (which
NumPy wraps mod ``2**64``, exactly the multiply-shift ring), an add, and a
shift/mod, all inside one ``np.errstate`` block.  A single-row form is
kept for the update path, which scatters row by row.

Independence caveat, documented rather than hidden: 64-bit multiply-shift
is universal but not pairwise independent in the strict sense the paper's
lemmas assume (the pair form needs 128-bit arithmetic NumPy lacks).
Empirically it is indistinguishable from the polynomial family on every
workload in this repository (the equivalence tests measure this), matching
the common practice of production sketch libraries; deployments that want
the letter of the analysis should use the scalar
:class:`~repro.core.countsketch.CountSketch`.
"""

from __future__ import annotations

import contextlib
from collections.abc import Hashable, Iterable

import numpy as np

from repro.hashing.encode import encode_key
from repro.hashing.family import seeded_rng


def encode_keys(items: Iterable[Hashable] | np.ndarray) -> np.ndarray:
    """Encode an iterable of stream items to a uint64 key array.

    Integer-dtype ndarrays are cast directly.  Other input takes a dtype
    fast path when ``set(map(type, items))`` holds only ``int``,
    ``bool``, ``np.integer`` and ``np.bool_``: one ``np.asarray`` call,
    whose 1-D int/uint/bool result is cast with ``astype(np.uint64)`` —
    the same mod-``2**64`` wrap as :func:`repro.hashing.encode.encode_key`.
    Where NumPy infers ``float64`` (negatives mixed with values
    ``>= 2**63``) or ``object`` (ints wider than 64 bits), the ints wrap
    exactly one by one.  Other types (str, bytes, float, tuple) go
    through ``encode_key`` item by item.
    """
    if isinstance(items, np.ndarray):
        if items.dtype == np.uint64:
            return items
        if items.dtype.kind in "iu":
            return items.astype(np.uint64)
    items = list(items)
    if all(issubclass(kind, (int, np.integer, np.bool_))
           for kind in set(map(type, items))):
        with contextlib.suppress(OverflowError):
            inferred = np.asarray(items)
            if inferred.ndim == 1 and inferred.dtype.kind in "iub":
                return inferred.astype(np.uint64)
        mask = (1 << 64) - 1
        return np.asarray([int(item) & mask for item in items],
                          dtype=np.uint64)
    return np.asarray([encode_key(item) for item in items], dtype=np.uint64)


class VectorizedRowHashes:
    """Per-row bucket indices and signs for key arrays, in bulk.

    One instance carries ``depth`` independent (multiplier, addend) pairs
    for the bucket hashes and another ``depth`` pairs for the sign hashes,
    all derived deterministically from ``seed``.

    Args:
        depth: number of rows.
        width: bucket count per row.
        seed: derivation seed.
    """

    def __init__(self, depth: int, width: int, seed: int = 0) -> None:
        if depth < 1:
            raise ValueError("depth must be at least 1")
        if width < 1:
            raise ValueError("width must be at least 1")
        self._depth = depth
        self._width = width
        self._seed = seed
        rng = seeded_rng(seed, "vectorized-rows")

        def draw_pairs(count: int) -> tuple[np.ndarray, np.ndarray]:
            multipliers = np.asarray(
                [rng.getrandbits(64) | 1 for _ in range(count)],
                dtype=np.uint64,
            )
            addends = np.asarray(
                [rng.getrandbits(64) for _ in range(count)], dtype=np.uint64
            )
            return multipliers, addends

        self._bucket_mult, self._bucket_add = draw_pairs(depth)
        self._sign_mult, self._sign_add = draw_pairs(depth)

    @property
    def depth(self) -> int:
        """Number of rows."""
        return self._depth

    @property
    def width(self) -> int:
        """Buckets per row."""
        return self._width

    @property
    def seed(self) -> int:
        """The derivation seed (hash identity for compatibility checks)."""
        return self._seed

    def buckets(self, keys: np.ndarray, row: int) -> np.ndarray:
        """Bucket indices in ``[0, width)`` for ``keys`` in ``row``."""
        with np.errstate(over="ignore"):
            mixed = keys * self._bucket_mult[row] + self._bucket_add[row]
        return (mixed >> np.uint64(32)).astype(np.int64) % self._width

    def signs(self, keys: np.ndarray, row: int) -> np.ndarray:
        """±1 signs for ``keys`` in ``row`` (top bit of the mix)."""
        with np.errstate(over="ignore"):
            mixed = keys * self._sign_mult[row] + self._sign_add[row]
        return 1 - 2 * (mixed >> np.uint64(63)).astype(np.int64)

    def all_rows(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Bucket indices and signs for ``keys`` in every row at once.

        Returns two fresh ``(depth, n)`` int64 arrays whose row ``i``
        equals ``buckets(keys, i)`` and ``signs(keys, i)``; callers may
        modify them in place.  The multipliers and addends broadcast
        down the rows, and every step after the first multiply runs in
        place, so the temporaries stay at two ``(depth, n)`` arrays.
        """
        with np.errstate(over="ignore"):
            buckets = keys * self._bucket_mult[:, None]
            buckets += self._bucket_add[:, None]
            signs = keys * self._sign_mult[:, None]
            signs += self._sign_add[:, None]
        # After the shifts every value fits in 32 bits, so reading the
        # words as int64 is the value-preserving cast without a copy.
        buckets >>= np.uint64(32)
        buckets = buckets.view(np.int64)
        buckets %= self._width
        signs >>= np.uint64(63)
        signs = signs.view(np.int64)
        signs *= -2
        signs += 1
        return buckets, signs

    def same_functions(self, other: VectorizedRowHashes) -> bool:
        """True iff both instances hash identically (shared randomness)."""
        return (
            isinstance(other, VectorizedRowHashes)
            and self._depth == other._depth
            and self._width == other._width
            and bool(np.array_equal(self._bucket_mult, other._bucket_mult))
            and bool(np.array_equal(self._bucket_add, other._bucket_add))
            and bool(np.array_equal(self._sign_mult, other._sign_mult))
            and bool(np.array_equal(self._sign_add, other._sign_add))
        )

    def __repr__(self) -> str:
        return (
            f"VectorizedRowHashes(depth={self._depth}, width={self._width}, "
            f"seed={self._seed})"
        )
