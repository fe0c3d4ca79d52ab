"""BENCH — batched vectorized estimates against the per-row loop.

``VectorizedCountSketch.estimate_batch`` hashes every row in one
depth-broadcast, gathers the counters once and takes the median by
sort-and-pick.  This bench times it at several batch sizes against
``per_row_estimate`` below — the per-row loop it replaced (one hash
pair and one gather per row, then ``np.median``) — and against one
``estimate`` call per key, the path a served request used to take.
Every timed answer is first checked byte-for-byte against the loop's.

``--gate`` asserts that at the largest batch the broadcast path costs
at most ``GATE_RATIO`` times the per-row loop per key: the broadcast's
``(depth, n)`` temporaries must not fall out of cache badly enough to
lose the gain it makes on small batches.

Emits ``benchmarks/out/BENCH_estimate.json``.

Run::

    PYTHONPATH=src python benchmarks/bench_estimate.py          # full
    PYTHONPATH=src python benchmarks/bench_estimate.py --gate   # bound
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections.abc import Callable
from pathlib import Path

import numpy as np

from repro.core.vectorized import VectorizedCountSketch
from repro.hashing.vectorized import VectorizedRowHashes

OUT_PATH = Path(__file__).parent / "out" / "BENCH_estimate.json"

DEPTH = 5
WIDTH = 1 << 16
SEED = 1
STREAM = 500_000
BATCHES = (1, 8, 64, 2048, 65536)
PER_KEY_BATCHES = (1, 8, 64)
GATE_RATIO = 1.05


def per_row_estimate(hashes: VectorizedRowHashes, counters: np.ndarray,
                     keys: np.ndarray) -> np.ndarray:
    """The reference: one hash pair and one gather per row, then median."""
    rows = np.empty((hashes.depth, keys.size), dtype=np.float64)
    for row in range(hashes.depth):
        buckets = hashes.buckets(keys, row)
        rows[row] = counters[row, buckets] * hashes.signs(keys, row)
    return np.median(rows, axis=0)


def best_ns_per_key(candidates: dict[str, Callable[[], object]], keys: int,
                    repeats: int) -> dict[str, float]:
    """Best of ``repeats`` timings per candidate, each over enough calls
    for ~20k keys; the candidates take turns so host-speed drift hits
    all of them alike."""
    calls = max(1, 20_000 // keys)
    best = dict.fromkeys(candidates, float("inf"))
    for _ in range(repeats):
        for name, fn in candidates.items():
            start = time.perf_counter_ns()
            for _ in range(calls):
                fn()
            elapsed = (time.perf_counter_ns() - start) / calls / keys
            best[name] = min(best[name], elapsed)
    return best


def measure(sketch: VectorizedCountSketch, hashes: VectorizedRowHashes,
            keys: np.ndarray, repeats: int) -> dict[str, float]:
    """Check then time every candidate on one batch of ``keys``."""
    expected = per_row_estimate(hashes, sketch.counters, keys)
    if sketch.estimate_batch(keys).tobytes() != expected.tobytes():
        raise AssertionError(f"batch estimate differs at n={keys.size}")
    candidates: dict[str, Callable[[], object]] = {
        "per_row_ns": lambda: per_row_estimate(hashes, sketch.counters, keys),
        "batch_ns": lambda: sketch.estimate_batch(keys),
    }
    if keys.size in PER_KEY_BATCHES:
        items = keys.tolist()
        if [sketch.estimate(item) for item in items] != expected.tolist():
            raise AssertionError(f"per-key estimate differs at n={keys.size}")
        candidates["per_key_ns"] = lambda: [
            sketch.estimate(item) for item in items]
    row: dict[str, float] = {"keys": keys.size}
    row.update(best_ns_per_key(candidates, keys.size, repeats))
    row["ratio"] = row["batch_ns"] / row["per_row_ns"]
    return row


def run(repeats: int) -> list[dict[str, float]]:
    rng = np.random.default_rng(SEED)
    sketch = VectorizedCountSketch(DEPTH, WIDTH, seed=SEED)
    sketch.update_batch(
        rng.integers(0, 1 << 20, STREAM, dtype=np.uint64))
    # Equal (depth, width, seed) means the sketch's own hash functions.
    hashes = VectorizedRowHashes(DEPTH, WIDTH, SEED)
    return [
        measure(sketch, hashes,
                rng.integers(0, 1 << 20, size, dtype=np.uint64), repeats)
        for size in BATCHES
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--gate", action="store_true",
                        help=f"fail unless batch/per-row <= {GATE_RATIO} "
                             f"at {BATCHES[-1]} keys")
    args = parser.parse_args(argv)
    rows = run(args.repeats)
    print(f"{'keys':>6} {'per-key':>10} {'per-row':>10} {'batch':>10} "
          f"{'batch/per-row':>14}  (ns per key, best of {args.repeats})")
    for row in rows:
        per_key = row.get("per_key_ns")
        print(f"{row['keys']:>6} "
              f"{'-' if per_key is None else f'{per_key:.0f}':>10} "
              f"{row['per_row_ns']:>10.0f} {row['batch_ns']:>10.0f} "
              f"{row['ratio']:>14.2f}")
    OUT_PATH.parent.mkdir(parents=True, exist_ok=True)
    OUT_PATH.write_text(json.dumps(
        {"depth": DEPTH, "width": WIDTH, "rows": rows}, indent=2) + "\n")
    if args.gate and rows[-1]["ratio"] > GATE_RATIO:
        print(f"GATE FAILED: batch/per-row {rows[-1]['ratio']:.3f} > "
              f"{GATE_RATIO} at {rows[-1]['keys']} keys", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
