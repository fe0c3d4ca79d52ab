"""The three seeded workloads of the served-sketch benchmark.

Every workload generates its inputs from the seed before anything is
timed, drives ``repro serve`` processes through the public client
libraries, and checks its answers against an offline summary fed the
acknowledged records.  A mismatch raises :class:`CorrectnessError`.

* ``bulk_ingest`` — one producer, one connection, pipelined
  ``ingest_many`` groups into a ``vectorized`` table, in rounds that
  each end with a read-back of estimates on the quiescent table.
* ``mixed_query`` — open loop: a Poisson schedule at ``MIXED_RATE``
  ops/s over two connections and four tenant tables, with checkpoints.
* ``cluster_query`` — closed loop through one ``ClusterCoordinator``
  over two shard processes.

Each ``measure`` takes a :class:`probe.SpeedProbe` and reads it while
the servers are idle: between the rounds of the closed loops and between
the segments of the open loop's schedule.
"""

from __future__ import annotations

import asyncio
import math
import os
import time
from collections.abc import AsyncIterator, Iterator
from contextlib import asynccontextmanager, contextmanager
from typing import Any

import numpy as np
from repro.cluster.coordinator import ClusterCoordinator
from repro.core.countsketch import CountSketch
from repro.core.topk import TopKTracker
from repro.core.vectorized import VectorizedCountSketch
from repro.service.client import AsyncServiceClient, ServiceError

from probe import SpeedProbe

DEPTH = 5
WIDTH = 1 << 16
SKETCH_SEED = 7
ZIPF_S = 1.1
# Rates and latency percentiles are medians over this many sub-windows.
WINDOWS = 25

# bulk_ingest
BULK_TABLE = "bulk"
BULK_KEYS = 1 << 20
BULK_BATCH = 2048
BULK_GROUP = 8          # batches per ingest_many call
BULK_POOL = 64          # distinct batches, cycled
BULK_PROBE_KEYS = 8
BULK_READ_SHARE = 0.3   # share of each round spent reading back

# mixed_query: about a quarter of this mix's saturation throughput,
# measured at ~2.1 k ops/s over two connections on a 2-CPU box (an
# offered 3 k ops/s completed 2.1 k with latency growing for the whole
# run).  At half of saturation (1000 ops/s) queueing amplified the host's
# speed drift beyond what the probe's linear scaling removes: estimate
# p50s spread 0.28 (IQR over median) across runs, against ~0.1 here.
MIXED_RATE = 500.0
MIXED_KEYS = 1 << 16
MIXED_TABLES = (("t0", "sketch"), ("t1", "sketch"), ("t2", "vectorized"),
                ("t3", "topk"))
MIXED_TOPK_K = 20
MIXED_INGEST_RECORDS = 32
MIXED_ESTIMATE_KEYS = 8
MIXED_MIX = (0.75, 0.20, 0.05)     # ingest, estimate, topk
MIXED_CHECKPOINT_S = 2.0
MIXED_PROBE_KEYS = 64
# A run whose generator sent later than this (p99) did not offer the
# scheduled load and is refused; a healthy run lags ~1.5 ms at p99.
MIXED_LAG_LIMIT_MS = 50.0

# cluster_query
CLUSTER_TABLE = "c"
CLUSTER_KEYS = 1 << 20
CLUSTER_INGEST_RECORDS = 512
CLUSTER_ESTIMATE_KEYS = 64
CLUSTER_OPS = 4096      # distinct ops, cycled


@asynccontextmanager
async def awake_loop() -> AsyncIterator[None]:
    """Keep this process's event loop polling instead of sleeping.

    Every loop iteration then checks sockets and timers at once, so the
    generator neither waits for its own idle CPU to wake when a reply
    arrives nor sends an open-loop op up to a millisecond late (the
    selector's timeout has millisecond resolution).  Those delays belong
    to the load generator, not to the system under test, and they made
    latencies swing between runs.
    """
    running = True

    async def poll() -> None:
        while running:
            await asyncio.sleep(0)

    task = asyncio.get_running_loop().create_task(poll())
    try:
        yield
    finally:
        running = False
        await task


class CorrectnessError(Exception):
    """A served answer differs from the offline reference."""


def zipf_keys(rng: np.random.Generator, universe: int, size: int) -> np.ndarray:
    """``size`` draws of Zipf(``ZIPF_S``) ranks over ``[0, universe)``."""
    weights = np.arange(1, universe + 1, dtype=np.float64) ** -ZIPF_S
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    ranks = np.searchsorted(cdf, rng.random(size), side="right")
    return np.minimum(ranks, universe - 1).astype(np.int64)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


def table_arg(name: str, kind: str, **extra: int) -> list[str]:
    options = {"depth": DEPTH, "width": WIDTH, "seed": SKETCH_SEED, **extra}
    joined = ",".join(f"{key}={value}" for key, value in options.items())
    return ["--table", f"{name}:{kind}:{joined}"]


class Workload:
    """Shared shape: inputs from the seed, a fresh mirror per server."""

    name = ""
    # Whether completed work per second is set by the machine (a closed
    # loop) rather than by a fixed schedule (an open loop).
    machine_bound_rates = True

    def __init__(self, seed: int, seconds: float) -> None:
        self.seconds = seconds
        self.tracer: Any = None
        # Ops of the measured phase (set-up and warm-up ops are not counted).
        self.attempted = 0
        self.failed = 0

    @contextmanager
    def op(self, kind: str) -> Iterator[None]:
        """Mark one generator op as a root span when tracing."""
        if self.tracer is None:
            yield
            return
        record, token = self.tracer.open(f"op.{kind}")
        try:
            yield
        finally:
            self.tracer.close(record, token)

    def server_args(self, workdir: str) -> list[list[str]]:
        raise NotImplementedError

    async def connect(self, ports: list[int]) -> None:
        raise NotImplementedError

    async def warm(self) -> None:
        raise NotImplementedError

    async def measure(self, probe: SpeedProbe) -> dict[str, Any]:
        raise NotImplementedError

    async def verify(self) -> None:
        raise NotImplementedError

    async def shutdown(self) -> None:
        raise NotImplementedError


async def _records_applied(client: AsyncServiceClient, table: str) -> int:
    response = await client.stats(table)
    return int(response["table"]["records_applied"])


class BulkIngest(Workload):
    """Pipelined bulk ingest into one ``vectorized`` table."""

    name = "bulk_ingest"

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        rng = np.random.default_rng([seed, 1])
        keys = zipf_keys(rng, BULK_KEYS, BULK_POOL * BULK_BATCH)
        self.pool_keys = keys.reshape(BULK_POOL, BULK_BATCH)
        self.pool = [[(key, 1) for key in row]
                     for row in self.pool_keys.tolist()]
        probe = np.concatenate([
            np.arange(64, dtype=np.int64),
            rng.choice(keys, size=4096 - 64),
        ])
        rng.shuffle(probe)
        self.probes = probe.reshape(-1, BULK_PROBE_KEYS).tolist()
        self.client: AsyncServiceClient | None = None
        self.sent = np.zeros(BULK_POOL, dtype=np.int64)
        self.cursor = 0

    def server_args(self, workdir: str) -> list[list[str]]:
        return [table_arg(BULK_TABLE, "vectorized")]

    async def connect(self, ports: list[int]) -> None:
        self.client = await AsyncServiceClient.connect("127.0.0.1", ports[0])
        self.sent[:] = 0
        self.cursor = 0

    async def _send_group(self) -> int:
        assert self.client is not None
        indices = [(self.cursor + offset) % BULK_POOL
                   for offset in range(BULK_GROUP)]
        self.cursor = (self.cursor + BULK_GROUP) % BULK_POOL
        acked = await self.client.ingest_many(
            BULK_TABLE, [self.pool[index] for index in indices], wait=True)
        if acked != BULK_GROUP * BULK_BATCH:
            raise CorrectnessError(
                f"ingest_many acknowledged {acked} of "
                f"{BULK_GROUP * BULK_BATCH} records")
        for index in indices:
            self.sent[index] += 1
        return acked

    async def warm(self) -> None:
        assert self.client is not None
        await self.client.ping()
        await self._send_group()
        await self.client.estimate(BULK_TABLE, self.probes[0])

    def mirror(self) -> VectorizedCountSketch:
        sketch = VectorizedCountSketch(DEPTH, WIDTH, seed=SKETCH_SEED)
        sketch.update_batch(self.pool_keys.ravel().astype(np.uint64),
                            np.repeat(self.sent, BULK_BATCH))
        return sketch

    async def measure(self, probe: SpeedProbe) -> dict[str, Any]:
        """``WINDOWS`` rounds, each writing and then reading back, so both
        phases sample the whole run; the probe runs before each round."""
        assert self.client is not None
        done: list[tuple[str, int, float, int]] = []
        writes: list[tuple[int, int]] = []
        reads: list[tuple[int, int]] = []
        mirror = self.mirror()
        mirrored = self.sent.copy()
        pool_keys = self.pool_keys.ravel().astype(np.uint64)
        probe_keys = np.asarray(self.probes, dtype=np.uint64).ravel()
        round_ns = self.seconds * 1e9 / WINDOWS
        start = end = time.perf_counter_ns()
        index = 0
        for round_index in range(WINDOWS):
            probe.measure()
            write_start = end = time.perf_counter_ns()
            deadline = start + int(
                round_ns * (round_index + 1 - BULK_READ_SHARE))
            while end < deadline:
                begin = time.perf_counter_ns()
                self.attempted += 1
                with self.op("ingest"):
                    records = await self._send_group()
                end = time.perf_counter_ns()
                done.append(("ingest", end, (end - begin) / 1e6, records))
            writes.append((write_start, end))
            # The reference catches up between the phases, outside both
            # clocks (integer counters are linear, so one batch suffices).
            mirror.update_batch(pool_keys,
                                np.repeat(self.sent - mirrored, BULK_BATCH))
            mirrored = self.sent.copy()
            expected = mirror.estimate_batch(probe_keys).reshape(
                len(self.probes), BULK_PROBE_KEYS).tolist()
            read_start = end = time.perf_counter_ns()
            deadline = start + int(round_ns * (round_index + 1))
            while end < deadline:
                keys = self.probes[index % len(self.probes)]
                begin = time.perf_counter_ns()
                self.attempted += 1
                with self.op("estimate"):
                    served = await self.client.estimate(BULK_TABLE, keys)
                end = time.perf_counter_ns()
                done.append(("estimate", end, (end - begin) / 1e6, 0))
                if served != expected[index % len(self.probes)]:
                    raise CorrectnessError(
                        f"estimates for {keys} differ from the offline "
                        f"sketch: {served} != "
                        f"{expected[index % len(self.probes)]}")
                index += 1
            reads.append((read_start, end))
        probe.measure()
        return {
            "window_ns": (start, end),
            "write_windows_ns": writes,
            "read_windows_ns": reads,
            "done": done,
        }

    async def verify(self) -> None:
        assert self.client is not None
        applied = await _records_applied(self.client, BULK_TABLE)
        acknowledged = int(self.sent.sum()) * BULK_BATCH
        if applied != acknowledged:
            raise CorrectnessError(
                f"records_applied {applied} != acknowledged {acknowledged}")

    async def shutdown(self) -> None:
        assert self.client is not None
        await self.client.shutdown()
        await self.client.close()


class MixedQuery(Workload):
    """Open-loop multi-tenant traffic with reads, writes and snapshots."""

    name = "mixed_query"
    machine_bound_rates = False

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        rng = np.random.default_rng([seed, 2])
        count = int(MIXED_RATE * seconds)
        self.due_s = np.cumsum(rng.exponential(1.0 / MIXED_RATE, count))
        kinds = rng.choice(3, size=count, p=MIXED_MIX)
        tables = rng.integers(0, len(MIXED_TABLES), size=count)
        tables[kinds == 2] = len(MIXED_TABLES) - 1
        sizes = np.where(kinds == 0, MIXED_INGEST_RECORDS,
                         np.where(kinds == 1, MIXED_ESTIMATE_KEYS, 0))
        keys = zipf_keys(rng, MIXED_KEYS, int(sizes.sum())).tolist()
        self.ops: list[tuple[int, str, list[int]]] = []
        offset = 0
        for kind, table, size in zip(kinds.tolist(), tables.tolist(),
                                     sizes.tolist(), strict=True):
            self.ops.append((kind, MIXED_TABLES[table][0],
                             keys[offset:offset + size]))
            offset += size
        self.probes = sorted(set(range(16)) | set(
            zipf_keys(rng, MIXED_KEYS, MIXED_PROBE_KEYS).tolist()))
        self.clients: list[AsyncServiceClient] = []
        self.acked: dict[str, list[tuple[int, list[int]]]] = {}
        per_table = MIXED_RATE * MIXED_MIX[0] * MIXED_INGEST_RECORDS
        self.checkpoint_every = int(
            per_table / len(MIXED_TABLES) * MIXED_CHECKPOINT_S)

    def server_args(self, workdir: str) -> list[list[str]]:
        args = ["--checkpoint-dir",
                os.path.join(workdir, "checkpoints"),
                "--checkpoint-every", str(self.checkpoint_every)]
        for name, kind in MIXED_TABLES:
            extra = {"k": MIXED_TOPK_K} if kind == "topk" else {}
            args += table_arg(name, kind, **extra)
        return [args]

    async def connect(self, ports: list[int]) -> None:
        self.clients = [
            await AsyncServiceClient.connect("127.0.0.1", ports[0])
            for _ in range(2)
        ]
        self.acked = {name: [] for name, _ in MIXED_TABLES}

    async def _ingest(self, client: AsyncServiceClient, table: str,
                      keys: list[int]) -> None:
        seq = await client.ingest(table, [(key, 1) for key in keys])
        self.acked[table].append((seq, keys))

    async def warm(self) -> None:
        warm_keys = list(range(MIXED_INGEST_RECORDS))
        for client in self.clients:
            await client.ping()
            for name, _ in MIXED_TABLES:
                await self._ingest(client, name, warm_keys)
                await client.estimate(name, warm_keys[:MIXED_ESTIMATE_KEYS])
            await client.topk(MIXED_TABLES[-1][0])

    async def measure(self, probe: SpeedProbe) -> dict[str, Any]:
        done: list[tuple[str, int, float, int]] = []
        lag_ms: list[float] = []
        topk_table = MIXED_TABLES[-1][0]

        async def fire(index: int, due_ns: int) -> None:
            kind, table, keys = self.ops[index]
            client = self.clients[index % len(self.clients)]
            lag_ms.append((time.perf_counter_ns() - due_ns) / 1e6)
            name = ("ingest", "estimate", "topk")[kind]
            try:
                with self.op(name):
                    if kind == 0:
                        await self._ingest(client, table, keys)
                    elif kind == 1:
                        await client.estimate(table, keys)
                    else:
                        await client.topk(topk_table)
            except ServiceError:
                # A failed or refused op misses every latency limit.
                self.failed += 1
                done.append((name, time.perf_counter_ns(), math.inf, 0))
                return
            end = time.perf_counter_ns()
            done.append((name, end, (end - due_ns) / 1e6,
                         len(keys) if kind == 0 else 0))

        # The schedule runs in ``WINDOWS`` segments; between two segments
        # every op has completed and the probe reads the idle machine.
        # Due times within a segment keep the schedule's spacing.
        loop = asyncio.get_running_loop()
        windows: list[tuple[int, int]] = []
        due_s = self.due_s.tolist()
        segment_s = self.seconds / WINDOWS
        index = 0
        start = time.perf_counter_ns()
        for segment in range(WINDOWS):
            probe.measure()
            tasks = []
            offset = segment * segment_s
            segment_start = time.perf_counter_ns()
            while index < len(due_s) and (due_s[index] < offset + segment_s
                                          or segment == WINDOWS - 1):
                due_ns = segment_start + int((due_s[index] - offset) * 1e9)
                delay = (due_ns - time.perf_counter_ns()) / 1e9
                if delay > 0:
                    await asyncio.sleep(delay)
                self.attempted += 1
                tasks.append(loop.create_task(fire(index, due_ns)))
                index += 1
            await asyncio.gather(*tasks)
            end = time.perf_counter_ns()
            windows.append((segment_start, end))
        probe.measure()
        lag_p99 = percentile(lag_ms, 99)
        if lag_p99 > MIXED_LAG_LIMIT_MS:
            raise CorrectnessError(
                f"generator fell behind its schedule: lag p99 "
                f"{lag_p99:.1f} ms > {MIXED_LAG_LIMIT_MS} ms")
        return {
            "window_ns": (start, end),
            "write_windows_ns": windows,
            "read_windows_ns": windows,
            "done": done,
            "lag_ms": lag_ms,
        }

    def mirror(self, name: str, kind: str) -> Any:
        summary: Any
        if kind == "sketch":
            summary = CountSketch(DEPTH, WIDTH, seed=SKETCH_SEED)
        elif kind == "vectorized":
            summary = VectorizedCountSketch(DEPTH, WIDTH, seed=SKETCH_SEED)
        else:
            summary = TopKTracker(MIXED_TOPK_K, depth=DEPTH, width=WIDTH,
                                  seed=SKETCH_SEED)
        # The server applies one table's batches in sequence order.
        for _, keys in sorted(self.acked[name], key=lambda entry: entry[0]):
            if kind == "vectorized":
                summary.update_batch(np.asarray(keys, dtype=np.uint64))
            else:
                for key in keys:
                    summary.update(key, 1)
        return summary

    async def verify(self) -> None:
        client = self.clients[0]
        for name, kind in MIXED_TABLES:
            acknowledged = sum(len(keys) for _, keys in self.acked[name])
            applied = await _records_applied(client, name)
            if applied != acknowledged:
                raise CorrectnessError(
                    f"table {name}: records_applied {applied} != "
                    f"acknowledged {acknowledged}")
            mirror = self.mirror(name, kind)
            served = await client.estimate(name, self.probes)
            expected = [float(mirror.estimate(key)) for key in self.probes]
            if served != expected:
                raise CorrectnessError(
                    f"table {name}: served estimates differ from the "
                    "offline summary")
            if kind == "topk":
                top = await client.topk(name)
                if top != [(item, float(count)) for item, count in mirror.top()]:
                    raise CorrectnessError(
                        f"table {name}: served top-k differs from the "
                        "offline tracker")

    async def shutdown(self) -> None:
        await self.clients[0].shutdown()
        for client in self.clients:
            await client.close()


class ClusterQuery(Workload):
    """Closed loop, one op in flight, through a two-shard coordinator."""

    name = "cluster_query"

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        rng = np.random.default_rng([seed, 3])
        is_ingest = rng.random(CLUSTER_OPS) < 0.5
        sizes = np.where(is_ingest, CLUSTER_INGEST_RECORDS,
                         CLUSTER_ESTIMATE_KEYS)
        keys = zipf_keys(rng, CLUSTER_KEYS, int(sizes.sum()))
        self.ops: list[tuple[bool, list[int], Any]] = []
        offset = 0
        for ingest, size in zip(is_ingest.tolist(), sizes.tolist(),
                                strict=True):
            chunk = keys[offset:offset + size]
            offset += size
            payload: Any = ([(key, 1) for key in chunk.tolist()]
                            if ingest else chunk.tolist())
            self.ops.append((ingest, chunk.tolist(), payload))
        self.coordinator: ClusterCoordinator | None = None
        self.log: list[tuple[bool, int, list[float] | None]] = []

    def server_args(self, workdir: str) -> list[list[str]]:
        return [table_arg(CLUSTER_TABLE, "vectorized") for _ in range(2)]

    async def connect(self, ports: list[int]) -> None:
        self.coordinator = await ClusterCoordinator.connect(
            [("127.0.0.1", port) for port in ports])
        self.log = []

    async def _run_op(self, index: int) -> bool:
        assert self.coordinator is not None
        ingest, _, payload = self.ops[index % CLUSTER_OPS]
        if ingest:
            await self.coordinator.ingest(CLUSTER_TABLE, payload)
            self.log.append((True, index % CLUSTER_OPS, None))
        else:
            answer = await self.coordinator.estimate(CLUSTER_TABLE, payload)
            self.log.append((False, index % CLUSTER_OPS, answer))
        return ingest

    async def warm(self) -> None:
        assert self.coordinator is not None
        await self.coordinator.ping()
        for index in range(8):
            await self._run_op(index)

    async def measure(self, probe: SpeedProbe) -> dict[str, Any]:
        """``WINDOWS`` rounds of the closed loop; the probe runs before
        each round."""
        done: list[tuple[str, int, float, int]] = []
        windows: list[tuple[int, int]] = []
        start = time.perf_counter_ns()
        round_ns = self.seconds * 1e9 / WINDOWS
        index = 8
        for round_index in range(WINDOWS):
            probe.measure()
            round_start = end = time.perf_counter_ns()
            deadline = start + int(round_ns * (round_index + 1))
            while end < deadline:
                begin = time.perf_counter_ns()
                name = ("ingest" if self.ops[index % CLUSTER_OPS][0]
                        else "estimate")
                self.attempted += 1
                with self.op(name):
                    await self._run_op(index)
                end = time.perf_counter_ns()
                done.append((name, end, (end - begin) / 1e6,
                             CLUSTER_INGEST_RECORDS if name == "ingest"
                             else 0))
                index += 1
            windows.append((round_start, end))
        probe.measure()
        return {
            "window_ns": (start, end),
            "write_windows_ns": windows,
            "read_windows_ns": windows,
            "done": done,
        }

    async def verify(self) -> None:
        assert self.coordinator is not None
        # Replay the log: each estimate must equal one offline sketch fed
        # every record acknowledged before it (one op was in flight).
        mirror = VectorizedCountSketch(DEPTH, WIDTH, seed=SKETCH_SEED)
        acknowledged = 0
        for ingest, index, answer in self.log:
            keys = np.asarray(self.ops[index][1], dtype=np.uint64)
            if ingest:
                mirror.update_batch(keys)
                acknowledged += keys.size
            elif answer != mirror.estimate_batch(keys).tolist():
                raise CorrectnessError(
                    "a coordinator estimate differs from the offline sketch")
        applied = 0
        for client in self.coordinator.clients:
            applied += await _records_applied(client, CLUSTER_TABLE)
        if applied != acknowledged:
            raise CorrectnessError(
                f"records_applied {applied} != acknowledged {acknowledged}")

    async def shutdown(self) -> None:
        assert self.coordinator is not None
        await self.coordinator.shutdown()
        await self.coordinator.close()


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (BulkIngest, MixedQuery, ClusterQuery)
}
