"""Per-layer metrics from the spans of one traced phase.

Inputs are the generator's :class:`tracing.Tracer` and the span dumps
the traced servers wrote at exit, restricted to the measured window.
Both processes stamp spans with ``time.perf_counter_ns``, which is the
system-wide monotonic clock on Linux, so intervals compare across them.

Self time is span time minus child-span time minus busy time charged by
per-key inner calls.  A metric whose layer the workload does not reach
reads 0.
"""

from __future__ import annotations

import bisect
from typing import Any

from tracing import CHILD_NS, END, NAME, PARENT, RID, START, TAG, UNITS
from workloads import percentile

# Server spans whose union is "the server was busy".
_SERVER_WORK = ("protocol.unpack", "protocol.pack", "server.dispatch",
                "store.apply", "store.checkpoint")
_CLIENT_LAYERS = ("hashing.encode_keys", "protocol.pack", "protocol.unpack",
                  "protocol.pack_binary", "cluster.partition")


def _pct(values: list[float], q: float) -> float:
    return float(percentile(values, q)) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class SpanSet:
    """One process's spans inside the window, with child bookkeeping."""

    def __init__(self, spans: list[list[Any]], window: tuple[int, int]) -> None:
        self.all = spans
        start, end = window
        self.inside = [i for i, span in enumerate(spans)
                       if span[START] >= start and span[END] <= end
                       and span[END] > 0]
        self.children: dict[int, list[int]] = {}
        for index, span in enumerate(spans):
            if span[PARENT] >= 0:
                self.children.setdefault(span[PARENT], []).append(index)

    def named(self, name: str) -> list[list[Any]]:
        return [self.all[i] for i in self.inside if self.all[i][NAME] == name]

    def indices(self, name: str) -> list[int]:
        return [i for i in self.inside if self.all[i][NAME] == name]

    def duration(self, index: int) -> int:
        span = self.all[index]
        return span[END] - span[START]

    def self_ns(self, index: int) -> int:
        child = sum(self.duration(c) for c in self.children.get(index, ()))
        return self.duration(index) - child - self.all[index][CHILD_NS]

    def descendants(self, index: int) -> list[int]:
        found: list[int] = []
        stack = list(self.children.get(index, ()))
        while stack:
            current = stack.pop()
            found.append(current)
            stack.extend(self.children.get(current, ()))
        return found


def _merge(intervals: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Sorted, disjoint union of ``intervals``."""
    merged: list[tuple[int, int]] = []
    for a, b in sorted(intervals):
        if merged and a <= merged[-1][1]:
            if b > merged[-1][1]:
                merged[-1] = (merged[-1][0], b)
        else:
            merged.append((a, b))
    return merged


def _length(merged: list[tuple[int, int]]) -> int:
    return sum(b - a for a, b in merged)


def _overlap(left: list[tuple[int, int]], right: list[tuple[int, int]]) -> int:
    """Length of the intersection of two merged interval lists."""
    total = i = j = 0
    while i < len(left) and j < len(right):
        lo = max(left[i][0], right[j][0])
        hi = min(left[i][1], right[j][1])
        if hi > lo:
            total += hi - lo
        if left[i][1] < right[j][1]:
            i += 1
        else:
            j += 1
    return total


def _matched(dispatch_by_rid: dict[int, list[list[Any]]],
             span: list[Any]) -> list[Any] | None:
    """The server dispatch of the request a client transport span sent:
    same request id, inside the span (ids repeat across connections)."""
    for candidate in dispatch_by_rid.get(span[RID], ()):
        if candidate[START] >= span[START] and candidate[END] <= span[END]:
            return candidate
    return None


def _busy(dumps: list[dict[str, Any]], name: str) -> tuple[int, int]:
    units = elapsed = 0
    for dump in dumps:
        entry = dump["busy"].get(name)
        if entry:
            units += entry[1]
            elapsed += entry[2]
    return units, elapsed


def layer_metrics(client: Any, servers: list[dict[str, Any]],
                  window: tuple[int, int], measured: dict[str, Any],
                  cpu_seconds: float) -> tuple[dict[str, float], list[str]]:
    """Compute the per-layer metrics of the traced phase (all but the
    offline ceilings and ``trace.overhead``, which :mod:`run` adds);
    also return explanatory notes."""
    out: dict[str, float] = {}
    notes: list[str] = []
    cside = SpanSet(client.spans, window)
    sides = [SpanSet(dump["spans"], window) for dump in servers]

    def server_spans(name: str) -> list[list[Any]]:
        return [span for side in sides for span in side.named(name)]

    def per_unit(spans: list[list[Any]]) -> float:
        units = sum(span[UNITS] for span in spans)
        elapsed = sum(span[END] - span[START] for span in spans)
        return _ratio(elapsed, units)

    # -- service.client -------------------------------------------------
    prep = 0
    prep_records = 0
    for index in cside.indices("client.ingest"):
        transport = [
            (cside.all[c][START], cside.all[c][END])
            for c in cside.descendants(index)
            if cside.all[c][NAME].startswith("transport.")]
        prep += cside.duration(index) - _length(_merge(transport))
        prep_records += cside.all[index][UNITS]
    out["service.client.prep_ns_per_record"] = _ratio(prep, prep_records)

    dispatch_by_rid: dict[int, list[list[Any]]] = {}
    for side in sides:
        for span in side.named("server.dispatch"):
            if span[RID] is not None:
                dispatch_by_rid.setdefault(int(span[RID]), []).append(span)

    waits = []
    for span in cside.named("transport.request"):
        if span[RID] is None:
            continue
        match = _matched(dispatch_by_rid, span)
        if match is not None:
            waits.append(((span[END] - span[START])
                          - (match[END] - match[START])) / 1e6)
    out["service.client.request_wait_ms_p50"] = _pct(waits, 50)
    out["service.client.request_wait_ms_p99"] = _pct(waits, 99)

    # -- hashing -------------------------------------------------------------
    encode = cside.named("hashing.encode_keys")
    out["hashing.encode_keys_ns_per_key.client"] = per_unit(encode)
    out["hashing.encode_keys_ns_per_key.server"] = per_unit(
        server_spans("hashing.encode_keys"))
    units, elapsed = _busy(servers, "hashing.row_hash")
    out["hashing.row_hash_ns_per_key"] = _ratio(elapsed, units)

    # -- service.protocol --------------------------------------------------
    packed = cside.named("protocol.pack_binary")
    out["service.protocol.pack_ns_per_record"] = per_unit(packed)
    out["service.protocol.bytes_per_record"] = _ratio(
        sum(int(span[TAG]) for span in packed),
        sum(span[UNITS] for span in packed))
    out["service.protocol.unpack_ns_per_record"] = per_unit(
        [span for span in server_spans("protocol.unpack")
         if span[TAG] == "binary"])
    json_frames = [
        span for span in cside.named("protocol.pack")
        + cside.named("protocol.unpack")
        + server_spans("protocol.pack") + server_spans("protocol.unpack")
        if span[TAG] == "json"]
    out["service.protocol.json_us_per_frame"] = _ratio(
        sum(span[END] - span[START] for span in json_frames),
        len(json_frames)) / 1e3

    # -- core ----------------------------------------------------------------
    for kind in ("sketch", "vectorized", "topk"):
        units, elapsed = _busy(servers, f"core.{kind}.update")
        out[f"core.{kind}.update_ns_per_record"] = _ratio(elapsed, units)
        units, elapsed = _busy(servers, f"core.{kind}.estimate")
        out[f"core.{kind}.estimate_us_per_key"] = _ratio(elapsed, units) / 1e3

    # -- store ---------------------------------------------------------------
    applies = server_spans("store.apply")
    out["store.apply_ns_per_record"] = per_unit(applies)
    checkpoints = server_spans("store.checkpoint")
    checkpoint_ms = [(span[END] - span[START]) / 1e6 for span in checkpoints]
    out["store.checkpoints"] = float(len(checkpoints))
    out["store.checkpoint_ms_p50"] = _pct(checkpoint_ms, 50)
    out["store.checkpoint_ms_max"] = max(checkpoint_ms, default=0.0)
    out["store.checkpoint_bytes"] = _pct(
        [float(span[UNITS]) for span in checkpoints], 50)

    # -- service.tables ----------------------------------------------------
    out["service.tables.apply_cycles"] = float(len(applies))
    out["service.tables.records_per_apply"] = _ratio(
        sum(span[UNITS] for span in applies), len(applies))
    barrier_ms = [(span[END] - span[START]) / 1e6
                  for span in server_spans("tables.barrier")]
    out["service.tables.barrier_wait_ms_p50"] = _pct(barrier_ms, 50)
    out["service.tables.barrier_wait_ms_p99"] = _pct(barrier_ms, 99)
    estimate_barrier = 0
    for side in sides:
        for index in side.indices("server.dispatch"):
            if side.all[index][TAG] in ("estimate", "estimate_rows"):
                estimate_barrier += sum(
                    side.duration(c) for c in side.children.get(index, ())
                    if side.all[c][NAME] == "tables.barrier")
    estimate_latency = sum(span[END] - span[START]
                           for span in cside.named("op.estimate"))
    out["service.tables.barrier_share"] = _ratio(estimate_barrier,
                                                 estimate_latency)
    depths = [value for dump in servers
              for value in dump["samples"].get("tables.queue_depth", ())]
    out["service.tables.queue_depth_max"] = max(depths, default=0.0)
    out["service.tables.overloads"] = float(sum(
        len(dump["samples"].get("tables.overloads", ())) for dump in servers))

    # -- service.server ----------------------------------------------------
    for op in ("ingest", "estimate", "estimate_rows", "topk"):
        selfs = [side.self_ns(index) / 1e3 for side in sides
                 for index in side.indices("server.dispatch")
                 if side.all[index][TAG] == op]
        out[f"service.server.dispatch_self_us_p50.{op}"] = _pct(selfs, 50)
    out["service.server.cpu_ns_per_record"] = _ratio(
        cpu_seconds * 1e9, measured["records"])
    out["service.server.cpu_us_per_op"] = _ratio(cpu_seconds * 1e6,
                                                 measured["ops"])

    # -- cluster -------------------------------------------------------------
    out["cluster.partition_ns_per_key"] = per_unit(
        cside.named("cluster.partition"))
    gathers = cside.indices("cluster.gather")
    out["cluster.scatter_ms_p50"] = _pct(
        [cside.duration(index) / 1e6 for index in gathers], 50)
    skews = []
    for index in gathers:
        ends = [cside.all[c][END] for c in cside.children.get(index, ())
                if cside.all[c][NAME].startswith("client.")]
        if len(ends) > 1:
            skews.append((max(ends) - min(ends)) / 1e6)
    out["cluster.shard_skew_ms_p99"] = _pct(skews, 99)
    merge_ns = merge_keys = 0
    for index in cside.indices("cluster.estimate"):
        inner = [c for c in cside.descendants(index)
                 if cside.all[c][NAME] == "cluster.gather"]
        if inner:
            merge_ns += cside.all[index][END] - max(
                cside.all[c][END] for c in inner)
            merge_keys += cside.all[index][UNITS]
    out["cluster.merge_us_per_key"] = _ratio(merge_ns, merge_keys) / 1e3

    # -- benchmark level -------------------------------------------------
    out["loadgen.lag_p99_ms"] = _pct(measured.get("lag_ms", []), 99)
    coverage, remainder = _coverage(cside, sides, dispatch_by_rid)
    out["trace.coverage"] = coverage
    if remainder:
        notes.append(
            "largest unexplained remainder: " + ", ".join(
                f"{name} {share:.1%}" for name, share in remainder))
    missing = sorted(set(client.missing).union(
        *[dump["missing"] for dump in servers]))
    if missing:
        notes.append("wrappers skipped (names not found): "
                     + ", ".join(missing))
    return out, notes


def _coverage(cside: SpanSet, sides: list[SpanSet],
              dispatch_by_rid: dict[int, list[list[Any]]],
              ) -> tuple[float, list[tuple[str, float]]]:
    """Share of generator op time explained by named layer time.

    Per root op, the explained time is the union of the generator's
    layer spans (key encoding, frame pack/unpack, routing), of every
    transport span whose request was matched to a server dispatch (that
    time splits into dispatch and request wait), and, for pipelined
    transport spans, of the server spans doing work inside them.  The
    rest is either client code outside any layer span, or transport time
    with no server span running (kernel, socket, event-loop wake-ups).
    """
    work = _merge([(span[START], span[END]) for side in sides
                   for name in _SERVER_WORK for span in side.named(name)])
    work_starts = [a for a, _ in work]
    total = explained = outside = idle = 0
    for index in cside.inside:
        op = cside.all[index]
        if not op[NAME].startswith("op.") or op[PARENT] >= 0:
            continue
        covered: list[tuple[int, int]] = []
        transport: list[tuple[int, int]] = []
        for child in cside.descendants(index):
            span = cside.all[child]
            interval = (span[START], span[END])
            if span[NAME] in _CLIENT_LAYERS:
                covered.append(interval)
            elif span[NAME].startswith("transport."):
                transport.append(interval)
                if _matched(dispatch_by_rid, span) is not None:
                    covered.append(interval)
                    continue
                first = max(0, bisect.bisect_right(work_starts, span[START]) - 1)
                last = bisect.bisect_left(work_starts, span[END])
                covered.extend(
                    (max(a, span[START]), min(b, span[END]))
                    for a, b in work[first:last]
                    if b > span[START])
        merged = _merge([(max(a, op[START]), min(b, op[END]))
                         for a, b in covered if b > a])
        transport_merged = _merge(transport)
        span_ns = op[END] - op[START]
        explained_ns = _length(merged)
        idle_ns = _length(transport_merged) - _overlap(transport_merged, merged)
        total += span_ns
        explained += explained_ns
        idle += idle_ns
        outside += span_ns - explained_ns - idle_ns
    if not total:
        return 0.0, []
    remainder = max(
        ("client code outside layer spans", outside / total),
        ("transport with no server span running", idle / total),
        key=lambda entry: entry[1])
    return explained / total, [remainder]
