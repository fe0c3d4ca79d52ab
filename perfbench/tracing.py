"""Span tracing for the served-sketch benchmark, installed from outside.

Nothing under ``src/`` knows about this module.  :func:`install_server`
and :func:`install_client` replace functions and methods of the
``repro`` modules with timing wrappers, in the server process (through
``perfbench/launch.py``) and in the load-generator process.  Two record
forms exist:

* a *span* per boundary call — name, start, end, parent span and the
  wire request id where the frame has one — for calls that happen at
  most a few times per request;
* a *busy* aggregate (calls, units, nanoseconds) for per-key inner calls
  such as ``CountSketch.update``, which would drown a span list.  Busy
  time, less any span opened inside the call, is also charged to the
  enclosing span, so self times stay exact.

Spans stay in memory; :meth:`Tracer.dump` writes them when the run ends.
Besides public names the wrappers rely on two private ones: the frame
codec's ``_parse_body`` (the decode step of ``read_frame``, without the
socket wait) and the coordinator's ``_gather``.  A name that has
disappeared is skipped and listed in ``Tracer.missing``, so a refactor
degrades the trace instead of breaking the benchmark.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import re
import struct
import time
from collections.abc import Callable
from typing import Any

_CURRENT: contextvars.ContextVar[int] = contextvars.ContextVar(
    "perfbench_span", default=-1)
_JSON_ID = re.compile(rb'"id":(\d+)')
_BINARY_MAGIC = 0xB1

# Span record layout (a list while open, so the wrapper can fill in
# ``end``; a tuple once closed).
NAME, START, END, PARENT, RID, UNITS, CHILD_NS, TAG = range(8)


def frame_request_id(frame: bytes) -> int | None:
    """The request id carried by one packed request frame, if any."""
    if len(frame) > 16 and frame[4] == _BINARY_MAGIC:
        return int(struct.unpack_from("<Q", frame, 8)[0])
    match = _JSON_ID.search(frame)
    return int(match.group(1)) if match else None


class Tracer:
    """In-memory span list plus busy aggregates for one process."""

    def __init__(self, side: str) -> None:
        self.side = side
        self.spans: list[Any] = []  # open spans are lists, closed ones tuples
        self.busy: dict[str, list[int]] = {}
        self.samples: dict[str, list[float]] = {}
        self.missing: list[str] = []
        self._core_depth = 0
        self._busy_depth = 0

    # -- recording ----------------------------------------------------------

    def open(self, name: str, rid: int | None = None,
             units: int = 0, tag: str = "") -> tuple[list[Any], Any]:
        record = [name, time.perf_counter_ns(), 0, _CURRENT.get(), rid,
                  units, 0, tag]
        self.spans.append(record)
        token = _CURRENT.set(len(self.spans) - 1)
        return record, token

    def close(self, record: list[Any], token: Any) -> None:
        record[END] = time.perf_counter_ns()
        # A closed span becomes a tuple of atoms, which the cyclic garbage
        # collector stops tracking: with a few hundred thousand list
        # records each full collection stalled the process for ~100 ms.
        index = _CURRENT.get()
        if index >= 0 and self.spans[index] is record:
            self.spans[index] = tuple(record)
        _CURRENT.reset(token)

    def add_busy(self, name: str, units: int, elapsed_ns: int,
                 first_span: int) -> None:
        """Count one busy call that began when ``first_span`` spans existed."""
        entry = self.busy.get(name)
        if entry is None:
            entry = self.busy[name] = [0, 0, 0]
        entry[0] += 1
        entry[1] += units
        entry[2] += elapsed_ns
        # Only the outermost busy call is charged to the enclosing span;
        # row hashing inside a core update is already part of that update.
        # Spans opened during the call (``encode_keys`` inside a batch
        # estimate) are children of the enclosing span already, so their
        # time is left out of the charge.
        parent = _CURRENT.get()
        # A task started inside a span may outlive it; a closed (tuple)
        # span is not charged for time spent after it ended.
        if (parent >= 0 and self._busy_depth == 0
                and isinstance(self.spans[parent], list)):
            nested = sum(span[END] - span[START]
                         for span in self.spans[first_span:]
                         if span[PARENT] == parent)
            self.spans[parent][CHILD_NS] += elapsed_ns - nested

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"side": self.side, "spans": self.spans,
                       "busy": self.busy, "samples": self.samples,
                       "missing": self.missing}, handle)

    # -- wrapper factories --------------------------------------------------

    def _patch(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def span(self, owner: Any, attr: str, name: str, *,
             units: Callable[..., int] | None = None,
             rid: Callable[..., int | None] | None = None,
             tag: Callable[..., str] | None = None,
             result: Callable[[Any, list[Any]], None] | None = None) -> None:
        """Wrap ``owner.attr`` so every call records one span."""
        tracer = self

        def make(original: Any) -> Any:
            if inspect.iscoroutinefunction(original):
                async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                    record, token = tracer.open(
                        name, rid(*args, **kwargs) if rid else None,
                        units(*args, **kwargs) if units else 0,
                        tag(*args, **kwargs) if tag else "")
                    try:
                        value = await original(*args, **kwargs)
                        if result is not None:
                            result(value, record)
                        return value
                    finally:
                        tracer.close(record, token)
                return async_wrapper

            def wrapper(*args: Any, **kwargs: Any) -> Any:
                record, token = tracer.open(
                    name, rid(*args, **kwargs) if rid else None,
                    units(*args, **kwargs) if units else 0,
                    tag(*args, **kwargs) if tag else "")
                try:
                    value = original(*args, **kwargs)
                    if result is not None:
                        result(value, record)
                    return value
                finally:
                    tracer.close(record, token)
            return wrapper

        self._patch(owner, attr, make)

    def busy_call(self, owner: Any, attr: str, name: str, *,
                  units: Callable[..., int], core: bool = False) -> None:
        """Wrap a per-key inner call as a busy aggregate.

        ``core`` wrappers count only the outermost core call, so a
        ``TopKTracker.update`` is not also billed to the ``CountSketch``
        it drives.
        """
        tracer = self

        def make(original: Any) -> Any:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if core:
                    if tracer._core_depth:
                        return original(*args, **kwargs)
                    tracer._core_depth += 1
                tracer._busy_depth += 1
                first_span = len(tracer.spans)
                start = time.perf_counter_ns()
                try:
                    return original(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter_ns() - start
                    tracer._busy_depth -= 1
                    if core:
                        tracer._core_depth -= 1
                    tracer.add_busy(name, units(*args, **kwargs), elapsed,
                                    first_span)
            return wrapper

        self._patch(owner, attr, make)

    def root(self, owner: Any, attr: str) -> None:
        """Make every task running ``owner.attr`` start a fresh span tree
        (tasks copy the context of whoever created them)."""
        def make(original: Any) -> Any:
            async def wrapper(*args: Any, **kwargs: Any) -> Any:
                _CURRENT.set(-1)
                return await original(*args, **kwargs)
            return wrapper

        self._patch(owner, attr, make)


def _size(value: Any) -> int:
    try:
        return len(value)
    except TypeError:
        return 1


def _install_core(tracer: Tracer) -> None:
    """Core and hashing wrappers (both processes may run sketches)."""
    from repro.core.countsketch import CountSketch
    from repro.core.topk import TopKTracker
    from repro.core.vectorized import VectorizedCountSketch
    from repro.hashing.vectorized import VectorizedRowHashes

    def one(*_args: Any, **_kwargs: Any) -> int:
        return 1

    def batch(_self: Any, items: Any, *_rest: Any, **_kwargs: Any) -> int:
        return _size(items)

    tracer.busy_call(CountSketch, "update", "core.sketch.update",
                     units=one, core=True)
    tracer.busy_call(VectorizedCountSketch, "update",
                     "core.vectorized.update", units=one, core=True)
    tracer.busy_call(VectorizedCountSketch, "update_batch",
                     "core.vectorized.update", units=batch, core=True)
    tracer.busy_call(TopKTracker, "update", "core.topk.update",
                     units=one, core=True)
    tracer.busy_call(CountSketch, "estimate", "core.sketch.estimate",
                     units=one, core=True)
    tracer.busy_call(CountSketch, "row_values", "core.sketch.estimate",
                     units=one, core=True)
    tracer.busy_call(VectorizedCountSketch, "estimate",
                     "core.vectorized.estimate", units=one, core=True)
    tracer.busy_call(VectorizedCountSketch, "estimate_batch",
                     "core.vectorized.estimate", units=batch, core=True)
    tracer.busy_call(VectorizedCountSketch, "row_values_batch",
                     "core.vectorized.estimate", units=batch, core=True)
    tracer.busy_call(TopKTracker, "estimate", "core.topk.estimate",
                     units=one, core=True)

    def first_row_keys(_self: Any, keys: Any, row: int) -> int:
        return _size(keys) if row == 0 else 0

    tracer.busy_call(VectorizedRowHashes, "buckets", "hashing.row_hash",
                     units=first_row_keys)
    tracer.busy_call(VectorizedRowHashes, "signs", "hashing.row_hash",
                     units=lambda *_a, **_k: 0)


def _install_codec(tracer: Tracer) -> None:
    """Frame codec wrappers, shared by both sides."""
    from repro.service import protocol

    def body_tag(body: bytes) -> str:
        return "binary" if body[:1] == bytes((_BINARY_MAGIC,)) else "json"

    def body_units(value: Any, record: list[Any]) -> None:
        if record[TAG] == "binary":
            record[UNITS] = len(value)

    tracer.span(protocol, "_parse_body", "protocol.unpack",
                tag=body_tag, result=body_units)
    tracer.span(protocol, "pack_frame", "protocol.pack", tag=lambda *_: "json")


def install_server(tracer: Tracer) -> None:
    """Wrap the server-side layers: dispatch, tables, store, core."""
    from repro.service import server as server_module
    from repro.service import tables as tables_module
    from repro.service.tables import ServiceTable, TableOverloadedError
    from repro.store import checkpoint as checkpoint_module

    from repro.core import vectorized as core_vectorized

    _install_core(tracer)
    _install_codec(tracer)
    tracer.span(core_vectorized, "encode_keys", "hashing.encode_keys",
                units=lambda items, *_r: _size(items), tag=lambda *_: "server")
    tracer.span(
        server_module.SketchServer, "dispatch", "server.dispatch",
        rid=lambda _self, message: message.get("id"),
        tag=lambda _self, message: str(message.get("op")))
    tracer.span(
        server_module.SketchServer, "dispatch_binary", "server.dispatch",
        rid=lambda _self, frame: frame.request_id,
        units=lambda _self, frame: len(frame),
        tag=lambda *_: "ingest")
    tracer.span(ServiceTable, "wait_applied", "tables.barrier")
    tracer.root(ServiceTable, "run_applier")

    def items_units(_summary: Any, items: Any, *_rest: Any) -> int:
        return _size(items)

    # The tables module imported the name; the checkpoint manager looks
    # it up in its own module.  Both bindings get the same wrapper.
    tracer.span(checkpoint_module, "apply_update_batch", "store.apply",
                units=items_units)
    tables_module.apply_update_batch = checkpoint_module.apply_update_batch

    def checkpoint_bytes(value: Any, record: list[Any]) -> None:
        record[UNITS] = int(value)

    tracer.span(checkpoint_module.CheckpointManager, "flush",
                "store.checkpoint", result=checkpoint_bytes)

    original_enqueue = ServiceTable.try_enqueue

    @functools.wraps(original_enqueue)
    def try_enqueue(self: ServiceTable, items: Any, counts: Any) -> int:
        try:
            seq = original_enqueue(self, items, counts)
        except TableOverloadedError:
            tracer.sample("tables.overloads", 1.0)
            raise
        tracer.sample("tables.queue_depth", float(self.queue_depth))
        return seq

    ServiceTable.try_enqueue = try_enqueue  # type: ignore[method-assign]


def install_client(tracer: Tracer) -> None:
    """Wrap the generator-side layers: client, transport, coordinator."""
    from repro.cluster import coordinator as coordinator_module
    from repro.cluster import routing
    from repro.service import client as client_module
    from repro.service.client import AsyncServiceClient, TcpTransport

    _install_codec(tracer)
    # The client module imported pack_frame by name before wrapping.
    from repro.service import protocol
    client_module.pack_frame = protocol.pack_frame

    def keys_units(items: Any, *_rest: Any) -> int:
        return _size(items)

    for module in (client_module, coordinator_module, routing):
        tracer.span(module, "encode_keys", "hashing.encode_keys",
                    units=keys_units, tag=lambda *_: "client")

    def pack_units(_table: Any, _rid: Any, keys: Any, *_rest: Any,
                   **_kwargs: Any) -> int:
        return _size(keys)

    def frame_bytes(value: Any, record: list[Any]) -> None:
        record[TAG] = str(len(value))

    tracer.span(client_module, "pack_binary_ingest", "protocol.pack_binary",
                units=pack_units, result=frame_bytes)

    tracer.span(TcpTransport, "request_bytes", "transport.request",
                rid=lambda _self, frame: frame_request_id(frame))
    tracer.span(TcpTransport, "request_stream", "transport.stream",
                units=lambda _self, frames, **_k: len(frames))

    def records_units(_self: Any, _table: Any, records: Any,
                      **_kwargs: Any) -> int:
        return _size(records)

    def batches_units(_self: Any, _table: Any, batches: Any,
                      **_kwargs: Any) -> int:
        # Only a list can be counted without consuming the caller's input.
        if not isinstance(batches, list):
            return 0
        return sum(_size(batch) for batch in batches)

    def keys_of(_self: Any, _table: Any, items: Any) -> int:
        return _size(items)

    tracer.span(AsyncServiceClient, "ingest", "client.ingest",
                units=records_units)
    tracer.span(AsyncServiceClient, "ingest_many", "client.ingest",
                units=batches_units)
    tracer.span(AsyncServiceClient, "estimate", "client.estimate",
                units=keys_of)
    tracer.span(AsyncServiceClient, "estimate_rows", "client.estimate_rows",
                units=keys_of)
    tracer.span(AsyncServiceClient, "topk", "client.topk")

    coordinator = coordinator_module.ClusterCoordinator
    tracer.span(coordinator, "ingest", "cluster.ingest", units=records_units)
    tracer.span(coordinator, "estimate", "cluster.estimate", units=keys_of)
    tracer.span(coordinator, "_gather", "cluster.gather")
    tracer.span(coordinator_module, "partition_keys", "cluster.partition",
                units=keys_units)
