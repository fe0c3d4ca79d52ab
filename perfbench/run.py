"""Benchmark of the served sketch system: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload bulk_ingest --seed 1 --seconds 10 --trace 0

Workloads are ``bulk_ingest``, ``mixed_query`` and ``cluster_query``
(see ``perfbench/workloads.py``).  The generator runs in this process;
the system under test is one or two ``repro serve`` processes started
through ``perfbench/launch.py`` plus the client libraries called here.

``--trace 0`` measures the end-to-end metrics with tracing off.  Their
timings are in reference seconds: each sub-window's raw figure is scaled
by the machine-speed probe read next to it (``perfbench/probe.py``),
because the shared host's speed drifts for minutes at a time; the raw
figures are printed beside them.
``--trace 1`` runs the workload twice, untraced then traced, each for
half of ``--seconds``; it reports the per-layer metrics of the traced
half, ``trace.overhead`` (traced over untraced median op latency, both in
reference seconds) and writes every span to ``.bench_out/``.

Human-readable lines go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``,
named and in the units listed in ``BENCHMARK.json``.
A correctness failure prints ``correct: false`` and exits 1.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import math
import os
import shutil
import statistics
import sys
import time
from collections.abc import Callable
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
TMP_DIR = os.path.join(ROOT, ".bench_tmp")
SETUP_REPEATS = 9
# The generator runs on the first CPU and every server on the last one;
# left to the scheduler, the same run's latencies moved by up to a third.
CPUS = sorted(os.sched_getaffinity(0))


def reported(values: dict[str, float],
             section: str) -> dict[str, dict[str, Any]]:
    """``values`` as the result's ``metrics`` object, with the units and
    the order of the ``section`` list (``end_to_end`` or ``per_layer``)
    of ``BENCHMARK.json``, which must name exactly the computed metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        listed = {metric["name"]: metric["unit"]
                  for metric in json.load(handle)[section]}
    if set(values) != set(listed):
        raise RuntimeError(
            f"BENCHMARK.json {section} and the computed metrics differ: "
            f"not computed {sorted(set(listed) - set(values))}, "
            f"not listed {sorted(set(values) - set(listed))}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in listed.items()}


def metric_lines(name: str, metrics: dict[str, dict[str, Any]]) -> list[str]:
    return [f"{name}: {key} = {entry['value']:.6g} {entry['unit']}"
            for key, entry in metrics.items()]


async def run_phase(workload: Any, workdir: str, traced: bool, tag: str,
                    probe: Any) -> dict[str, Any]:
    """Set up ``SETUP_REPEATS`` times, measure once on the last set-up.

    Each set-up is timed between two probe readings, and its scaled time
    is the raw time times ``probe.factor`` (see ``perfbench/probe.py``).
    """
    from servers import ServerProcess
    from workloads import awake_loop

    setups: list[float] = []
    raw_setups: list[float] = []
    servers: list[ServerProcess] = []
    trace_files: list[str] = []
    try:
        for attempt in range(SETUP_REPEATS):
            last = attempt == SETUP_REPEATS - 1
            probe.measure()
            begin_ns = time.perf_counter_ns()
            servers = []
            trace_files = []
            phase_dir = os.path.join(workdir, f"{tag}-{attempt}")
            os.makedirs(phase_dir)
            for index, args in enumerate(workload.server_args(phase_dir)):
                trace_out = None
                if traced and last:
                    trace_out = os.path.join(phase_dir, f"spans{index}.json")
                    trace_files.append(trace_out)
                servers.append(ServerProcess(
                    args, phase_dir, f"server{index}", CPUS[-1], trace_out))
            await workload.connect([server.port for server in servers])
            await workload.warm()
            end_ns = time.perf_counter_ns()
            probe.measure()
            raw_setups.append((end_ns - begin_ns) / 1e9)
            setups.append(raw_setups[-1] * probe.factor(begin_ns, end_ns))
            if not last:
                await workload.shutdown()
                for server in servers:
                    server.wait()
        # The pre-generated inputs and set-up garbage are left out of the
        # collector's scans, so its pauses come from the client libraries'
        # own allocations, not from the size of the workload's schedule.
        gc.collect()
        gc.freeze()
        cpu_before = sum(server.cpu_seconds() for server in servers)
        async with awake_loop():
            measured = await workload.measure(probe)
        cpu = sum(server.cpu_seconds() for server in servers) - cpu_before
        await workload.verify()
        rss = sum(server.peak_rss_mb() for server in servers)
        await workload.shutdown()
        for server in servers:
            server.wait()
    finally:
        for server in servers:
            server.kill()
    measured.update(records=sum(op[3] for op in measured["done"]),
                    ops=len(measured["done"]))
    measured.update(setups=raw_setups, setup_s=statistics.median(setups),
                    cpu_seconds=cpu, server_rss_mb=rss,
                    trace_files=trace_files)
    return measured


def _windowed_rate(done: list[tuple[str, int, float, int]],
                   windows: list[tuple[int, int]], field: int,
                   scales: list[float]) -> float:
    """Median over sub-windows of completed ops (``field`` 0) or records
    per second, each divided by its window's time scale; failed ops
    carry an infinite latency and do not count."""
    rates = []
    for (lo, hi), scale in zip(windows, scales, strict=True):
        inside = [op for op in done if lo < op[1] <= hi and op[2] < math.inf]
        amount = len(inside) if field == 0 else sum(op[3] for op in inside)
        rates.append(amount / ((hi - lo) / 1e9) / scale)
    return statistics.median(rates)


def _windowed_pct(done: list[tuple[str, int, float, int]], kind: str,
                  windows: list[tuple[int, int]], q: float,
                  scales: list[float]) -> float:
    """Median over sub-windows of the ``q``-th latency percentile, each
    times its window's time scale (sub-windows without a sample of
    ``kind`` are skipped)."""
    from workloads import percentile

    per_window = []
    for (lo, hi), scale in zip(windows, scales, strict=True):
        samples = [op[2] for op in done if op[0] == kind and lo < op[1] <= hi]
        if samples:
            per_window.append(percentile(samples, q) * scale)
    return statistics.median(per_window)


def latencies(measured: dict[str, Any], kind: str) -> list[float]:
    return [op[2] for op in measured["done"] if op[0] == kind]


def end_to_end(measured: dict[str, Any], scale: Callable[[int, int], float],
               machine_bound_rates: bool) -> dict[str, float]:
    """The gated metrics, each sub-window's figure scaled by ``scale`` of
    its bounds (``SpeedProbe.factor`` gives reference seconds).

    A rate set by a fixed open-loop schedule is not the machine's, so it
    is left unscaled.
    """
    done = measured["done"]
    write = measured["write_windows_ns"]
    read = measured["read_windows_ns"]
    write_scales = [scale(lo, hi) for lo, hi in write]
    read_scales = [scale(lo, hi) for lo, hi in read]
    rate_scales = write_scales if machine_bound_rates else [1.0] * len(write)
    return {
        "setup_s": measured["setup_s"],
        "ingest_items_per_s": _windowed_rate(done, write, 1, rate_scales),
        "ops_per_s": _windowed_rate(done, write, 0, rate_scales),
        "ingest_ack_p50_ms": _windowed_pct(done, "ingest", write, 50,
                                           write_scales),
        "estimate_p50_ms": _windowed_pct(done, "estimate", read, 50,
                                         read_scales),
        "server_rss_mb": measured["server_rss_mb"],
    }


def summary_lines(name: str, measured: dict[str, Any],
                  metrics: dict[str, dict[str, Any]], probe: Any,
                  attempted: int, failed: int) -> list[str]:
    """Every end-to-end figure by name and unit, scaled and raw.

    The tail percentiles, the top-k latencies and the error ratio are
    printed here but left out of the JSON line: the p99s move by more
    than any usable bound between runs on a shared 2-CPU box, top-k
    exists only in mixed_query, and the error ratio is 0 on every
    healthy run (``attempted``/``failed`` carry it).
    """
    from probe import REFERENCE_MS
    from workloads import percentile

    lines = metric_lines(name, metrics)
    raw = end_to_end(measured, lambda _lo, _hi: 1.0, True)
    lines += [f"{name}: unscaled {key} = {raw[key]:.6g} {metrics[key]['unit']}"
              for key in ("ingest_items_per_s", "ops_per_s",
                          "ingest_ack_p50_ms", "estimate_p50_ms")]
    readings = [ms for _, ms in probe.readings]
    lines.append(f"{name}: probe {statistics.median(readings):.4g} ms "
                 f"median, {min(readings):.4g}-{max(readings):.4g} ms range "
                 f"over {len(readings)} readings "
                 f"(reference {REFERENCE_MS} ms)")
    lines.append(f"{name}: unscaled set-ups took "
                 + ", ".join(f"{value:.3f}" for value in measured["setups"])
                 + " s")
    lines.append(f"{name}: error_ratio = {failed / attempted:.6g} "
                 f"({failed} failed or refused of {attempted} attempted)")
    for kind, label in (("ingest", "ingest_ack"), ("estimate", "estimate"),
                        ("topk", "topk")):
        samples = latencies(measured, kind)
        if samples:
            if kind == "topk":
                lines.append(f"{name}: topk_p50_ms = "
                             f"{percentile(samples, 50):.6g} ms")
            lines.append(f"{name}: {label}_p99_ms = "
                         f"{percentile(samples, 99):.6g} ms "
                         f"({len(samples)} samples)")
    if measured.get("lag_ms"):
        lines.append(f"{name}: loadgen lag_p99_ms = "
                     f"{percentile(measured['lag_ms'], 99):.6g} ms")
    cpu = measured["cpu_seconds"]
    if measured["records"]:
        lines.append(f"{name}: server cpu_ns_per_record = "
                     f"{cpu * 1e9 / measured['records']:.6g} ns")
    lines.append(f"{name}: server cpu_us_per_op = "
                 f"{cpu * 1e6 / max(1, measured['ops']):.6g} us")
    return lines


def offline_ceilings(seed: int) -> dict[str, float]:
    """Offline ``VectorizedCountSketch`` rates on the bulk_ingest stream,
    fed a ``uint64`` array and a Python list, in this process."""
    import numpy as np
    from repro.core.vectorized import VectorizedCountSketch
    from workloads import DEPTH, SKETCH_SEED, WIDTH, BulkIngest

    keys = BulkIngest(seed, 0.0).pool_keys.ravel()
    forms = {"core.offline_array_items_per_s": keys.astype(np.uint64),
             "core.offline_list_items_per_s": keys.tolist()}
    rates: dict[str, float] = {}
    for name, form in forms.items():
        samples = []
        for _ in range(7):
            sketch = VectorizedCountSketch(DEPTH, WIDTH, seed=SKETCH_SEED)
            begin = time.perf_counter()
            sketch.update_batch(form)
            samples.append(len(keys) / (time.perf_counter() - begin))
        rates[name] = statistics.median(samples)
    return rates


def overhead(untraced: dict[str, Any], traced: dict[str, Any],
             probe: Any) -> float:
    """Traced over untraced median op latency, each in reference seconds
    (open-loop latency is from each op's due time, so it includes any
    generator lag; the mean would follow a handful of checkpoint stalls)."""
    def median_latency(measured: dict[str, Any]) -> float:
        return (statistics.median(op[2] for op in measured["done"])
                * probe.factor(*measured["window_ns"]))

    return median_latency(traced) / median_latency(untraced)


async def run(name: str, seed: int, seconds: float,
              trace: bool) -> tuple[dict[str, Any], list[str]]:
    from probe import SpeedProbe
    from workloads import WORKLOADS

    workdir = os.path.join(TMP_DIR, f"{name}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    cls = WORKLOADS[name]
    probe = SpeedProbe(CPUS[-1])
    try:
        if not trace:
            workload = cls(seed, seconds)
            measured = await run_phase(workload, workdir, False, "untraced",
                                       probe)
            metrics = reported(
                end_to_end(measured, probe.factor,
                           workload.machine_bound_rates),
                "end_to_end")
            lines = summary_lines(name, measured, metrics, probe,
                                  workload.attempted, workload.failed)
            result = {"correct": True, "attempted": workload.attempted,
                      "failed": workload.failed, "metrics": metrics}
            return result, lines
        return await run_traced(cls, name, seed, seconds, workdir, probe)
    finally:
        probe.close()
        shutil.rmtree(workdir, ignore_errors=True)


async def run_traced(cls: Any, name: str, seed: int, seconds: float,
                     workdir: str,
                     probe: Any) -> tuple[dict[str, Any], list[str]]:
    import analysis
    import tracing

    lines: list[str] = []
    half = seconds / 2.0
    plain = cls(seed, half)
    untraced = await run_phase(plain, workdir, False, "untraced", probe)
    tracer = tracing.Tracer("generator")
    tracing.install_client(tracer)
    workload = cls(seed, half)
    workload.tracer = tracer
    traced = await run_phase(workload, workdir, True, "traced", probe)
    servers = []
    for path in traced["trace_files"]:
        with open(path, encoding="utf-8") as handle:
            servers.append(json.load(handle))
    metrics, notes = analysis.layer_metrics(
        tracer, servers, traced["window_ns"], traced, traced["cpu_seconds"])
    metrics.update(offline_ceilings(seed))
    metrics["trace.overhead"] = overhead(untraced, traced, probe)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{name}-{seed}.json")
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"window_ns": traced["window_ns"],
                   "generator": {"spans": tracer.spans, "busy": tracer.busy,
                                 "missing": tracer.missing},
                   "servers": servers}, handle)
    lines.append(f"{name}: spans written to "
                 f"{os.path.relpath(spans_path, ROOT)}")
    lines += [f"{name}: trace: {note}" for note in notes]
    if name == "bulk_ingest" and metrics["trace.coverage"] < 0.9:
        lines.append(f"{name}: trace.coverage {metrics['trace.coverage']:.3f}"
                     " is below the 0.90 target")
    layers = reported(metrics, "per_layer")
    lines += metric_lines(name, layers)
    attempted = plain.attempted + workload.attempted
    failed = plain.failed + workload.failed
    result = {"correct": True, "attempted": attempted, "failed": failed,
              "metrics": layers}
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: {SRC}/repro not found; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from repro.service.client import ServiceError
    from workloads import WORKLOADS, CorrectnessError

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    os.sched_setaffinity(0, {CPUS[0]})
    try:
        result, lines = asyncio.run(
            run(args.workload, args.seed, args.seconds, bool(args.trace)))
    except (CorrectnessError, ServiceError) as error:
        print(f"{args.workload}: run failed: {type(error).__name__}: {error}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
