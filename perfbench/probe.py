"""Machine-speed probe: how fast the machine runs right now.

The benchmark shares a host whose speed drifts for minutes at a time: a
fixed pure-Python loop takes anywhere from ~1.0x to ~1.8x its best time,
and every served timing moves with it (run-to-run correlation -0.95 to
-0.99 between a closed-loop throughput and the probe).  A 30 s run
cannot average over that drift, so the gated timings are reported in
*reference seconds*: each raw timing is scaled by ``REFERENCE_MS`` over
the probe duration measured next to it.  The probe is benchmark code
only, runs while the system under test is idle, and knows nothing of the
program, so a slower or faster program moves the scaled figures exactly
as it moves the raw ones.

The probe times the same loop at once on the generator's CPU (in this
process) and on the servers' CPU (in a helper process started by
:class:`SpeedProbe`), and reports the mean of the two.

Usage of the helper (started by :class:`SpeedProbe`, not by hand)::

    python3 perfbench/probe.py CPU
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

# The probe duration, in milliseconds, that scaled timings are expressed
# against: about the loop's time on a 2-vCPU Xeon (Sapphire Rapids class)
# KVM guest when its host is quiet (2.7-4.6 ms as the host load varies).
REFERENCE_MS = 3.0
# Spins per reading.  Host contention comes in bursts shorter than a
# spin and the workload pays for them, so a reading is the mean of the
# spins, not the fastest.
_REPEATS = 5


def spin() -> float:
    """One pass of the fixed loop (integer arithmetic, a small dict and
    calls), in milliseconds."""
    begin = time.perf_counter_ns()
    table: dict[int, int] = {}
    total = 0
    for index in range(30_000):
        total += (index * index) % 7
        table[index & 255] = total
    return (time.perf_counter_ns() - begin) / 1e6


def _mean_spin() -> float:
    return statistics.fmean(spin() for _ in range(_REPEATS))


class SpeedProbe:
    """The loop on both CPUs at once: here and in a pinned helper."""

    def __init__(self, helper_cpu: int) -> None:
        self.readings: list[tuple[int, float]] = []
        self._helper = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), str(helper_cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def measure(self) -> float:
        """Probe now; record and return the mean of both CPUs, in ms.

        Call only while the system under test is idle: the loop must not
        compete with it, or a slower program would read as a slower box.
        """
        helper = self._helper
        assert helper.stdin is not None and helper.stdout is not None
        helper.stdin.write("go\n")
        helper.stdin.flush()
        local = _mean_spin()
        remote = float(helper.stdout.readline())
        reading = (local + remote) / 2.0
        self.readings.append((time.perf_counter_ns(), reading))
        return reading

    def factor(self, lo: int, hi: int) -> float:
        """``REFERENCE_MS`` over the probe around ``[lo, hi]``: the mean of
        the last reading at or before ``lo`` and the first at or after
        ``hi`` (either alone when the other is missing)."""
        before = [ms for at, ms in self.readings if at <= lo][-1:]
        after = [ms for at, ms in self.readings if at >= hi][:1]
        near = before + after
        if not near:
            raise ValueError("no probe reading near the window")
        return REFERENCE_MS / statistics.fmean(near)

    def close(self) -> None:
        if self._helper.poll() is None:
            assert self._helper.stdin is not None
            self._helper.stdin.close()  # end of input stops the helper
            try:
                self._helper.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._helper.kill()
                self._helper.wait()
        if self._helper.stdout is not None:
            self._helper.stdout.close()


def _serve(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    for _ in sys.stdin:
        print(_mean_spin(), flush=True)


if __name__ == "__main__":
    _serve(int(sys.argv[1]))
