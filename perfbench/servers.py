"""Launch and account for ``repro serve`` processes from outside.

Each server runs through ``perfbench/launch.py``, which is the plain
``repro serve`` entry point unless a trace file is requested.  CPU time
and peak RSS are read from ``/proc/<pid>`` while the process lives.
"""

from __future__ import annotations

import os
import select
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
_CLK_TCK = os.sysconf("SC_CLK_TCK")
_START_TIMEOUT_S = 60.0
_STOP_TIMEOUT_S = 30.0


class ServerProcess:
    """One ``repro serve`` child process on an OS-chosen port."""

    def __init__(self, serve_args: list[str], workdir: str, label: str,
                 cpu: int, trace_out: str | None = None) -> None:
        self.log_path = os.path.join(workdir, f"{label}.log")
        command = [sys.executable, os.path.join(HERE, "launch.py")]
        if trace_out is not None:
            command += ["--trace-out", trace_out]
        command += ["--", "--host", "127.0.0.1", "--port", "0", *serve_args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        env["PERFBENCH_PARENT"] = str(os.getpid())
        self._log = open(self.log_path, "w", encoding="utf-8")
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=self._log, text=True)
        os.sched_setaffinity(self.process.pid, {cpu})
        self.port = self._await_port()

    def _await_port(self) -> int:
        stdout = self.process.stdout
        assert stdout is not None
        deadline = time.monotonic() + _START_TIMEOUT_S
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stdout], [], [], 0.5)
            if not ready:
                if self.process.poll() is not None:
                    break
                continue
            line = stdout.readline()
            if not line:
                break
            if line.startswith("serving on "):
                return int(line.rsplit(":", 1)[1])
        self.kill()
        raise RuntimeError(f"server did not start; see {self.log_path}")

    @property
    def pid(self) -> int:
        return self.process.pid

    def cpu_seconds(self) -> float:
        """User plus system CPU time so far, from ``/proc/<pid>/stat``."""
        with open(f"/proc/{self.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def peak_rss_mb(self) -> float:
        """Peak resident set (VmHWM) so far, in MiB."""
        with open(f"/proc/{self.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def wait(self) -> int:
        """Wait for the process to exit after a shutdown request."""
        try:
            code = self.process.wait(timeout=_STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError(
                f"server did not stop; see {self.log_path}") from None
        self._close_pipes()
        return code

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()
        self._close_pipes()

    def _close_pipes(self) -> None:
        if self.process.stdout is not None:
            self.process.stdout.close()
        self._log.close()
