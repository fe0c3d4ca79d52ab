"""Start one ``repro serve`` process, optionally with timing wrappers.

Usage::

    python3 perfbench/launch.py [--trace-out FILE] -- SERVE_ARGS...

With ``--trace-out``, :func:`tracing.install_server` wraps the server's
layers before ``repro.cli.main(["serve", ...])`` runs, and the spans are
written to FILE once the server has stopped.  Without it the wrappers
are off and the process is an ordinary ``repro serve``, so traced and
untraced runs differ only by tracing.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _die_with_parent() -> None:
    """Ask the kernel for SIGTERM when the benchmark process dies, so a
    killed run never leaves a server behind (``repro serve`` drains and
    exits on SIGTERM)."""
    import ctypes
    import signal

    pr_set_pdeathsig = 1
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
        libc.prctl.restype = ctypes.c_int
        libc.prctl(pr_set_pdeathsig, signal.SIGTERM)
    except (OSError, AttributeError):
        return
    if os.getppid() != int(os.environ.get("PERFBENCH_PARENT", os.getppid())):
        sys.exit(1)  # the parent died before the request took effect


def main(argv: list[str]) -> int:
    _die_with_parent()
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    sys.path.insert(0, HERE)
    tracer = None
    if trace_out is not None:
        import tracing

        tracer = tracing.Tracer("server")
        tracing.install_server(tracer)
    from repro.cli import main as repro_main

    code = repro_main(["serve", *argv])
    if tracer is not None:
        tracer.dump(trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
