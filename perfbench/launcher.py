"""Start the simulation service with the benchmark's layer wrappers.

Usage, from the root of a checkout with ``src`` on ``PYTHONPATH``::

    python3 perfbench/launcher.py SPANS.jsonl serve --port 0 [serve options]

The wrappers of :mod:`recorder` are installed before the service starts
and record nothing until the process receives ``SIGUSR1``; ``SIGUSR2``
stops recording.  The arguments after ``SPANS.jsonl`` go to the
program's own command line, which builds the service configuration and
calls :func:`repro.service.app.run_server`.  When the server has drained
(``SIGTERM``), the spans are written to ``SPANS.jsonl`` followed by one
``{"counts": {...}}`` line.  Spans inside supervised worker processes
are not recorded.
"""

from __future__ import annotations

import json
import os
import signal
import sys


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    spans_out, serve_args = argv[0], argv[1:]

    from recorder import Recorder

    recorder = Recorder(f"serve-{os.getpid()}")
    recorder.install()

    def enable(*_):
        recorder.enabled = True

    def disable(*_):
        recorder.enabled = False

    signal.signal(signal.SIGUSR1, enable)
    signal.signal(signal.SIGUSR2, disable)

    from repro.cli import main as repro_main

    try:
        return repro_main(serve_args)
    finally:
        recorder.enabled = False
        recorder.write_jsonl(spans_out)
        with open(spans_out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"counts": dict(recorder.counts)}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
