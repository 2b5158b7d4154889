"""Start ``repro-serve`` for the benchmark, optionally traced.

Usage::

    python3 perfbench/serve_launcher.py --report OUT.json [--trace] \\
        -- <repro-serve arguments>

Everything after ``--`` goes unchanged to ``repro.serve.main``.  With
``--trace`` the layer wrappers of :mod:`tracing` are installed first, so
requests carrying the trace header record spans in this process.  Once
the imports are done the launcher prints :data:`READY` on stdout, so the
benchmark can time the daemon's set-up without interpreter start-up and
imports.  When the daemon has shut down, ``OUT.json`` receives the
process's peak RSS and the recorded spans.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

#: daemon span ids start here, clear of the benchmark process's ids
DAEMON_ID_BASE = 10 ** 12
#: first stdout line, printed when every import is done
READY = "perfbench-launcher: imported"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]

    import repro.serve

    recorder = None
    if args.trace:
        import tracing

        recorder = tracing.Recorder(id_base=DAEMON_ID_BASE)
        tracing.install(recorder, serve=True)
    print(READY, flush=True)
    try:
        return repro.serve.main(serve_args)
    finally:
        report = {
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "spans": recorder.spans if recorder is not None else [],
        }
        Path(args.report).write_text(json.dumps(report))


if __name__ == "__main__":
    raise SystemExit(main())
