"""``repro serve`` under the host-speed probe or the tracing wrappers.

Usage: ``python3 perfbench/serve_entry.py speed <samples.json> <repro serve args...>``
or ``python3 perfbench/serve_entry.py trace <span-dir> <repro serve args...>``.

``speed`` runs the host-speed probe (``speed.py``) from before the program
is imported until the server has shut down, then writes the samples as
JSON.  ``trace`` installs the wrappers and writes this process's spans when
the server has shut down.  Either way the program's own CLI entry point
runs unchanged.
"""

from __future__ import annotations

import json
import sys

import speed

if __name__ == "__main__":
    mode, out, serve_args = sys.argv[1], sys.argv[2], sys.argv[3:]
    probe = speed.SpeedProbe().start() if mode == "speed" else None

    from repro.__main__ import main

    import tracer

    if probe is not None:
        try:
            code = main(serve_args)
        finally:
            with open(out, "w") as handle:
                json.dump(probe.stop(), handle)
    else:
        recorder = tracer.SpanRecorder(out)
        installation = tracer.install(recorder)
        try:
            code = main(serve_args)
        finally:
            installation.uninstall()
            recorder.dump()
    sys.exit(code)
