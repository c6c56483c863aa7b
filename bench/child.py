"""One CLI call in a fresh interpreter.

Reads a job from stdin as JSON: ``{"argv": [...], "trace": bool}``, or
``{"argv": null}`` to time set-up only.  Imports ``rindep.cli`` from
``src/`` under the current directory and times that import plus
``make_parser()``, the set-up every CLI user pays.  Then runs the call
through ``rindep.cli.main`` with stdout and stderr captured, and writes one
JSON object to stdout: timings, peak RSS, the captured output and, when
tracing, the call's spans and their tally.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

SRC = os.path.abspath("src")


def _peak_rss_mb() -> float:
    """High-water RSS of this process image.

    ``getrusage`` would also count the parent's RSS at fork time, which
    Linux carries across exec; ``VmHWM`` belongs to the current image only.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    job = json.load(sys.stdin)
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import rindep.cli as cli

    cli.make_parser()
    result = {"setup_s": time.perf_counter() - start}
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"rindep was imported from {cli.__file__}, not from {SRC}")
    if job["argv"] is None:
        json.dump(result, sys.stdout)
        return

    tracer = None
    if job["trace"]:
        import spans

        tracer = spans.Tracer()
        result["missing"] = spans.install(tracer)

    out, err = io.StringIO(), io.StringIO()
    exc = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(job["argv"])
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 2
    except Exception as e:  # an exception out of cli.main is a counted failure
        code, exc = None, f"{type(e).__name__}: {e}"
    result["seconds"] = time.perf_counter() - start
    result["peak_rss_mb"] = _peak_rss_mb()
    result.update(exit=code, exception=exc, stdout=out.getvalue(), stderr=err.getvalue()[-2000:])
    if tracer is not None:
        result["tally"] = spans.tally(tracer.spans)
        result["spans"] = tracer.spans
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
