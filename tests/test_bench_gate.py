"""Every benchmark call, run in-process through ``cli.main``, passes the
benchmark's correctness gate with no failed operation.  The gate replays
certificates through the package's public API (``from_json_dict`` with one
argument, the verifiers on the searches' results, ``from_supports``,
``link``, ``pure_skeleton``), so a change to that API shows here rather than
only as a failed benchmark run.  ``bench/gate.py`` and ``bench/workloads.py``
are imported as they are."""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from rindep import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    """Import ``bench/<name>.py`` under its own name, as ``bench/run.py``
    imports it."""
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


workloads = _load("workloads")
gate = _load("gate")
CALLS = [call for calls in workloads.WORKLOADS.values() for call in calls]


def _run(argv: list[str]) -> dict:
    """The result of one call in the form ``bench/child.py`` reports it."""
    out, err = io.StringIO(), io.StringIO()
    exception = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # an exception out of cli.main is a failure the gate counts
            code, exception = None, f"{type(exc).__name__}: {exc}"
    return {"exit": code, "exception": exception, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_every_workload_call_is_listed():
    assert len(CALLS) == 15 and len({call.name for call in CALLS}) == 15


@pytest.mark.parametrize("call", CALLS, ids=[call.name for call in CALLS])
def test_benchmark_call_passes_the_gate(call):
    outcome = gate.Gate(1).check(call, _run(list(call.argv)))
    assert (outcome.failed, outcome.problems) == (0, [])
    assert outcome.attempted == gate.expected_ops(call)
