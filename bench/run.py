"""Benchmark for rindep: one workload per run, every call in a fresh child.

Usage, from the root of a checkout:

    python3 bench/run.py --workload tree-scan --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 1

A run first imports ``rindep.cli`` in several fresh interpreters to time
set-up.  It then cycles through the workload's calls, each in a new
interpreter as a CLI user runs it (so each pays the import and the
tree-enumeration cache warm-up), until ``--seconds`` have elapsed and every
call has run.  A pass's time is the sum of each call's median.  The seed
fixes the order of the calls.  With ``--trace 1`` the run alternates whole
untraced and traced passes and reports the per-layer metrics instead; the
spans of the last traced pass go to ``.bench_out/``, where span parents
index the same call's spans.  Outputs are checked by ``gate.py`` after the
timed calls.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from gate import Gate, expected_ops  # noqa: E402
import spans  # noqa: E402
from workloads import RUNGS, WORKLOADS  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "slowest_call_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_SAMPLES = 5  # set-up-only interpreters per run, besides one per call
RUN_LIMIT_S = 170  # a run must end within 180 s
OUT_DIR = ".bench_out"


class BenchError(RuntimeError):
    pass


def _child(job: dict, deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # set-up is timed with cached bytecode
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py")],
            input=json.dumps(job),
            capture_output=True,
            text=True,
            env=env,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"a pass did not finish within {RUN_LIMIT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def _median(values):
    return statistics.median(values) if values else 0.0


def _pass(calls, trace: bool, deadline: float) -> list[dict]:
    """Run every call once, each in its own interpreter."""
    return [_child({"argv": list(c.argv), "trace": trace}, deadline) for c in calls]


def _known_defect(call, call_res) -> bool:
    exc = call_res["exception"]
    return bool(call.known_defect and exc and exc.startswith(call.known_defect + ":"))


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    calls = list(WORKLOADS[name])
    random.Random(seed).shuffle(calls)

    _child({"argv": None}, deadline)  # fills the bytecode cache; not timed
    setups = [_child({"argv": None}, deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]

    # samples[i]: untraced results of calls[i].  Untraced runs cycle through
    # the calls and stop at the first call boundary after ``seconds`` once
    # every call has run; traced runs alternate whole untraced and traced
    # passes.
    samples: list[list[dict]] = [[] for _ in calls]
    traced: list[list[dict]] = []
    start = time.monotonic()
    while not (time.monotonic() - start >= seconds and all(samples)):
        if trace:
            for i, res in enumerate(_pass(calls, False, deadline)):
                samples[i].append(res)
            traced.append(_pass(calls, True, deadline))
            continue
        for i, call in enumerate(calls):
            samples[i].append(_child({"argv": list(call.argv), "trace": False}, deadline))
            if time.monotonic() - start >= seconds and all(samples):
                break
    setups += [r["setup_s"] for rs in samples + traced for r in rs]

    gate_start = time.monotonic()
    gate = Gate(seed)
    attempted = failed = all_attempted = all_failed = verdicts = budget = 0
    problems: dict[str, list[str]] = {}
    known: dict[str, str] = {}
    results = [0] * len(calls)
    for i, call in enumerate(calls):
        for call_res in samples[i] + [p[i] for p in traced]:
            out = gate.check(call, call_res)
            results[i] = out.results
            all_attempted += out.attempted
            all_failed += out.failed
            verdicts += out.verdicts
            budget += out.budget_exceeded
            if _known_defect(call, call_res):
                known[call.name] = call_res["exception"]
            else:
                attempted += out.attempted
                failed += out.failed
            if out.problems:
                problems[call.name] = out.problems
    gate_s = time.monotonic() - gate_start

    call_s = [_median([r["seconds"] for r in rs]) for rs in samples]
    wall_s = sum(call_s)
    e2e = {
        "setup_s": _median(setups),
        "wall_s": wall_s,
        "items_per_s": sum(results) / wall_s,
        "slowest_call_s": max(call_s),
        "peak_rss_mb": max(_median([r["peak_rss_mb"] for r in rs]) for rs in samples),
    }
    rungs = {
        rung: sum(s for c, s in zip(calls, call_s) if c in rung_calls)
        for rung, rung_calls in RUNGS.items()
        if any(c in rung_calls for c in calls)
    }
    gate_metrics = {
        "failed_share": all_failed / all_attempted if all_attempted else 0.0,
        "budget_exceeded_share": budget / verdicts if verdicts else 0.0,
    }
    layers = {}
    if traced:
        items = sum(expected_ops(c) for c in calls)
        per_pass = [
            spans.layer_metrics(
                spans.merge([c["tally"] for c in p]),
                items,
                sum(len(c["stdout"].encode()) for c in p),
            )
            for p in traced
        ]
        for key in per_pass[0]:
            layers[key] = _median([p[key] for p in per_pass])
        traced_wall = _median([sum(c["seconds"] for c in p) for p in traced])
        layers["trace.overhead_s"] = traced_wall - wall_s
        layers.update(gate_metrics)
        missing = sorted({m for c in traced[0] for m in c["missing"]})
        if missing:
            print(f"warning: not traced, no longer defined: {missing}", file=sys.stderr)
        _write_spans(name, seed, calls, traced[-1])
    return {
        "workload": name,
        "calls": [c.name for c in calls],
        "sources": {c.name: c.sources for c in calls},
        "samples": [len(rs) for rs in samples],
        "traced_passes": len(traced),
        "rungs": rungs,
        "known_defects": known,
        "problems": problems,
        "gate_s": gate_s,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": e2e,
        "gate": gate_metrics,
        "layers": layers,
    }


def _write_spans(name: str, seed: int, calls, traced_pass: list[dict]) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    rows = [[*span, i] for i, call_res in enumerate(traced_pass) for span in call_res["spans"]]
    with open(os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.json"), "w") as fh:
        json.dump({"calls": [c.name for c in calls],
                   "fields": ["name", "start", "end", "parent", "count", "call"],
                   "spans": rows}, fh)


def _print_table(res: dict, trace: bool) -> None:
    print(f"workload {res['workload']}: {res['traced_passes']} traced passes")
    print("  calls (untraced runs): "
          + ", ".join(f"{c} ({n})" for c, n in zip(res["calls"], res["samples"])))
    for rung, seconds in res["rungs"].items():
        print(f"  rung {rung:<20} {seconds:12.6f} s")
    for key, value in res["end_to_end"].items():
        print(f"  {key:<24} {value:12.6f} {END_TO_END[key]}")
    if not trace:
        for key, value in res["gate"].items():
            print(f"  {key:<24} {value:12.6f} share")
    else:
        for key, value in res["layers"].items():
            print(f"  {key:<48} {value:16.6f}")
    print(f"  gate: {res['failed']} of {res['attempted']} operations failed"
          f" (checked in {res['gate_s']:.2f} s)")
    for name, exc in res["known_defects"].items():
        print(f"  known defect, not counted in 'failed': {name} raises {exc}")
    for name, problems in res["problems"].items():
        if name in res["known_defects"]:
            continue
        print(f"  expected outcome of {name} rests on: {'; '.join(res['sources'][name])}")
        for problem in problems[:5]:
            print(f"  problem in {name}: {problem}")


def _metrics(res: dict, trace: bool, prefix: str = "") -> dict:
    if trace:
        return {prefix + k: {"value": v, "unit": spans.unit_of(k)} for k, v in res["layers"].items()}
    return {prefix + k: {"value": v, "unit": END_TO_END[k]} for k, v in res["end_to_end"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "rindep", "cli.py")):
        print("error: run from the root of a rindep checkout (src/rindep/cli.py not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    deadline = time.monotonic() + RUN_LIMIT_S * (len(WORKLOADS) if args.workload == "all" else 1)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace), deadline) for n in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = {}
    for res in results:
        _print_table(res, bool(args.trace))
        prefix = f"{res['workload']}." if len(results) > 1 else ""
        metrics.update(_metrics(res, bool(args.trace), prefix))
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
