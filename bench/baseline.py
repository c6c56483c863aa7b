"""Run the benchmark once per seed on each workload and report the spread.

Usage, from the root of a checkout:

    python3 bench/baseline.py --runs 10
    python3 bench/baseline.py --runs 5 --workloads reisner-ladder
    python3 bench/baseline.py --runs 10 --out bench/baseline.json
    python3 bench/baseline.py --runs 3 --trace 1

For every end-to-end metric it prints the median of the runs and the
distance between the first and third quartile as a share of the median,
next to the bound in ``BENCHMARK.json``.  With ``--trace 1`` it checks
instead that every exact counter of the per-layer trace is identical in
every run.  ``--out`` records the machine, the figures (end-to-end under
``workloads``, per-layer medians under ``layers``) and ``"claim": null``,
keeping what the file already holds under the other key.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# timings, rates and byte counts of reports that embed timings vary from run to run
INEXACT_SUFFIXES = ("_s", "_per_s", "report_bytes")


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: gate failed\n{proc.stdout}")
    return result


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.runs)
    figures: dict[str, dict] = {}
    steady = True
    for workload in args.workloads.split(","):
        runs = [_run(workload, seed, args.seconds, args.trace) for seed in seeds]
        names = runs[0]["metrics"]
        if args.trace:
            figures[workload] = {}
            for name in names:
                values = [r["metrics"][name]["value"] for r in runs]
                figures[workload][name] = statistics.median(values)
                if not name.endswith(INEXACT_SUFFIXES) and len(set(values)) > 1:
                    steady = False
                    print(f"{workload} {name}: counter differs between runs: {sorted(values)}")
            print(f"{workload}: exact counters checked over {len(runs)} runs")
            continue
        figures[workload] = {}
        for name in names:
            fig = _spread([r["metrics"][name]["value"] for r in runs])
            figures[workload][name] = fig
            ok = name == "setup_s" or fig["spread"] <= bounds[name] / 3
            steady &= ok
            print(f"{workload:<15} {name:<15} median {fig['median']:12.6f}  "
                  f"spread {fig['spread']:.4f}  bound {bounds[name]:.2f}  {'ok' if ok else 'WIDE'}  "
                  + " ".join(f"{v:.4g}" for v in fig["values"]), flush=True)
    if args.out and figures:
        record = {}
        if os.path.exists(args.out):
            with open(args.out) as fh:
                record = json.load(fh)
        record.update({
            "claim": None,
            "machine": {"nproc": os.cpu_count(), "cpu": _cpu_model(),
                        "python": platform.python_version(),
                        "implementation": platform.python_implementation(),
                        "system": platform.system(), "machine": platform.machine()},
            "run_seconds": args.seconds,
        })
        key = "layers" if args.trace else "workloads"
        record[key] = {"seeds": list(seeds), **figures}
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
