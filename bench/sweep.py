#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric's spread.

Run from the root of a source checkout:

    python3 bench/sweep.py --workloads chain enum search --seeds 1..10 \
        --traced-seed 1 --out sweep.json

Runs ``bench/run.py`` once per (workload, seed), one after another, and
prints for every end-to-end metric the median, the quartiles
(``statistics.quantiles`` with n=4) and the spread (q3 - q1) / median.
``--traced-seed`` adds one traced run per workload and keeps its per-layer
metrics.  ``--out`` writes everything, with the environment record of the
first run, as JSON; ``results/baseline.json`` was written this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds_of(spec: str) -> list[int]:
    if ".." in spec:
        lo, hi = spec.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in spec.split(",")]


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run; returns (last-line result, environment record)."""
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line[5:]) for line in lines if line.startswith("env: ")), {})
    return json.loads(lines[-1]), env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=["chain", "enum", "search"])
    parser.add_argument("--seeds", default="1..10")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--traced-seed", type=int)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    report = {
        "command": ["python3", "bench/sweep.py", *(sys.argv[1:] if argv is None else argv)],
        "seconds": args.seconds,
        "environment": None,
        "workloads": {},
    }
    for workload in args.workloads:
        runs = []
        for seed in seeds_of(args.seeds):
            result, env = run_once(workload, seed, args.seconds, 0)
            report["environment"] = report["environment"] or env
            values = {k: v["value"] for k, v in result["metrics"].items()}
            runs.append({"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                         "failed": result["failed"], "metrics": values})
            print(f"{workload} seed={seed} correct={result['correct']} failed={result['failed']} "
                  + " ".join(f"{k}={v:.4g}" for k, v in values.items()), flush=True)
        summary = {name: summarize([r["metrics"][name] for r in runs]) for name in runs[0]["metrics"]}
        entry = {"runs": runs, "summary": summary}
        print(f"{workload}: all correct={all(r['correct'] for r in runs)}")
        for name, s in summary.items():
            print(f"  {name:12s} median={s['median']:.6g} q1={s['q1']:.6g} q3={s['q3']:.6g} "
                  f"spread={s['spread']:.2%}")
        if args.traced_seed is not None:
            result, _ = run_once(workload, args.traced_seed, args.seconds, 1)
            entry["traced"] = {"seed": args.traced_seed, "correct": result["correct"],
                               "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
            print(f"{workload}: traced seed={args.traced_seed} correct={result['correct']}", flush=True)
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
