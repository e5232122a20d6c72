#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and summarise the spread.

    python3 bench/repeat.py --runs 10 --first-seed 1 [--workloads sweep_chi,...]
                            [--traced] [--write bench/BENCH_0.json]

For each workload, runs ``bench/run.py`` once per seed (seeds first-seed,
first-seed+1, ...) with the run length from BENCHMARK.json, and reports each
end-to-end metric's median, quartiles and spread: (q3 - q1) / median, with
quartiles as ``statistics.quantiles(values, n=4)`` gives them.  The spread
must stay within the metric's bound (setup_s excepted), and should stay
below a third of it.  --traced adds one --trace 1 run per workload for the
per-layer numbers.  --write stores everything, with the environment of each
run, as a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if res.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {res.returncode}:\n{res.stderr[-2000:]}")
    last = json.loads(res.stdout.strip().splitlines()[-1])
    detail = json.loads((ROOT / ".bench_out" /
                         f"result-{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"result": last, "detail": detail}


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("inf")}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--write", default=None)
    args = ap.parse_args()

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": seconds, "runs": args.runs, "workloads": {}}
    ok = True
    for wl in args.workloads.split(","):
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        runs = [run_once(wl, s, seconds, 0) for s in seeds]
        entry = {"seeds": seeds,
                 "env": [r["detail"]["env"] for r in runs],
                 "correct": all(r["result"]["correct"] for r in runs),
                 "attempted": sum(r["result"]["attempted"] for r in runs),
                 "failed": sum(r["result"]["failed"] for r in runs),
                 "end_to_end": {}}
        ok &= entry["correct"]
        print(f"{wl}: correct={entry['correct']} failed={entry['failed']}/{entry['attempted']}")
        for name, bound in bounds.items():
            s = summary([r["result"]["metrics"][name]["value"] for r in runs])
            s["unit"] = runs[0]["result"]["metrics"][name]["unit"]
            s["bound"] = bound
            entry["end_to_end"][name] = s
            flag = "" if s["spread"] < bound / 3 else (
                "  ABOVE bound/3" if s["spread"] <= bound else "  ABOVE BOUND")
            if name != "setup_s" and s["spread"] > bound:
                ok = False
            print(f"  {name:<14} median {s['median']:.6g} {s['unit']}  "
                  f"q1..q3 {s['q1']:.6g}..{s['q3']:.6g}  spread {s['spread']:.4f} "
                  f"(bound {bound}){flag}")
        if args.traced:
            tr = run_once(wl, seeds[0], seconds, 1)
            entry["per_layer"] = {"seed": seeds[0], "correct": tr["result"]["correct"],
                                  "metrics": tr["result"]["metrics"]}
            ok &= tr["result"]["correct"]
        report["workloads"][wl] = entry
    if args.write:
        Path(args.write).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
