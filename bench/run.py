#!/usr/bin/env python3
"""Run one bohrlab benchmark workload and print its metrics.

    python3 bench/run.py --workload sweep_chi --seed 1 --seconds 30 --trace 0

Run it from the repository root; bohrlab is imported from ./src.  The load is
one closed loop in this process: the workload's task list runs task after
task, pass after pass, until --seconds have passed (and at least twice, so
the result digest can be compared across passes).

--trace 0 reports the end-to-end metrics: pass_cpu_ref (median pass CPU
time in units of the reference loop, see reference.py), setup_s (median CPU
time of fresh-process set-ups), peak_rss_mb and width_log.
--trace 1 alternates untraced and traced passes and reports per-layer
metrics from spans recorded around bohrlab's functions (see spans.py).

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  Result
details, the environment and the spans of the last traced pass are written
under .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
# The reference loop runs between tasks once REF_GAP_S wall seconds have
# passed since it last ran, for REF_SHARE of that interval.
REF_GAP_S = 0.4
REF_SHARE = 0.1
clock = time.perf_counter
cpu_clock = time.thread_time


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cap_blas_threads() -> None:
    """Run BLAS on one thread; must run before numpy loads.  An idle BLAS
    worker spin-waits on another core, which on a small shared host takes
    CPU from the measuring thread and adds noise."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def src_digest() -> str:
    """sha256 over the library sources, so results from a checkout without git
    history still name the code they measured."""
    h = hashlib.sha256()
    for path in sorted((SRC / "bohrlab").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "host": platform.node(),
        "platform": platform.platform(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "seed": seed,
    }


# --- passes -------------------------------------------------------------------


@dataclass
class Pass:
    wall: float  # summed task call time, checks excluded
    cpu: float  # summed task CPU time of this thread, checks excluded
    ref_cpu: list[float]  # reference-loop CPU times sampled during the pass
    task_walls: list[float]
    task_digests: list[str]
    outcomes: list

    @property
    def digest(self) -> str:
        return hashlib.sha256("".join(self.task_digests).encode()).hexdigest()


def run_task(task, tracer=None, index: int = -1):
    """Run one task; return (call seconds, call CPU seconds, checked Outcome)."""
    from workloads import Outcome

    if tracer is not None:
        tracer.task = index
    t0, c0 = clock(), cpu_clock()
    try:
        res = task.call()
    except Exception as exc:  # a failed task is counted, the loop goes on
        dt, dc = clock() - t0, cpu_clock() - c0
        traceback.print_exc(file=sys.stderr)
        return dt, dc, Outcome(errors=[f"{task.name}: {type(exc).__name__}: {exc}"])
    dt, dc = clock() - t0, cpu_clock() - c0
    try:
        return dt, dc, task.check(res)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return dt, dc, Outcome(
            errors=[f"{task.name}: check raised {type(exc).__name__}: {exc}"])


def run_pass(wl, tracer=None) -> Pass:
    """Run the task list once, sampling the reference loop in between.

    The loop runs once before the first task.  After a task, once REF_GAP_S
    have passed since it last ran, and after the last task, it runs
    back to back for REF_SHARE of the time since then (at least once).  So
    every stretch of the pass gets loop runs in proportion to its length,
    and their mean CPU time follows the machine's speed over the whole pass,
    long tasks included."""
    import reference

    walls, cpus, digests, outcomes = [], [], [], []
    refs = [reference.cpu_seconds()]
    last_ref = clock()
    for i, task in enumerate(wl.tasks):
        dt, dc, out = run_task(task, tracer, i)
        walls.append(dt)
        cpus.append(dc)
        digests.append(hashlib.sha256("\n".join(out.rows).encode()).hexdigest())
        outcomes.append(out)
        gap = clock() - last_ref
        if i == len(wl.tasks) - 1 or gap >= REF_GAP_S:
            t0 = clock()
            refs.append(reference.cpu_seconds())
            while clock() - t0 < REF_SHARE * gap:
                refs.append(reference.cpu_seconds())
            last_ref = clock()
    return Pass(math.fsum(walls), math.fsum(cpus), refs, walls, digests, outcomes)


def cpu_ref(passes: list[Pass]) -> float:
    """Median pass CPU time over the mean reference-loop CPU time of all
    passes.  The samples spread over the whole run, so their mean follows
    the machine's average speed while the passes ran."""
    return (statistics.median(p.cpu for p in passes)
            / statistics.fmean(r for p in passes for r in p.ref_cpu))


def tally(passes: list[Pass], warm) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages).  A task fails on a raised error, a
    failed output check, or rows that differ from its rows in the first pass."""
    attempted, failed, msgs = 1, 0, []
    if warm.errors:
        failed += 1
        msgs += warm.errors
    first = passes[0].task_digests
    for k, p in enumerate(passes):
        for i, (out, dig) in enumerate(zip(p.outcomes, p.task_digests)):
            attempted += 1
            errs = list(out.errors)
            if dig != first[i]:
                errs.append(f"pass {k} task {i}: result digest differs from pass 0")
            if errs:
                failed += 1
                msgs += errs
    return attempted, failed, msgs


def loop(seconds: float, step) -> list:
    """Closed loop: call step() back to back, at least twice, and after that
    only while the next call, taking as long as the median call so far,
    would end within `seconds`."""
    out, took, t0 = [], [], clock()
    while len(out) < 2 or clock() - t0 + statistics.median(took) <= seconds:
        t1 = clock()
        out.append(step())
        took.append(clock() - t1)
    return out


def setup_probe_time(args) -> tuple[float, float]:
    """(wall, CPU) seconds of a fresh process that imports bohrlab, numpy and
    scipy, builds the workload's inputs and makes its warm-up call."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]

    def child_cpu() -> float:
        ru = resource.getrusage(resource.RUSAGE_CHILDREN)
        return ru.ru_utime + ru.ru_stime

    t0, c0 = clock(), child_cpu()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
    return clock() - t0, child_cpu() - c0


def mean(xs: list[float]) -> float:
    """Mean, or 0 for no values (only when every task failed, which the
    result line reports through failed and correct)."""
    return math.fsum(xs) / len(xs) if xs else 0.0


def quartiles(xs: list[float]) -> list[float]:
    return statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3


# --- entry point ------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("sweep_chi", "norm_suite", "radius_bounds"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: tiny inputs, for the benchmark's own tests")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bohrlab" / "__init__.py").is_file():
        print(f"error: bohrlab sources not found under {SRC}", file=sys.stderr)
        return 2
    cap_blas_threads()
    sys.path[:0] = [str(SRC), str(HERE)]
    OUT.mkdir(exist_ok=True)

    if args.setup_probe:
        import workloads

        wl = workloads.WORKLOADS[args.workload](args.seed, OUT, args.size)
        wl.warmup.check(wl.warmup.call())
        return 0

    setup = [] if args.trace else [setup_probe_time(args) for _ in range(SETUP_PROBES)]

    import reference
    import workloads
    from spans import Tracer, layer_metrics

    wl = workloads.WORKLOADS[args.workload](args.seed, OUT, args.size)
    _, _, warm = run_task(wl.warmup)
    reference.cpu_seconds()
    env = environment(args.seed)

    if args.trace:
        tracer = Tracer(clock)

        def pair():
            plain = run_pass(wl)
            tracer.reset()
            with tracer:
                traced = run_pass(wl, tracer)
            return plain, traced, layer_metrics(tracer.spans, tracer.counts)

        pairs = loop(args.seconds, pair)
        passes = [p for pr in pairs for p in pr[:2]]
        names = list(pairs[0][2])
        metrics = {k: statistics.median(pr[2][k] for pr in pairs) for k in names}
        metrics["trace.overhead_s"] = (statistics.median(pr[1].wall for pr in pairs)
                                       - statistics.median(pr[0].wall for pr in pairs))
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        units = {k: unit_of(k) for k in metrics}
    else:
        passes = loop(args.seconds, lambda: run_pass(wl))
        first = passes[0].outcomes
        metrics = {
            "pass_cpu_ref": cpu_ref(passes),
            "setup_s": statistics.median(cpu for _, cpu in setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "width_log": mean([w for o in first for w in o.widths]),
        }
        units = {"pass_cpu_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB",
                 "width_log": "nat"}

    attempted, failed, msgs = tally(passes, warm)
    for m in msgs[:20]:
        print(f"FAILED {m}", file=sys.stderr)
    log_norms = [v for o in passes[0].outcomes for v in o.log_norms]
    walls = [p.wall for p in passes]
    # Printed by name and unit but not declared in BENCHMARK.json: raw times
    # follow the shared host's speed, which drifts more than any bound allows.
    extra = {"wall_s": statistics.median(walls),
             "cpu_s": statistics.median(p.cpu for p in passes),
             "ref_cpu_s": statistics.fmean(r for p in passes for r in p.ref_cpu)}
    if setup:
        extra["setup_wall_s"] = statistics.median(wall for wall, _ in setup)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": env,
        "passes": len(passes),
        "tasks_per_pass": len(wl.tasks),
        "pass_wall_s": walls,
        "pass_cpu_s": [p.cpu for p in passes],
        "pass_ref_cpu_s": [p.ref_cpu for p in passes],
        "task_median_s": {t.name: statistics.median(p.task_walls[i] for p in passes)
                          for i, t in enumerate(wl.tasks)},
        "setup_samples_s": [{"wall": wall, "cpu": cpu} for wall, cpu in setup],
        "unbounded_s": extra,
        "digest": passes[0].digest,
        "fail_frac": failed / attempted,
        "norm_logmean": mean(log_norms) if log_norms else None,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=1)

    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"tasks/pass {len(wl.tasks)}  digest {passes[0].digest[:16]}")
    q1, _, q3 = quartiles(walls)
    print(f"  {'pass wall q1..q3':<40} {q1:.4f} .. {q3:.4f} s")
    print(f"  {'fail_frac':<40} {failed / attempted:.6g} ratio ({failed}/{attempted})")
    if log_norms:
        print(f"  {'norm_logmean':<40} {mean(log_norms):.10g} nat")
    for k, v in extra.items():
        print(f"  {k:<40} {v:.10g} s")
    for k, v in metrics.items():
        print(f"  {k:<40} {v:.10g} {units[k]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def unit_of(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_s"):
        return "s"
    if last.startswith("ns_per"):
        return "ns"
    if last.endswith("_frac") or last.endswith("_share"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
