"""Tests of the benchmark itself (not of bohrlab).

    python3 -m pytest bench/test_bench.py -q

Runs every workload at smoke size, so the whole file takes well under a
minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bohrlab_attrs() -> dict:
    return {(m.__name__, k): v for m in spans._bohrlab_modules() for k, v in vars(m).items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_meets_output_contract(workload):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "0", "--trace", "0", "--size", "smoke"]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert res.returncode == 0, res.stderr
    last = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in last["metrics"].values())
    assert "fail_frac" in res.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_digest_equals_untraced(workload, tmp_path):
    wl = workloads.WORKLOADS[workload](5, tmp_path, "smoke")
    plain = run.run_pass(wl)
    tracer = spans.Tracer(run.clock)
    with tracer:
        traced = run.run_pass(wl, tracer)
    assert not [e for o in plain.outcomes + traced.outcomes for e in o.errors]
    assert traced.digest == plain.digest
    assert tracer.spans and all(s is not None for s in tracer.spans)


def test_wrappers_are_removed_after_a_run(tmp_path):
    wl = workloads.WORKLOADS["norm_suite"](1, tmp_path, "smoke")
    run.run_pass(wl)  # imports every module the run touches
    before = _bohrlab_attrs()
    tracer = spans.Tracer(run.clock)
    with tracer:
        during = _bohrlab_attrs()
        run.run_pass(wl, tracer)
    after = _bohrlab_attrs()
    changed = [k for k in before if during[k] is not before[k]]
    assert ("bohrlab.optimize", "eval_batch") in changed
    assert ("bohrlab.bohr", "series_sup") in changed
    assert ("bohrlab", "sup_norm") in changed
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_metric_names_and_units():
    layer = spans.layer_metrics([], Counter())
    produced = set(layer) | {"trace.overhead_s"}
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert produced == set(declared)
    assert all(run.unit_of(k) == u for k, u in declared.items())
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)


def test_self_time_subtracts_child_coverage():
    S = spans.Span
    trace = [S("optimize.sup_norm", 0.0, 10.0, -1, 0),
             S("optimize.ascend", 1.0, 9.0, 0, 0),
             S("polynomial.grad_batch", 2.0, 4.0, 1, 0),
             S("polynomial.eval_batch", 5.0, 6.0, 1, 0),
             S("polynomial.eval_batch", 7.0, 7.5, 0, 0)]
    m = spans.layer_metrics(trace, Counter({"polynomial.term_evals": 7}))
    assert m["optimize.ascend.self_s"] == pytest.approx(5.0)
    assert m["optimize.ascend.kernel_calls"] == 2
    assert m["optimize.sup_norm.busy_s"] == pytest.approx(10.0)
    assert m["polynomial.eval_batch.calls"] == 2
    assert m["polynomial.ns_per_term_eval"] == pytest.approx(1e9 * 3.5 / 7)


def test_loop_starts_no_step_that_would_end_past_the_deadline():
    # After two 50 ms steps, a third would end near 150 ms, past 120 ms.
    out = run.loop(0.12, lambda: time.sleep(0.05))
    assert len(out) == 2


def test_median_pass_cpu_is_divided_by_mean_reference_cpu():
    def p(cpu, refs):
        return run.Pass(wall=cpu, cpu=cpu, ref_cpu=refs, task_walls=[cpu],
                        task_digests=[""], outcomes=[workloads.Outcome()])

    passes = [p(2.0, [0.5, 1.5]), p(3.0, [1.0]), p(9.0, [1.0, 1.0])]
    assert run.cpu_ref(passes) == pytest.approx(3.0)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    cmd = [sys.executable, "bench/run.py", "--workload", "sweep_chi", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    res = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert "correct" not in res.stdout
