"""The benchmark's own tests: determinism, checks, metric table, stripped tree.

    python3 -m pytest -q perfbench/test_bench.py

Each workload runs a fixed number of operations (max_ops) instead of a time
box, so counts and the training loss trace must repeat exactly for a seed.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

run.import_library()

import metrics  # noqa: E402
import workloads  # noqa: E402
from acrestore import load_bundled_case, lpac, train  # noqa: E402
from acrestore.scenarios import ScenarioSpec, gen_load_scenarios  # noqa: E402

SEED = 3
OTHER_SEED = 11
# per-layer values that must repeat exactly across runs of one seed
REPEATED_COUNTS = ("lpac.pivots", "wls.gn_iters", "acpf.eval_H.calls", "sens.calls")
OPS = {"restore-118": 3, "train-57": 2, "lpac-dataset-14": 2}


def traced(name, seed):
    return run.run_workload(name, seed, seconds=3600, trace=1, max_ops=OPS[name])


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_counts_and_loss_trace_repeat_for_a_seed(name):
    first, second = traced(name, SEED), traced(name, SEED)
    assert first["failed"] == [] and second["failed"] == []
    for key in REPEATED_COUNTS:
        assert first["metrics"][key] == second["metrics"][key], key
    assert first["loss_trace"] == second["loss_trace"]
    if name == "train-57":
        assert len(first["loss_trace"]) == OPS[name]
    # the layer self times and the remainder add up to the traced op time
    assert abs(metrics.self_time_balance(first["metrics"])) < 1e-6


def test_counts_reach_the_layers_each_workload_names():
    restore, train_, lpac_ = (traced(name, SEED)["metrics"] for name in run.WORKLOAD_NAMES)
    assert restore["wls.gn_iters"] > 0 and restore["fileio.read.bytes"] > 0
    assert restore["sens.calls"] == 0 and restore["lpac.pivots"] == 0
    assert train_["sens.calls"] == workloads.Train57.RECORDS
    assert train_["wls.calls"] == workloads.Train57.RECORDS
    assert lpac_["lpac.pivots"] > 0 and lpac_["acpf.newton_pf.calls"] == 1
    assert lpac_["wls.calls"] == 0 and lpac_["sens.calls"] == 0


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_second_seed_runs_cleanly(name):
    out = run.run_workload(name, OTHER_SEED, seconds=3600, trace=0, max_ops=OPS[name])
    assert out["failed"] == []
    assert out["attempted"] == OPS[name]
    for key in metrics.END_TO_END:
        assert out["metrics"][key] > 0, key


def test_failed_check_marks_operation_and_run_continues(monkeypatch):
    monkeypatch.setattr(workloads, "STATIONARITY_TOL", -1.0)
    out = run.run_workload("restore-118", SEED, seconds=3600, trace=0, max_ops=2)
    assert out["attempted"] == 2 and len(out["failed"]) == 2
    assert "H'Wr" in out["failed"][0]


def test_simplex_error_is_a_failed_operation(monkeypatch):
    def singular(lp, max_iter=None):
        raise lpac.SimplexError("singular basis during reinversion")

    monkeypatch.setattr(lpac, "simplex_solve", singular)
    out = run.run_workload("lpac-dataset-14", SEED, seconds=3600, trace=1, max_ops=2)
    assert out["attempted"] == 4 and len(out["failed"]) == 4
    assert out["metrics"]["lpac.failures"] == 2
    assert "SimplexError" in out["failed"][0]


def test_skipped_records_and_training_errors_fail_their_iteration(monkeypatch):
    restore, calls = train.wls_restore, []

    def first_call_fails(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise RuntimeError("restoration did not converge")
        return restore(*args, **kwargs)

    monkeypatch.setattr(train, "wls_restore", first_call_fails)
    out = run.run_workload("train-57", SEED, seconds=3600, trace=0, max_ops=2)
    assert out["attempted"] == 2 and len(out["failed"]) == 1
    assert "1 of 24 records skipped" in out["failed"][0]

    def always_fails(*args, **kwargs):
        raise RuntimeError("restoration did not converge")

    monkeypatch.setattr(train, "wls_restore", always_fails)
    out = run.run_workload("train-57", SEED, seconds=3600, trace=0, max_ops=2)
    assert out["attempted"] == 2 and len(out["failed"]) == 2
    assert "TrainingError" in out["failed"][0]


def test_timed_training_job_reaches_the_state_err_iteration():
    out = run.run_workload("train-57", SEED, seconds=0.01, trace=0)
    assert out["failed"] == []
    assert out["attempted"] == workloads.Train57.STATE_ERR_ITER
    assert out["state_err_records"] == workloads.Train57.RECORDS


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == {
        k: v[:2] for k, v in metrics.END_TO_END.items()
    }
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        k: v[:2] for k, v in metrics.PER_LAYER.items()
    }


def test_fails_without_a_result_when_the_sources_are_missing():
    stripped = os.path.join(run.ROOT, ".perfbench", f"stripped-{os.getpid()}")
    shutil.rmtree(stripped, ignore_errors=True)
    try:
        shutil.copytree(run.BENCH_DIR, os.path.join(stripped, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), stripped)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "restore-118",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=stripped, env=env, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(stripped, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.xfail(strict=True, reason="simplex_solve returns an infeasible basis on some "
                   "case14 scenarios; lpac-dataset-14 counts each as a failed operation")
def test_known_defect_simplex_certificate_on_seed3_scenario9():
    net = load_bundled_case("case14")
    p_load, q_load = gen_load_scenarios(net, ScenarioSpec(count=10, seed=3))[9]
    result = lpac.simplex_solve(lpac.build_lpac(net.with_loads(p_load, q_load)))
    assert lpac.verify_certificates(result, tol=workloads.CERTIFICATE_TOL)["ok"]
