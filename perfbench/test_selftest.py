"""Reduced-size self-test of the benchmark.

Every workload, traced and untraced, must emit exactly the metrics
``BENCHMARK.json`` declares, each with its declared unit, and pass its own
correctness checks.  Run from the repository root:

    python3 -m pytest perfbench/test_selftest.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Per-layer metrics that must be non-zero on the workload built to isolate
#: their layer (every other layer may read 0 there).
LAYERS = {
    "extract_buffer": ("sweep.run_s", "circuit.transient_s", "tft.extract_s",
                       "vectfit.frequency_fit_s", "rvf.state_fit_s",
                       "runtime.compile_s", "runtime.validate_sim_s",
                       "runtime.validate_model_s", "circuit.newton_iters",
                       "circuit.steps_accepted", "circuit.factorizations",
                       "rvf.n_frequency_poles", "rvf.n_state_poles",
                       "trace.overhead_ratio"),
    "serve_online": ("runtime.registry_load_s", "serve.start_s",
                     "gateway.start_s", "loadgen.request_ms",
                     "serve.request_ms", "gateway.self_ms", "serve.wait_ms",
                     "serve.shards.evaluate_ms", "serve.submit_us",
                     "serve.rows_per_batch", "telemetry.events_per_request",
                     "loadgen.latency_p99_ms", "runtime.kernel_ms",
                     "trace.overhead_ratio"),
    "bulk_offline": ("runtime.registry_load_s", "serve.start_s",
                     "serve.request_ms", "serve.shards.evaluate_ms",
                     "serve.submit_us", "serve.rows_per_batch",
                     "runtime.kernel_ms", "trace.overhead_ratio"),
}


def _run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0

    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        assert [m for m in LAYERS[workload] if not values[m] > 0] == []
    else:
        assert [m for m, v in values.items() if not v > 0] == []


def test_fails_without_the_program(tmp_path):
    """Given only BENCHMARK.json and the benchmark's files, the runner exits
    non-zero and prints no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = _run(str(tmp_path), "serve_online", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
