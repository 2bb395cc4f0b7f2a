"""Self-tests for the benchmark: tiny runs of every workload and its checks.

Run from the repository root: ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro.campaigns.runner as runner
import repro.engine.kernel as kernel
import repro.fuzz.classify as classify
from perfbench.run import ROOT, measure, with_units
from perfbench.tracing import Tracer, traced
from perfbench.workloads import WORKLOADS

#: Sizes small enough for a test: every batch tier still runs (a cell
#: group needs 4 runs), the fuzz suite is one short hunt.
TINY = {
    "campaign-gauntlet": {"reps": 4},
    "fuzz-overbound": {"budget": 6, "suite": 1},
    "smr-byzantine": {"duration": 100.0},
}

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(name: str, work: Path):
    return WORKLOADS[name](1, work, **TINY[name])


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """(workload, trace) → the result of one tiny run."""
    out = {}
    for name in WORKLOADS:
        for trace in (False, True):
            work = tmp_path_factory.mktemp(f"{name}-{int(trace)}")
            out[name, trace] = measure(tiny(name, work), 0, trace, setup_samples=1)
    return out


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_reports_every_metric_with_its_unit(results, name, trace):
    result = results[name, trace]
    assert result["correct"]
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    reported = with_units(result["metrics"], trace)
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(reported) == [entry["name"] for entry in listed]
    for entry in listed:
        assert reported[entry["name"]]["unit"] == entry["unit"]
        assert isinstance(reported[entry["name"]]["value"], (int, float))
    json.dumps(reported)
    if not trace:
        assert all(metric["value"] > 0 for metric in reported.values())


def test_every_per_layer_metric_is_produced_by_some_workload(results):
    produced = set()
    for name in WORKLOADS:
        produced |= set(results[name, True]["metrics"])
    assert produced == {entry["name"] for entry in SPEC["per_layer"]}


def test_traced_campaign_accounts_every_tier(results):
    metrics = results["campaign-gauntlet", True]["metrics"]
    for tier in ("replicate", "columnar-state", "columnar", "scalar"):
        assert metrics[f"batch.rows.{tier}"] > 0
    assert metrics["batch.demoted_rows"] == 0
    assert metrics["campaigns.chunks"] > 0
    assert metrics["engine.kernel.calls"] > 0  # merged back from pool workers


def test_traced_restores_every_wrapped_function():
    from repro.campaigns.results import ResultSink

    before = (kernel.run_instance, classify.run_instance, ResultSink.append)
    with traced(Tracer()):
        assert classify.run_instance is not before[1]
        assert ResultSink.append is not before[2]
    assert (kernel.run_instance, classify.run_instance, ResultSink.append) == before


@pytest.mark.parametrize("name", ["campaign-gauntlet", "smr-byzantine"])
def test_corrupted_digest_fails_the_check(tmp_path, name):
    workload = tiny(name, tmp_path)
    good = workload.run_pass(0)
    assert workload.verify([good]) == []
    good.digest = "0" * 64
    assert workload.verify([good])


def test_corrupted_fuzz_corpus_fails_the_check(tmp_path):
    workload = tiny("fuzz-overbound", tmp_path)
    first, repeat = workload.run_pass(0), workload.run_pass(0)
    assert workload.verify([first, repeat]) == []
    repeat.digest = "0" * 64
    assert workload.verify([first, repeat])


def test_injected_error_row_raises_failed_share(tmp_path, monkeypatch):
    execute_run = runner.execute_run

    def failing_first_run(run, *, timings=False):
        row = execute_run(run, timings=timings)
        if run.run_id == 0:
            row.update(status="error", error="injected")
        return row

    # Pool workers fork from this process, so they inherit the patch.
    monkeypatch.setattr(runner, "execute_run", failing_first_run)
    result = measure(tiny("campaign-gauntlet", tmp_path), 0, True, setup_samples=1)
    assert result["failed"] > 0
    assert result["metrics"]["failed_share"] > 0


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smr-byzantine",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
