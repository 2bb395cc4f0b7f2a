"""Fault-inject the batch tiers: a tier that *raises* must demote cleanly.

The planned tiers (replicate / columnar-state / columnar) demote by
returning ``None`` rows when they cannot hold the oracle-identity
contract.  This suite forces the uglier failure mode — an exception
escaping tier production itself — and pins the demotion path:
``run_batch`` never raises, every row re-executes through the per-run
scalar oracle byte-identically, and the ``batch.fallback_scalar``
telemetry counter accounts for the whole cell.
"""

from __future__ import annotations

import json

import pytest

from repro.campaigns import CampaignSpec
from repro.campaigns.runner import execute_chunk
from repro.engine.batch import (
    MODE_COLUMNAR_STATE,
    MODE_REPLICATE,
    plan_for_run,
    run_batch,
)
from repro.observability import Telemetry
from repro.scenarios import CommSpec, ScenarioSpec, register_scenario
from repro.scenarios.registry import SCENARIO_REGISTRY


def canonical(rows):
    return [
        json.dumps(
            {k: v for k, v in row.items() if not k.startswith("_")},
            sort_keys=True,
        )
        for row in rows
    ]


@pytest.fixture()
def byz_lossy_scenario():
    spec = ScenarioSpec(
        name="byz_lossy_fault_injection",
        byzantine=("equivocator", "high-ts-liar"),
        comm=CommSpec(kind="lossy", drop_prob=0.3),
        max_phases=15,
    )
    register_scenario(spec)
    try:
        yield spec
    finally:
        del SCENARIO_REGISTRY[spec.name]


@pytest.fixture()
def columnar_state_runs(byz_lossy_scenario):
    """One campaign cell every run of which plans the columnar-state tier."""
    spec = CampaignSpec(
        name="byz-lossy-fault-injection",
        algorithms=("class-3",),
        models=((11, 2, 1),),
        engines=("timed",),
        scenarios=(byz_lossy_scenario.name,),
        repetitions=6,
        seed=13,
    )
    runs = tuple(spec.iter_runs())
    assert all(plan_for_run(run).mode == MODE_COLUMNAR_STATE for run in runs)
    return runs


def test_columnar_state_exception_demotes_to_scalar(
    monkeypatch, columnar_state_runs
):
    """A columnar-state build that raises re-executes the cell scalar."""
    runs = columnar_state_runs

    def exploding(_runs):
        raise RuntimeError("injected: columnar-state template broke")

    monkeypatch.setattr(
        "repro.engine.batch.kernel.columnar_state_rows", exploding
    )
    oracle = canonical(execute_chunk(runs, False, "scalar"))
    telemetry = Telemetry()
    rows = run_batch(runs, telemetry=telemetry)
    assert canonical(rows) == oracle
    assert all(row["_backend"] == "scalar" for row in rows)
    assert telemetry.counters["batch.fallback_scalar"] == len(runs)
    assert "batch.columnar_state_rows" not in telemetry.counters
    assert "batch.columnar_rows" not in telemetry.counters


def test_columnar_row_loop_exception_demotes_to_scalar(
    monkeypatch, columnar_state_runs
):
    """If the per-run columnar tier raises too, the oracle still answers."""
    runs = columnar_state_runs

    def exploding(*_args, **_kwargs):
        raise RuntimeError("injected: tier blew up")

    monkeypatch.setattr(
        "repro.engine.batch.kernel.columnar_state_rows", exploding
    )
    monkeypatch.setattr("repro.engine.batch.kernel._columnar_rows", exploding)
    oracle = canonical(execute_chunk(runs, False, "scalar"))
    telemetry = Telemetry()
    rows = run_batch(runs, telemetry=telemetry)
    assert canonical(rows) == oracle
    assert telemetry.counters["batch.fallback_scalar"] == len(runs)


@pytest.fixture()
def lockstep_columnar_state_runs(byz_lossy_scenario):
    """A lockstep cell planned onto the columnar-state tier."""
    spec = CampaignSpec(
        name="byz-lossy-lockstep-fault-injection",
        algorithms=("class-2",),
        models=((11, 2, 1),),
        engines=("lockstep",),
        scenarios=(byz_lossy_scenario.name,),
        repetitions=6,
        seed=13,
    )
    runs = tuple(spec.iter_runs())
    assert all(plan_for_run(run).mode == MODE_COLUMNAR_STATE for run in runs)
    return runs


@pytest.mark.parametrize("failure", ["returns-none", "raises"])
def test_lockstep_columnar_state_demotes_to_scalar_oracle(
    monkeypatch, lockstep_columnar_state_runs, failure
):
    """A demoting lockstep cell skips the timed-only columnar tier.

    Whether the array program gives up (``None``) or blows up, the cell
    must re-execute on the scalar oracle — never through the columnar
    sweep, which compiles the timed engine and would emit timed rows.
    """
    runs = lockstep_columnar_state_runs

    def failing(_runs):
        if failure == "raises":
            raise RuntimeError("injected: lockstep template broke")
        return None

    sweeps = []

    def spy(runs_):
        sweeps.append(runs_)
        raise AssertionError("the columnar sweep ran a lockstep cell")

    monkeypatch.setattr("repro.engine.batch.kernel.columnar_state_rows", failing)
    monkeypatch.setattr("repro.engine.batch.kernel._columnar_rows", spy)
    oracle = canonical(execute_chunk(runs, False, "scalar"))
    telemetry = Telemetry()
    rows = run_batch(runs, telemetry=telemetry)
    assert canonical(rows) == oracle
    assert all(row["_backend"] == "scalar" for row in rows)
    assert sweeps == []
    assert telemetry.counters["batch.fallback_scalar"] == len(runs)
    assert "batch.columnar_rows" not in telemetry.counters


def test_columnar_sweep_leaves_non_timed_runs_to_the_oracle(
    lockstep_columnar_state_runs,
):
    """Called on lockstep runs anyway, the sweep fabricates nothing."""
    from repro.engine.batch.kernel import _columnar_rows

    runs = lockstep_columnar_state_runs
    assert _columnar_rows(runs) == [None] * len(runs)


def test_replicate_exception_demotes_to_scalar(monkeypatch):
    """The replicate tier's fault injection: same demotion contract."""
    spec = CampaignSpec(
        name="replicate-fault-injection",
        algorithms=("pbft",),
        models=((4, 1, 0),),
        engines=("lockstep",),
        scenarios=("fault-free",),
        repetitions=5,
        seed=2,
    )
    runs = tuple(spec.iter_runs())
    assert all(plan_for_run(run).mode == MODE_REPLICATE for run in runs)

    def exploding(_runs):
        raise RuntimeError("injected: replicate broke")

    monkeypatch.setattr("repro.engine.batch.kernel._replicate_rows", exploding)
    oracle = canonical(execute_chunk(runs, False, "scalar"))
    telemetry = Telemetry()
    rows = run_batch(runs, telemetry=telemetry)
    assert canonical(rows) == oracle
    assert telemetry.counters["batch.fallback_scalar"] == len(runs)
    assert "batch.replicated_rows" not in telemetry.counters
