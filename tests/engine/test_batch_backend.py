"""The batch backend's RNG-stream contract and row byte-identity.

Batch row *b* must consume exactly the streams of the scalar run with the
same coordinate-derived seed (see :mod:`repro.engine.batch`'s package
docstring).  This suite pins every layer of that claim:

* :class:`~repro.utils.accel.BlockRng` continues a ``random.Random``
  stream bit for bit — from a seed, mid-stream, under interleaved
  scalar/block draws, and in the pure-python fallback;
* block-capable networks draw the same floats as scalar ones, draw for
  draw, with ``sample_matrix`` keeping one independent stream per row;
* the planner proves tiers conservatively (known cells land where the
  design says they land);
* :func:`~repro.engine.batch.run_batch` reproduces the scalar oracle's
  rows byte-for-byte on representative cells of every tier, with and
  without numpy.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.campaigns import BUILTIN_CAMPAIGNS
from repro.campaigns.results import row_to_json
from repro.campaigns.runner import execute_run
from repro.engine.batch import (
    MODE_COLUMNAR,
    MODE_COLUMNAR_STATE,
    MODE_REPLICATE,
    MODE_SCALAR,
    BatchPlan,
    cell_key,
    plan_cell,
    plan_for_run,
    run_batch,
)
from repro.eventsim.network import NetworkSpec, UniformLatency
from repro.scenarios import CommSpec
from repro.scenarios.registry import get_scenario
from repro.utils.accel import BlockRng, get_numpy

HAVE_NUMPY = get_numpy() is not None

GAUNTLET = BUILTIN_CAMPAIGNS["gauntlet"]


# ------------------------------------------------------------ BlockRng


def test_block_rng_matches_scalar_stream_from_seed():
    reference = random.Random(99)
    rng = BlockRng(99)
    assert [rng.random() for _ in range(700)] == [
        reference.random() for _ in range(700)
    ]


def test_block_rng_matches_scalar_stream_mid_stream():
    reference = random.Random(5)
    source = random.Random(5)
    for _ in range(13):  # advance both to a mid-stream state
        reference.random()
        source.random()
    rng = BlockRng(source)
    assert list(rng.block(40)) == [reference.random() for _ in range(40)]


def test_block_rng_interleaves_scalar_and_block_draws():
    reference = random.Random(7)
    rng = BlockRng(7)
    got = [rng.random(), rng.random()]
    got.extend(rng.block(600))  # spans the internal buffer boundary
    got.append(rng.uniform(2.0, 5.0))
    got.extend(rng.block(3))
    expected = [reference.random(), reference.random()]
    expected.extend(reference.random() for _ in range(600))
    expected.append(reference.uniform(2.0, 5.0))
    expected.extend(reference.random() for _ in range(3))
    assert [float(v) for v in got] == expected


def test_block_rng_fallback_without_numpy(monkeypatch):
    monkeypatch.setenv("REPRO_NO_NUMPY", "1")
    rng = BlockRng(31)
    assert not rng.accelerated
    reference = random.Random(31)
    draws = [rng.random()] + list(rng.block(20)) + [rng.random()]
    assert draws == [reference.random() for _ in range(22)]


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
def test_block_rng_accelerated_when_numpy_present():
    assert BlockRng(0).accelerated


# ----------------------------------------------------- network block paths


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
@pytest.mark.parametrize("kind,gst", [("uniform", 0.0), ("uniform", 30.0),
                                      ("fixed", 30.0)])
def test_block_network_matches_scalar_network(kind, gst):
    """Bulk draws equal the scalar loop draw for draw, floats included."""
    spec = NetworkSpec(kind=kind, gst=gst)
    scalar_net = spec.build(7)
    block_net = spec.build(7, rng=BlockRng(7))
    edges = [(s % 5, (s + 1) % 5) for s in range(23)]
    for send_time in (0.0, 5.0, 29.0, 31.0):
        assert block_net.sample_round(send_time, edges) == (
            scalar_net.sample_round(send_time, edges)
        )
        # Interleaved per-message draws continue the same stream.
        assert block_net.transit_time(send_time, 1, 2) == (
            scalar_net.transit_time(send_time, 1, 2)
        )


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
def test_block_network_returns_plain_python_floats():
    net = NetworkSpec().build(3, rng=BlockRng(3))
    for value in net.sample_round(0.0, [(0, 1), (1, 2), (2, 0)]):
        assert type(value) is float


def test_sample_matrix_one_stream_per_row():
    """Row b of the matrix equals sample_many on row b's own stream."""
    model = UniformLatency(0.5, 2.0)
    edges = [(s, d) for s in range(4) for d in range(4)]
    seeds = (11, 22, 33)
    matrix = model.sample_matrix([random.Random(s) for s in seeds], edges)
    for seed, row in zip(seeds, matrix):
        assert list(row) == model.sample_many(random.Random(seed), edges)


# ------------------------------------------------------------- the planner


def test_plan_deterministic_cells_replicate():
    for name in ("fault-free", "worst_case", "silent_minority",
                 "crash_storm", "partition_heal"):
        scenario = get_scenario(name)
        for engine in ("lockstep", "timed"):
            plan = plan_cell(scenario, engine)
            assert plan.mode == MODE_REPLICATE, (name, engine, plan)


def test_plan_stochastic_cells_split_by_engine():
    for name in ("lossy_channel", "flaky_gst", "async_then_sync"):
        scenario = get_scenario(name)
        assert plan_cell(scenario, "lockstep").mode == MODE_SCALAR, name
        assert plan_cell(scenario, "timed").mode == MODE_COLUMNAR, name


def test_plan_randomized_coin_forces_scalar():
    scenario = get_scenario("fault-free")

    class CoinConfig:
        coin = staticmethod(lambda phase: "1")

    assert plan_cell(scenario, "lockstep", CoinConfig()).mode == MODE_SCALAR


def test_plan_unknown_strategy_forces_scalar():
    scenario = dataclasses.replace(
        get_scenario("worst_case"), byzantine=("some-future-adversary",)
    )
    assert plan_cell(scenario, "lockstep").mode == MODE_SCALAR


def test_plan_scalar_reason_names_the_blocking_clause():
    """A lockstep cell left on the oracle says which clause kept it there."""
    from repro.campaigns.runner import _resolve_algorithm_memo
    from repro.core.types import FaultModel

    parameters, config = _resolve_algorithm_memo("class-2", FaultModel(7, 1, 1))
    cases = {
        "async_then_sync": "strategy 'adaptive-liar' reads its inbox",
        "lossy_channel": None,
    }
    for name, reason in cases.items():
        plan = plan_cell(get_scenario(name), "lockstep", config, parameters)
        if reason is None:
            assert plan.mode == MODE_COLUMNAR_STATE, plan
        else:
            assert plan == BatchPlan(MODE_SCALAR, reason)
    crashing = dataclasses.replace(get_scenario("lossy_channel"), crashes=1)
    assert plan_cell(crashing, "lockstep", config, parameters).reason == (
        "crash schedule"
    )
    prel = dataclasses.replace(
        get_scenario("lossy_channel"), comm=CommSpec(kind="async-prel")
    )
    assert plan_cell(prel, "lockstep", config, parameters).reason == (
        "comm kind 'async-prel' has no mask form"
    )
    # Without resolved parameters nothing is provable.
    assert plan_cell(get_scenario("lossy_channel"), "lockstep").reason == (
        "algorithm parameters unresolved"
    )


def test_plan_slow_scheduler_env_forces_scalar_on_columnar(monkeypatch):
    scenario = get_scenario("lossy_channel")
    monkeypatch.setenv("REPRO_SLOW_SCHEDULER", "1")
    assert plan_cell(scenario, "timed").mode == MODE_SCALAR
    monkeypatch.delenv("REPRO_SLOW_SCHEDULER")
    assert plan_cell(scenario, "timed").mode == MODE_COLUMNAR


# --------------------------------------------------- run_batch byte-identity


def _cell_runs(scenario_name, engine, repetitions=6):
    spec = dataclasses.replace(
        GAUNTLET,
        scenarios=(scenario_name,),
        algorithms=("class-2",),
        models=((7, 1, 1),),
        engines=(engine,),
        repetitions=repetitions,
    )
    runs = list(spec.iter_runs())
    assert len({cell_key(run) for run in runs}) == 1
    return runs


def _assert_rows_match_oracle(runs, rows):
    assert len(rows) == len(runs)
    for run, row in zip(runs, rows):
        assert row["run_id"] == run.run_id
        assert row_to_json(row) == row_to_json(execute_run(run))


@pytest.mark.parametrize(
    "scenario,engine,expected_mode",
    [
        ("fault-free", "lockstep", MODE_REPLICATE),
        ("partition_heal", "timed", MODE_REPLICATE),
        ("flaky_gst", "timed", MODE_COLUMNAR_STATE),
        ("lossy_channel", "timed", MODE_COLUMNAR_STATE),
        ("lossy_channel", "lockstep", MODE_COLUMNAR_STATE),
        ("flaky_gst", "lockstep", MODE_COLUMNAR_STATE),
        # adaptive-liar reads its inbox, so the cell stays per-run columnar
        # on the timed engine and on the scalar oracle in lockstep.
        ("async_then_sync", "timed", MODE_COLUMNAR),
        ("async_then_sync", "lockstep", MODE_SCALAR),
    ],
)
def test_run_batch_matches_oracle(scenario, engine, expected_mode):
    runs = _cell_runs(scenario, engine)
    assert plan_for_run(runs[0]).mode == expected_mode
    _assert_rows_match_oracle(runs, run_batch(runs))


@pytest.mark.parametrize(
    "scenario,engine",
    [("partition_heal", "timed"), ("flaky_gst", "timed")],
)
def test_run_batch_matches_oracle_without_numpy(
    monkeypatch, scenario, engine
):
    monkeypatch.setenv("REPRO_NO_NUMPY", "1")
    runs = _cell_runs(scenario, engine)
    _assert_rows_match_oracle(runs, run_batch(runs))


def test_run_batch_rows_independent_of_batch_composition():
    """Dropping runs from a batch leaves the remaining rows' bytes alone."""
    runs = _cell_runs("flaky_gst", "timed", repetitions=6)
    full = run_batch(runs)
    subset = [runs[1], runs[4]]
    partial = run_batch(subset)
    assert [row_to_json(r) for r in partial] == [
        row_to_json(full[1]),
        row_to_json(full[4]),
    ]


def test_run_batch_tags_rows_with_backend():
    runs = _cell_runs("fault-free", "lockstep", repetitions=3)
    rows = run_batch(runs)
    assert {row["_backend"] for row in rows} == {"replicate"}
    # Volatile: the canonical serialization never carries the tag.
    assert all('"_backend"' not in row_to_json(row) for row in rows)


def test_run_batch_counts_telemetry():
    from repro.observability import Telemetry

    telemetry = Telemetry()
    runs = _cell_runs("lossy_channel", "timed", repetitions=4)
    run_batch(runs, telemetry=telemetry)
    assert telemetry.counters["batch.rows"] == 4
    # Without numpy the columnar-state tier demotes to per-run columnar
    # at build time, and the counter follows the tier that actually ran.
    tier = "batch.columnar_state_rows" if HAVE_NUMPY else "batch.columnar_rows"
    assert telemetry.counters[tier] == 4
    assert "scheduler.batch" in telemetry.span_names

    telemetry = Telemetry()
    run_batch(_cell_runs("async_then_sync", "lockstep", repetitions=4),
              telemetry=telemetry)
    assert telemetry.counters["batch.fallback_scalar"] == 4


def test_run_batch_inadmissible_cell_matches_oracle():
    """Resolution failures degrade to the scalar tier's proper rows."""
    spec = dataclasses.replace(
        GAUNTLET,
        scenarios=("fault-free",),
        algorithms=("class-2",),
        models=((3, 1, 1),),  # violates n > 4b + 2f
        engines=("lockstep",),
        repetitions=4,
    )
    runs = list(spec.iter_runs())
    assert plan_for_run(runs[0]).mode == MODE_SCALAR
    rows = run_batch(runs)
    assert {row["status"] for row in rows} == {"inadmissible"}
    _assert_rows_match_oracle(runs, rows)


def test_run_batch_inapplicable_cell_matches_oracle():
    """The columnar prologue maps ScenarioInapplicable like the oracle."""
    spec = dataclasses.replace(
        GAUNTLET,
        scenarios=("async_then_sync",),  # byzantine placement, but b = 0
        algorithms=("class-2",),
        models=((4, 0, 1),),
        engines=("timed",),
        repetitions=3,
    )
    runs = list(spec.iter_runs())
    assert plan_for_run(runs[0]).mode == MODE_COLUMNAR
    rows = run_batch(runs)
    assert {row["status"] for row in rows} == {"inapplicable"}
    _assert_rows_match_oracle(runs, rows)


def test_execute_chunk_groups_cells_and_matches_scalar():
    from repro.campaigns.runner import execute_chunk

    spec = dataclasses.replace(GAUNTLET, repetitions=2)
    runs = list(spec.iter_runs())[:24]
    scalar = execute_chunk(tuple(runs), False, "scalar")
    batch = execute_chunk(tuple(runs), False, "batch")
    assert [row_to_json(r) for r in batch] == [row_to_json(r) for r in scalar]


def test_resolve_backend_env_and_validation(monkeypatch):
    from repro.campaigns.runner import resolve_backend

    assert resolve_backend() == "auto"
    assert resolve_backend("scalar") == "scalar"
    monkeypatch.setenv("REPRO_BACKEND", "batch")
    assert resolve_backend() == "batch"
    assert resolve_backend("scalar") == "scalar"  # explicit arg wins
    with pytest.raises(ValueError):
        resolve_backend("vectorized")
