"""Campaign rows are byte-identical across every fast-path configuration.

The PR-5 optimizations (heap-free timed delivery, batched latency sampling,
policy-reported drops, chunked dispatch, worker-side memos) and the PR-7
batch backend (replicated / columnar / scalar execution tiers) all promise
the same thing: not one byte of any result row changes.  This suite pins
that down end to end on the ``gauntlet`` campaign — every registered
scenario × every algorithm class × both engines — by diffing the canonical
JSONL against a baseline produced with ``REPRO_SLOW_SCHEDULER=1`` (the
legacy event-heap delivery), at workers ∈ {1, 4} and chunk ∈ {1, 8},
including the batch backend with and without numpy and a resume that
switches backends mid-campaign.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.campaigns import BUILTIN_CAMPAIGNS, run_campaign

GAUNTLET = BUILTIN_CAMPAIGNS["gauntlet"]


def canonical(rows):
    """One deterministic string per row list (already run_id-sorted).

    Underscore-prefixed keys are volatile diagnostics (``_elapsed_ms``,
    ``_pid``, ``_backend``) that the result store strips before
    serialization — strip them here too, matching ``row_to_json``.
    """
    return [
        json.dumps(
            {k: v for k, v in row.items() if not k.startswith("_")},
            sort_keys=True,
        )
        for row in rows
    ]


@pytest.fixture(scope="module")
def slow_baseline():
    """The gauntlet under the legacy heap scheduler, inline execution.

    Environment mutation is module-scoped by hand (monkeypatch is
    function-scoped): schedulers read REPRO_SLOW_SCHEDULER at construction,
    which happens per run inside execute_run, so setting it around the
    campaign is enough with workers=1.
    """
    import os

    os.environ["REPRO_SLOW_SCHEDULER"] = "1"
    try:
        rows = run_campaign(GAUNTLET, workers=1)
    finally:
        del os.environ["REPRO_SLOW_SCHEDULER"]
    return canonical(rows)


def test_gauntlet_has_no_error_rows(slow_baseline):
    for line in slow_baseline:
        assert '"status": "error"' not in line


def test_fast_path_identical_inline(slow_baseline):
    assert canonical(run_campaign(GAUNTLET, workers=1)) == slow_baseline


@pytest.mark.parametrize("workers,chunk", [(4, 1), (4, 8)])
def test_fast_path_identical_parallel(slow_baseline, workers, chunk):
    rows = run_campaign(GAUNTLET, workers=workers, chunk=chunk)
    assert canonical(rows) == slow_baseline


def test_slow_scheduler_survives_worker_processes(slow_baseline):
    """Pool workers inherit the escape hatch: slow parallel == slow inline."""
    import os

    os.environ["REPRO_SLOW_SCHEDULER"] = "1"
    try:
        rows = run_campaign(GAUNTLET, workers=4, chunk=8)
    finally:
        del os.environ["REPRO_SLOW_SCHEDULER"]
    assert canonical(rows) == slow_baseline


@pytest.mark.parametrize(
    "workers,chunk", [(1, 1), (1, 8), (4, 1), (4, 8)]
)
def test_batch_backend_identical(slow_baseline, workers, chunk):
    """The batch kernel reproduces the heap oracle at every dispatch shape."""
    rows = run_campaign(
        GAUNTLET, workers=workers, chunk=chunk, backend="batch"
    )
    assert canonical(rows) == slow_baseline


def test_batch_backend_identical_without_numpy(slow_baseline):
    """The pure-python block fallback is byte-identical too."""
    import os

    os.environ["REPRO_NO_NUMPY"] = "1"
    try:
        rows = run_campaign(GAUNTLET, workers=4, chunk=8, backend="batch")
    finally:
        del os.environ["REPRO_NO_NUMPY"]
    assert canonical(rows) == slow_baseline


def test_batch_backend_identical_with_repetitions(slow_baseline):
    """Multi-repetition cells (the replicate tier's raison d'être) agree."""
    spec = dataclasses.replace(GAUNTLET, repetitions=2)
    scalar = run_campaign(spec, workers=1, backend="scalar")
    batch = run_campaign(spec, workers=4, chunk=8, backend="batch")
    assert canonical(batch) == canonical(scalar)


#: sha256 of the canonical JSONL of the gauntlet at 2 repetitions on the
#: scalar backend, pinned from the implementation whose Pcons rounds were
#: counted by the scheduler's edge-exact rescan.  The tier identity tests
#: above compare tiers with each other, so a ``messages_dropped`` miscount
#: every tier shared would pass them; this pin would not.
GAUNTLET_SCALAR_SHA256 = (
    "f1037512c9ba7ba99dfde4e038154d74acb01f603ed0853ba29842fa1345d083"
)


def test_scalar_gauntlet_matches_golden_digest():
    from repro.campaigns.results import rows_to_jsonl

    spec = dataclasses.replace(GAUNTLET, repetitions=2)
    rows = run_campaign(spec, workers=1, backend="scalar")
    data = rows_to_jsonl(rows).encode("utf-8")
    assert hashlib.sha256(data).hexdigest() == GAUNTLET_SCALAR_SHA256


def test_resume_with_backend_switched(slow_baseline):
    """A campaign recorded under one backend completes under another.

    Rows 0..39 play the part of a checkpoint written by a scalar run; the
    batch backend finishes the remainder and the merged file matches the
    single-shot baseline byte for byte.
    """
    from repro.campaigns import iter_campaign

    head = slow_baseline[:40]
    skip = {json.loads(line)["run_id"] for line in head}
    tail = list(
        iter_campaign(GAUNTLET, workers=1, skip_run_ids=skip, backend="batch")
    )
    merged = head + canonical(tail)
    merged.sort(key=lambda line: json.loads(line)["run_id"])
    assert merged == slow_baseline


def test_gauntlet_exercises_columnar_state_tier():
    """The tier coverage the batch identity tests above rely on is real.

    The byte-identity claims are only as strong as the tiers the gauntlet
    actually dispatches through: if planner eligibility ever regressed and
    every seed-dependent timed cell silently demoted to columnar/scalar,
    the suite would pass vacuously.  Pin the gauntlet's per-tier cell
    counts, as ``repro campaign plan gauntlet`` reports them: the
    stochastic lockstep cells (``flaky_gst`` / ``lossy_channel``) run on
    the columnar-state tier next to their timed twins, and the scalar
    cells left are the inadmissible class-1 (7,1,1) cells and the
    lockstep ``async_then_sync`` cells, whose ``adaptive-liar`` reads its
    inbox.
    """
    from collections import Counter

    from repro.engine.batch import (
        MODE_COLUMNAR,
        MODE_COLUMNAR_STATE,
        MODE_REPLICATE,
        MODE_SCALAR,
        plan_for_run,
    )

    tiers = Counter(plan_for_run(run).mode for run in GAUNTLET.iter_runs())
    assert tiers == {
        MODE_REPLICATE: 50,
        MODE_COLUMNAR_STATE: 20,
        MODE_COLUMNAR: 5,
        MODE_SCALAR: 21,
    }


@pytest.fixture
def byz_lossy_scenario():
    """A synthetic Byzantine + lossy scenario, registered for one test.

    No builtin scenario combines Byzantine strategies with seed-dependent
    timed delivery, so without this cell the columnar-state tier's
    Byzantine payload templates would only ever face reliable delivery.
    Registered/unregistered by hand: the registry is process-global and
    must not leak into other tests (inline workers only — a pool worker
    process would never see this registration).
    """
    from repro.scenarios import CommSpec, ScenarioSpec, register_scenario
    from repro.scenarios.registry import SCENARIO_REGISTRY

    spec = ScenarioSpec(
        name="byz_lossy_identity",
        byzantine=("equivocator", "high-ts-liar"),
        comm=CommSpec(kind="lossy", drop_prob=0.3),
        max_phases=15,
    )
    register_scenario(spec)
    try:
        yield spec
    finally:
        del SCENARIO_REGISTRY[spec.name]


def test_forced_columnar_state_cell_matches_scalar_oracle(byz_lossy_scenario):
    """Byzantine payloads under lossy masks: forced tier vs the oracle.

    Every run of the synthetic cell must plan columnar-state (not merely
    happen to), and the batch rows must match the scalar oracle byte for
    byte — on the numpy array program and on the pure-python block
    fallback alike.
    """
    import os

    from repro.campaigns import CampaignSpec
    from repro.campaigns.runner import execute_chunk
    from repro.engine.batch import MODE_COLUMNAR_STATE, plan_for_run

    spec = CampaignSpec(
        name="byz-lossy-forced",
        algorithms=("class-2", "class-3"),
        models=((11, 2, 1),),
        engines=("timed",),
        scenarios=(byz_lossy_scenario.name,),
        repetitions=8,
        seed=13,
    )
    runs = tuple(spec.iter_runs())
    assert all(
        plan_for_run(run).mode == MODE_COLUMNAR_STATE for run in runs
    )
    scalar = canonical(execute_chunk(runs, False, "scalar"))
    assert all('"status": "ok"' in line for line in scalar)
    assert canonical(execute_chunk(runs, False, "batch")) == scalar
    os.environ["REPRO_NO_NUMPY"] = "1"
    try:
        fallback = canonical(execute_chunk(runs, False, "batch"))
    finally:
        del os.environ["REPRO_NO_NUMPY"]
    assert fallback == scalar


#: Lockstep cells whose delivery masks exercise every policy clause the
#: columnar-state tier mirrors: per-edge loss coins under equivocation,
#: good-bad ``drop`` bad rounds next to good selection rounds (where Pcons
#: collapses the equivocator to one canonical payload), and the draw-free
#: ``partition`` / ``silence`` bad rounds.
LOCKSTEP_MASK_SCENARIOS = {
    "lossy": dict(
        byzantine=("equivocator", "high-ts-liar"),
        comm=dict(kind="lossy", drop_prob=0.2),
    ),
    "drop": dict(
        byzantine=("equivocator",),
        comm=dict(
            kind="good-bad", schedule="alternating", good_len=2, bad_len=1,
            bad="drop", drop_prob=0.5,
        ),
    ),
    "partition": dict(
        byzantine=("equivocator", "fake-history-liar"),
        comm=dict(
            kind="good-bad", schedule="after", good_from=6, bad="partition"
        ),
    ),
    "silence": dict(
        byzantine=("vote-flipper", "equivocator"),
        comm=dict(
            kind="good-bad", schedule="after", good_from=5, bad="silence"
        ),
    ),
}


@pytest.fixture
def lockstep_mask_scenario(request):
    """One synthetic lockstep scenario, registered for one test.

    Registered/unregistered by hand like ``byz_lossy_scenario``: the
    registry is process-global and must not leak into other tests.
    """
    from repro.scenarios import CommSpec, ScenarioSpec, register_scenario
    from repro.scenarios.registry import SCENARIO_REGISTRY

    shape = LOCKSTEP_MASK_SCENARIOS[request.param]
    spec = ScenarioSpec(
        name=f"lockstep_{request.param}_identity",
        byzantine=shape["byzantine"],
        comm=CommSpec(**shape["comm"]),
        max_phases=15,
    )
    register_scenario(spec)
    try:
        yield spec
    finally:
        del SCENARIO_REGISTRY[spec.name]


@pytest.mark.parametrize("numpy", ["accel", "pure-python"])
@pytest.mark.parametrize(
    "lockstep_mask_scenario", sorted(LOCKSTEP_MASK_SCENARIOS), indirect=True
)
def test_forced_lockstep_columnar_state_matches_scalar_oracle(
    monkeypatch, lockstep_mask_scenario, numpy
):
    """Lockstep delivery masks vs the oracle, classes 1/2/3, byte for byte.

    Every cell is forced onto the columnar-state tier (the draw-free
    ``partition`` / ``silence`` cells would otherwise replicate); without
    numpy the tier demotes straight to the scalar oracle.
    """
    from itertools import groupby

    from repro.campaigns import CampaignSpec
    from repro.campaigns.runner import execute_run
    from repro.engine.batch import (
        MODE_COLUMNAR_STATE,
        MODE_REPLICATE,
        BatchPlan,
        cell_key,
        plan_for_run,
        run_batch,
    )
    from repro.utils.accel import get_numpy

    if numpy == "pure-python":
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
    spec = CampaignSpec(
        name="lockstep-masks-forced",
        algorithms=("class-1", "class-2", "class-3"),
        models=((11, 2, 0),),
        engines=("lockstep",),
        scenarios=(lockstep_mask_scenario.name,),
        repetitions=6,
        seed=13,
    )
    runs = list(spec.iter_runs())
    # The coin-drawing cells reach the tier through the planner itself.
    comm = lockstep_mask_scenario.comm
    draws = comm.kind == "lossy" or comm.bad == "drop"
    planned = MODE_COLUMNAR_STATE if draws else MODE_REPLICATE
    assert {plan_for_run(run).mode for run in runs} == {planned}
    forced = BatchPlan(MODE_COLUMNAR_STATE, "forced")
    rows = []
    for _, cell in groupby(runs, key=cell_key):
        rows.extend(run_batch(list(cell), plan=forced))
    scalar = canonical([execute_run(run) for run in runs])
    assert all('"status": "ok"' in line for line in scalar)
    assert canonical(rows) == scalar
    tier = "columnar-state" if get_numpy() is not None else "scalar"
    assert {row["_backend"] for row in rows} == {tier}
