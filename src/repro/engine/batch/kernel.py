"""The batch kernel: execute one campaign cell's runs as a unit.

:func:`run_batch` takes B runs of **one cell** (same algorithm, model,
engine and scenario — differing only in repetition and derived seed) and
produces exactly the rows the scalar oracle
(:func:`~repro.campaigns.runner.execute_run`) would, in input order:

* replicate tier — execute one representative, clone its row per run with
  only the per-run coordinates (``run_id``, ``rep``, ``seed``) patched;
* columnar-state tier — execute the whole cell as one array program over
  ``(B runs × n processes)`` state (:mod:`repro.engine.batch
  .columnar_state`), the per-run seed entering only through delivery
  masks; any build-time surprise demotes a timed cell to the columnar
  tier and a lockstep cell to the scalar oracle;
* columnar tier — drive B timed kernels round by round in lockstep, each
  over its own block-capable RNG streams (bulk latency draws), finalizing
  each run the moment its stop condition fires;
* scalar tier — per-run oracle execution, byte for byte.

Fallback discipline: any batch-path surprise that the scalar oracle would
report as an ``error`` row (an exception inside compilation, assembly or
the round loop) re-executes that run through the oracle itself instead of
fabricating the row — error tracebacks embed frame names, and only the
oracle's frames are byte-stable across backends.  Rows that carry no
traceback (``inadmissible`` / ``inapplicable`` and resolution failures,
whose text is a plain message) are emitted directly.

Every row is tagged with a volatile ``_backend`` field (``replicate`` /
``columnar-state`` / ``columnar`` / ``scalar``) for the events sidecar and
progress display; volatile fields never reach the canonical JSONL.
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.campaigns.spec import RunSpec
from repro.core.types import FaultModel
from repro.engine.assembly import build_instance
from repro.engine.batch.columnar_state import columnar_state_rows
from repro.engine.batch.plan import (
    MODE_COLUMNAR,
    MODE_COLUMNAR_STATE,
    MODE_REPLICATE,
    BatchPlan,
    plan_for_run,
)
from repro.engine.batch.scheduler import compile_batch_scenario
from repro.engine.kernel import OBSERVE_METRICS, ExecutionKernel, kernel_outcome
from repro.observability.telemetry import Telemetry
from repro.scenarios.compile import ScenarioInapplicable
from repro.scenarios.spec import split_values

__all__ = ["cell_key", "run_batch"]

Row = Dict[str, object]


def cell_key(run: RunSpec) -> Tuple:
    """The campaign-cell coordinate of a run: everything but (rep, seed).

    Runs sharing this key differ only in repetition index and derived
    seed — the precondition for batching them through :func:`run_batch`.
    """
    return (run.algorithm, run.n, run.b, run.f, run.engine, run.scenario)


def run_batch(
    runs: Sequence[RunSpec],
    *,
    timings: bool = False,
    telemetry: Optional[Telemetry] = None,
    plan: Optional[BatchPlan] = None,
) -> List[Row]:
    """Execute one cell's runs through the planned batch tier (never raises).

    Returns one row per run, in input order, byte-identical (after
    volatile-field stripping) to mapping the scalar oracle over ``runs``.
    ``plan`` defaults to :func:`~repro.engine.batch.plan.plan_for_run` on
    the first run; ``timings=True`` stamps each row with the batch's
    equal-share wall time (volatile, like the oracle's own timing fields).
    """
    if not runs:
        return []
    if timings:
        started = perf_counter()
        rows = run_batch(runs, telemetry=telemetry, plan=plan)
        share = round((perf_counter() - started) * 1000 / len(rows), 3)
        pid = os.getpid()
        for row in rows:
            row["_elapsed_ms"] = share
            row["_pid"] = pid
        return rows
    if plan is None:
        plan = plan_for_run(runs[0])
    if telemetry is not None:
        telemetry.count("batch.rows", len(runs))

    rows: Optional[List[Optional[Row]]] = None
    tier = "batch.columnar_rows"
    # Tier production is demotion-safe: a tier that cannot hold its
    # oracle-identity contract returns ``None`` rows, and a tier that
    # *raises* (a broken template assumption surfacing at execution
    # rather than build time) demotes the same way — the cell re-executes
    # on the per-run oracle, so ``run_batch`` keeps its never-raises,
    # byte-identical contract no matter how a tier fails.
    try:
        if plan.mode == MODE_REPLICATE:
            rows = _replicate_rows(runs)
            tier = "batch.replicated_rows"
        elif plan.mode in (MODE_COLUMNAR, MODE_COLUMNAR_STATE):
            if telemetry is not None:
                with telemetry.span("scheduler.batch"):
                    rows, tier = _array_rows(runs, plan.mode)
            else:
                rows, tier = _array_rows(runs, plan.mode)
    except Exception:
        rows = None

    if rows is None:
        rows = [None] * len(runs)

    # Scalar completion: the planner's scalar tier, a replicate
    # representative that errored, or individual columnar rows that fell
    # back — all re-execute through the per-run oracle.
    from repro.campaigns.runner import execute_run

    pending = [index for index, row in enumerate(rows) if row is None]
    if telemetry is not None:
        produced = len(runs) - len(pending)
        if pending:
            telemetry.count("batch.fallback_scalar", len(pending))
        if produced:
            telemetry.count(tier, produced)
    for index in pending:
        row = execute_run(runs[index])
        row["_backend"] = "scalar"
        rows[index] = row
    return rows  # type: ignore[return-value]


def _array_rows(
    runs: Sequence[RunSpec], mode: str
) -> Tuple[Optional[List[Optional[Row]]], str]:
    """The array tiers' row production, with the telemetry counter earned.

    The columnar-state tier may demote the whole cell (``None`` result —
    numpy absent or a template assumption failed at build time).  A timed
    cell then runs — and is counted — as the per-run columnar tier; the
    columnar tier is timed-only, so a lockstep cell goes straight to the
    scalar oracle (``None`` rows).
    """
    if mode == MODE_COLUMNAR_STATE:
        rows = columnar_state_rows(runs)
        if rows is not None:
            return rows, "batch.columnar_state_rows"
    if runs[0].engine != "timed":
        return None, "batch.columnar_rows"
    return _columnar_rows(runs), "batch.columnar_rows"


def _replicate_rows(runs: Sequence[RunSpec]) -> Optional[List[Optional[Row]]]:
    """One representative execution, cloned across the cell's runs.

    Valid only under the planner's seed-independence proof.  A
    representative ``error`` row aborts the tier (``None`` → full scalar
    fallback): errors may be transient, and their traceback text is only
    byte-stable when each run produces its own.
    """
    from repro.campaigns.runner import STATUS_ERROR, execute_run

    representative = execute_run(runs[0])
    if representative["status"] == STATUS_ERROR:
        return None
    rows: List[Optional[Row]] = []
    for run in runs:
        row = dict(representative)
        row["run_id"] = run.run_id
        row["rep"] = run.rep
        row["seed"] = run.seed
        row["_backend"] = "replicate"
        rows.append(row)
    return rows


class _RowState:
    """One in-flight run of a columnar sweep."""

    __slots__ = ("index", "run", "row", "instance", "kernel", "max_rounds", "target")

    def __init__(self, index, run, row, instance, kernel, max_rounds, target):
        self.index = index
        self.run = run
        self.row = row
        self.instance = instance
        self.kernel = kernel
        self.max_rounds = max_rounds
        self.target = target


def _columnar_rows(runs: Sequence[RunSpec]) -> List[Optional[Row]]:
    """Advance every run's timed kernel in lockstep, one round per pass.

    The per-run prologue mirrors the scalar oracle's step for step (same
    exception-to-status mapping, same messages); the round loop then
    replays :meth:`ExecutionKernel.run`'s step-then-check semantics per
    kernel, so early-stopping runs finalize on exactly the same round.
    ``None`` entries mark rows the caller must complete through the
    oracle — and so does every run whose engine is not ``timed``: the
    sweep compiles the timed scheduler, which must never stand in for
    another engine.
    """
    from repro.campaigns.runner import (
        STATUS_ERROR,
        STATUS_INADMISSIBLE,
        STATUS_INAPPLICABLE,
        _base_row,
        _resolve_algorithm_memo,
    )

    rows: List[Optional[Row]] = [None] * len(runs)
    states: List[_RowState] = []
    for index, run in enumerate(runs):
        if run.engine != "timed":
            continue  # oracle fallback
        row = _base_row(run)
        try:
            model = FaultModel(run.n, run.b, run.f)
        except ValueError as exc:
            row.update(status=STATUS_INADMISSIBLE, error=str(exc))
            rows[index] = _tag(row)
            continue
        try:
            parameters, config = _resolve_algorithm_memo(run.algorithm, model)
        except ValueError as exc:
            row.update(status=STATUS_INADMISSIBLE, error=str(exc))
            rows[index] = _tag(row)
            continue
        except Exception as exc:
            # Head only, exactly like the oracle: memoized rejections
            # replay with their traceback reset.
            row.update(
                status=STATUS_ERROR, error=f"{type(exc).__name__}: {exc}"
            )
            rows[index] = _tag(row)
            continue
        hosted = parameters.model
        if hosted.b < model.b or hosted.f < model.f:
            row.update(
                status=STATUS_INADMISSIBLE,
                error=(
                    f"{run.algorithm} hosts (b={hosted.b}, f={hosted.f}), "
                    f"grid point wants (b={model.b}, f={model.f})"
                ),
            )
            rows[index] = _tag(row)
            continue
        try:
            compiled = compile_batch_scenario(run.scenario, model, run.seed)
        except ScenarioInapplicable as exc:
            row.update(status=STATUS_INAPPLICABLE, error=str(exc))
            rows[index] = _tag(row)
            continue
        except Exception:
            continue  # oracle fallback: traceback rows must be its own
        initial_values = split_values(model, compiled.byzantine)
        max_phases = max(run.max_phases, compiled.max_phases(run.max_phases))
        try:
            instance = build_instance(
                parameters,
                initial_values,
                config=config,
                byzantine=compiled.byzantine,
            )
            kernel = ExecutionKernel(
                instance.parameters.model,
                instance.processes,
                compiled.scheduler,
                instance.structure.info,
                context=instance.context,
                crash_schedule=compiled.crash_schedule,
                snapshot_fn=instance.snapshot,
                decision_probe=instance.decision_probe,
                record_snapshots=False,
                observe=OBSERVE_METRICS,
            )
            max_rounds = instance.structure.rounds_for_phases(max_phases)
        except Exception:
            continue  # oracle fallback
        states.append(
            _RowState(
                index,
                run,
                row,
                instance,
                kernel,
                max_rounds,
                kernel.eventually_correct,
            )
        )

    active = states
    while active:
        survivors: List[_RowState] = []
        for state in active:
            kernel = state.kernel
            try:
                kernel.step()
            except Exception:
                continue  # oracle fallback for this run
            if (
                kernel.rounds_executed >= state.max_rounds
                or state.target <= _decided(kernel)
            ):
                rows[state.index] = _finalize(state)
            else:
                survivors.append(state)
        active = survivors
    # Zero-round horizons (max_rounds ≤ 0) never enter the loop above;
    # finalize them without stepping, as ExecutionKernel.run would.
    for state in states:
        if state.max_rounds <= 0 and rows[state.index] is None:
            rows[state.index] = _finalize(state)
    return rows


def _decided(kernel: ExecutionKernel) -> Set:
    return set(kernel.decisions)


def _finalize(state: _RowState) -> Optional[Row]:
    """Fold one finished kernel into its result row (oracle field set)."""
    row = state.row
    try:
        outcome = kernel_outcome(state.instance, state.kernel)
        row.update(
            decided=len(outcome.decisions),
            rounds=outcome.rounds_executed,
            phases=None,  # the columnar tier is timed-only: no phase metric
            time_to_decision=outcome.last_decision_time,
            messages_sent=outcome.messages_sent,
            messages_delivered=outcome.messages_delivered,
            messages_dropped=outcome.messages_dropped,
            **outcome.invariant_report(),
        )
    except Exception:
        return None  # oracle fallback
    return _tag(row)


def _tag(row: Row) -> Row:
    row["_backend"] = "columnar"
    return row
