"""Columnar batched execution: whole campaign cells as array programs.

One campaign *cell* is B runs differing only in repetition index and
derived seed.  This package executes a cell as a unit — see
:mod:`repro.engine.batch.plan` for the four execution tiers (replicate /
columnar-state / columnar / scalar), :mod:`repro.engine.batch.scheduler`
for the block-stream timed scheduler, :mod:`repro.engine.batch.kernel`
for the sweep that drives B timed kernels round by round, and
:mod:`repro.engine.batch.columnar_state` for the top tier, which runs the
generic algorithm itself as one array program over ``(B runs × n
processes)`` state — for seed-dependent cells of either engine.

The columnar-state contracts
============================

The columnar-state tier rests on two cell-level encodings, both proven
when a round's template is built (before any run executes that round) and
demoted (never fudged) when unprovable:

* **Value encoding** — a cell's value alphabet is *closed*: honest initial
  values plus every payload its (inbox-free, run-invariant) Byzantine
  strategies can utter across the round horizon.
  :func:`repro.core.columnar.encode_alphabet` assigns each value a small
  int code in :func:`repro.utils.det._sort_key` order, so every
  ``deterministic_choice`` of the algorithm is a plain ``min`` over codes;
  ``-1`` is the paper's ``null``, and the ``?`` (ANY) outcome travels as a
  separate boolean mask.  A value outside the alphabet, or two values
  whose sort keys collide, demotes the cell.

* **Mask contract** — the per-run seed enters the array program **only**
  through ``(B, n, n)`` boolean delivery masks (dest-major:
  ``mask[b, dest, sender]``).  Each round's mask is produced by mirroring
  the scalar scheduler draw for draw on the run's own ``BlockRng``
  streams.  A timed cell has two: scenario-filter coins first (policy
  stream), then latency samples against the round deadline (network
  stream).  A lockstep cell has one, the delivery policy's stream: loss
  coins for the edges whose receiver is not Byzantine, in sender-major
  outbound order, in ``lossy`` rounds and ``drop`` bad rounds; good
  rounds (``Pcons`` in selection rounds, ``Pgood`` elsewhere) and
  ``partition`` / ``silence`` rounds draw nothing and are templates.
  Everything else — payloads, suggestion sets, validator sets, edge
  lists, wall-clock windows — is a per-cell template shared by all runs.

The per-run RNG-stream contract
===============================

Batch row *b* consumes **exactly the streams of the scalar run with the
same coordinate-derived seed** — never a shared batch stream, never a
re-partitioned one:

* the timed network stream of run *b* is seeded ``seed_b``, and the
  policy/filter stream of run *b* is an independent generator also seeded
  ``seed_b`` — precisely the two streams scalar compilation builds (a
  lockstep run has only the policy stream);
* bulk draws (:meth:`~repro.utils.accel.BlockRng.block`) return the next
  *k* values of that run's own stream, bit-identical to *k* successive
  ``random.Random.random()`` calls (``BlockRng`` transplants the MT19937
  state into ``numpy.random.RandomState``, which implements the same
  53-bit double derivation; :func:`~repro.utils.accel.get_numpy`
  self-checks this once per process and disables numpy on any mismatch);
* array arithmetic mirrors the scalar expressions op for op
  (``low + span * u``, selective ``* chaos``, ``min(·, δ)``), so the
  floats — not just the draws — are bit-identical.

Consequences: result JSONL is byte-identical at any ``(workers, chunk,
backend)`` combination; resuming a campaign with the backend switched
changes nothing (each row depends only on its own seed); and removing any
subset of runs from a batch leaves the remaining rows' bytes untouched.
``tests/engine/test_batch_backend.py`` pins each clause.
"""

from repro.engine.batch.kernel import cell_key, run_batch
from repro.engine.batch.plan import (
    COLUMNAR_STATE_STRATEGIES,
    DETERMINISTIC_STRATEGIES,
    MODE_COLUMNAR,
    MODE_COLUMNAR_STATE,
    MODE_REPLICATE,
    MODE_SCALAR,
    BatchPlan,
    plan_cell,
    plan_for_run,
)
from repro.engine.batch.scheduler import (
    ColumnarTimedScheduler,
    compile_batch_scenario,
)

__all__ = [
    "COLUMNAR_STATE_STRATEGIES",
    "DETERMINISTIC_STRATEGIES",
    "MODE_COLUMNAR",
    "MODE_COLUMNAR_STATE",
    "MODE_REPLICATE",
    "MODE_SCALAR",
    "BatchPlan",
    "ColumnarTimedScheduler",
    "cell_key",
    "compile_batch_scenario",
    "plan_cell",
    "plan_for_run",
    "run_batch",
]
