"""Seeded differential sampler: lockstep columnar-state vs the scalar oracle.

The identity suites pin a handful of hand-picked lockstep cells.  This
sampler draws ~40 more from a fixed seed — comm kind, good/bad schedule,
bad-period behaviour, loss probability, inbox-free Byzantine strategies,
algorithm class and ``n`` in 4..10 all vary — keeps only cells the
planner's eligibility proof accepts, runs each at B = 6 through
``run_batch`` on the columnar-state tier and asserts every row equals
:func:`~repro.campaigns.runner.execute_run`'s, byte for byte.

Every registered eligible algorithm suggests Π, so the sampler also
registers class instantiations whose Selector suggests a strict subset:
a ``Pcons`` audience that excludes process 0 is what tells "the payload
addressed to the lowest audience member" apart from "the first outbound
edge".
"""

from __future__ import annotations

import random

import pytest

from repro.algorithms.registry import ALGORITHM_BUILDERS, AlgorithmSpec
from repro.campaigns import CampaignSpec
from repro.campaigns.results import row_to_json
from repro.campaigns.runner import _resolve_algorithm_memo, execute_run
from repro.core.classification import AlgorithmClass, build_class_parameters
from repro.core.selector import FixedSelector, RotatingSubsetSelector
from repro.core.types import FaultModel
from repro.engine.batch import (
    COLUMNAR_STATE_STRATEGIES,
    MODE_COLUMNAR_STATE,
    BatchPlan,
    run_batch,
)
from repro.engine.batch.plan import _columnar_state_blocker
from repro.faults.byzantine import Equivocator
from repro.faults.registry import STRATEGY_REGISTRY
from repro.scenarios import CommSpec, ScenarioSpec
from repro.utils.accel import get_numpy


def _odd_members(algorithm_class):
    """Class parameters whose static Selector suggests the odd processes."""

    def build(n, b=0, f=0):
        model = FaultModel(n, b, f)
        selector = FixedSelector(model, range(1, n, 2))
        return AlgorithmSpec(
            name=f"odd-members-class-{algorithm_class.value}",
            parameters=build_class_parameters(
                algorithm_class, model, selector=selector
            ),
            algorithm_class=algorithm_class,
            paper_section="test",
        )

    return build


def _rotating_subset(n, b=0, f=0):
    """Class 1 (FLAG = *) with a pid-independent, phase-rotating Selector."""
    model = FaultModel(n, b, f)
    selector = RotatingSubsetSelector(model, size=n // 2 + 1)
    return AlgorithmSpec(
        name="rotating-subset-class-1",
        parameters=build_class_parameters(
            AlgorithmClass.CLASS_1, model, selector=selector
        ),
        algorithm_class=AlgorithmClass.CLASS_1,
        paper_section="test",
    )


SUBSET_SELECTORS = {
    "odd-members-class-1": _odd_members(AlgorithmClass.CLASS_1),
    "odd-members-class-2": _odd_members(AlgorithmClass.CLASS_2),
    "odd-members-class-3": _odd_members(AlgorithmClass.CLASS_3),
    "rotating-subset-class-1": _rotating_subset,
}
ALGORITHMS = (
    "class-1", "class-2", "class-3", "mqb", "one-third-rule",
    *SUBSET_SELECTORS,
)

#: The equivocator is weighted up: it is the strategy whose per-receiver
#: payloads tell raw delivery, Pcons collapse and timed canonicalization
#: apart.
STRATEGIES = sorted(COLUMNAR_STATE_STRATEGIES) + ["equivocator"] * 3
FORCED = BatchPlan(MODE_COLUMNAR_STATE, "forced by the sampler")
CELLS = 40
REPETITIONS = 6


def _random_comm(rng: random.Random) -> CommSpec:
    kind = rng.choice(
        ("lossy",) * 3 + ("good-bad",) * 4 + ("silent", "reliable")
    )
    drop_prob = rng.choice((0.1, 0.3, 0.5, 0.7))
    if kind != "good-bad":
        return CommSpec(kind=kind, drop_prob=drop_prob)
    schedule = rng.choice(("after", "alternating", "windows", "never"))
    return CommSpec(
        kind=kind,
        schedule=schedule,
        good_from=rng.randint(2, 9),
        windows=((rng.randint(1, 4), rng.randint(5, 9)), (12, 40)),
        good_len=rng.randint(1, 3),
        bad_len=rng.randint(1, 2),
        bad=rng.choice(("drop", "drop", "partition", "silence")),
        drop_prob=drop_prob,
    )


def _sample_cells():
    """``CELLS`` eligible lockstep cells, a pure function of the seed."""
    rng = random.Random(20240917)
    cells = []
    while len(cells) < CELLS:
        algorithm = rng.choice(ALGORITHMS)
        n, f = rng.randint(4, 10), rng.randint(0, 2)
        b = rng.choice((0, 1, 1, 2, 2))
        try:
            parameters, config = _resolve_algorithm_memo(
                algorithm, FaultModel(n, b, f)
            )
        except ValueError:
            continue
        hosted = parameters.model
        if hosted.b < b or hosted.f < f:
            continue
        byzantine = tuple(
            rng.choice(STRATEGIES) for _ in range(rng.randint(1, 2) if b else 0)
        )
        scenario = ScenarioSpec(
            name=f"sampled-{len(cells)}",
            byzantine=byzantine,
            comm=_random_comm(rng),
            max_phases=rng.randint(4, 12),
        )
        assert _columnar_state_blocker(scenario, parameters, config) is None
        cells.append(
            CampaignSpec(
                name=f"lockstep-sampler-{len(cells)}",
                algorithms=(algorithm,),
                models=((n, b, f),),
                engines=("lockstep",),
                scenarios=(scenario,),
                repetitions=REPETITIONS,
                seed=rng.randrange(2**31),
            )
        )
    return cells


#: Pinned on top of the draws: class 3 suggesting the odd processes at
#: (6, 1, 1), one equivocator (process 5), reliable delivery.  The Pcons
#: audience {1, 3} excludes process 0, and collapsing the equivocator to
#: the payload of its first outbound edge (to 0) instead of its payload to
#: process 1 makes three processes decide where the oracle decides none.
PINNED = CampaignSpec(
    name="lockstep-sampler-pinned",
    algorithms=("odd-members-class-3",),
    models=((6, 1, 1),),
    engines=("lockstep",),
    scenarios=(ScenarioSpec(name="pinned", byzantine=("equivocator",)),),
    repetitions=REPETITIONS,
    seed=3,
)


@pytest.mark.skipif(get_numpy() is None, reason="the array program needs numpy")
def test_sampled_lockstep_cells_match_scalar_oracle(monkeypatch):
    for name, builder in SUBSET_SELECTORS.items():
        monkeypatch.setitem(ALGORITHM_BUILDERS, name, builder)
    statuses = set()
    for spec in [*_sample_cells(), PINNED]:
        runs = list(spec.iter_runs())
        rows = run_batch(runs, plan=FORCED)
        for run, row in zip(runs, rows):
            oracle = execute_run(run)
            statuses.add(oracle["status"])
            assert row_to_json(row) == row_to_json(oracle), spec
            assert row["_backend"] == "columnar-state", spec
    assert statuses == {"ok"}


class _OddEquivocator(Equivocator):
    """An equivocator that addresses only the odd processes.

    Every registered strategy addresses all of Π or nobody, so a ``Pcons``
    round never has to *inject* a delivery.  This one leaves the even
    audience members unaddressed, which the oracle fills with the
    canonical payload — edges the delivered count includes and the
    dropped count must not subtract.
    """

    def send(self, info):
        return {
            dest: payload
            for dest, payload in super().send(info).items()
            if dest % 2
        }


@pytest.mark.skipif(get_numpy() is None, reason="the array program needs numpy")
@pytest.mark.parametrize(
    "comm",
    [
        CommSpec(),
        CommSpec(kind="lossy", drop_prob=0.3),
        CommSpec(
            kind="good-bad", schedule="alternating", good_len=2, bad_len=1,
            bad="drop", drop_prob=0.4,
        ),
    ],
    ids=["reliable", "lossy", "good-bad-drop"],
)
def test_pcons_injections_are_counted_edge_exact(monkeypatch, comm):
    monkeypatch.setitem(STRATEGY_REGISTRY, "odd-equivocator", _OddEquivocator)
    spec = CampaignSpec(
        name="lockstep-pcons-injection",
        algorithms=("class-2", "class-3"),
        models=((9, 2, 0),),
        engines=("lockstep",),
        scenarios=(
            ScenarioSpec(
                name="odd-equivocator",
                byzantine=("odd-equivocator", "equivocator"),
                comm=comm,
                max_phases=8,
            ),
        ),
        repetitions=REPETITIONS,
        seed=11,
    )
    runs = list(spec.iter_runs())
    for cell in (runs[:REPETITIONS], runs[REPETITIONS:]):
        rows = run_batch(cell, plan=FORCED)
        for run, row in zip(cell, rows):
            assert row["_backend"] == "columnar-state"
            assert row_to_json(row) == row_to_json(execute_run(run))
