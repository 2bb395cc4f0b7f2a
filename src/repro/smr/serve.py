"""Pipelined, batched SMR serving: open-loop client load through consensus.

The paper's Section 5.3 frames Paxos/PBFT as "a sequence of instances of
consensus".  This module is that sequence run as a *service*: an open-loop
workload of client commands flows into a replicated log where each slot is
decided by one instance of the generic algorithm on the unified kernel's
``observe="metrics"`` hot path, with the two classic serving optimizations:

* **request batching** — one consensus instance decides an ordered *batch*
  of commands per slot (``batch`` commands / ``batch_bytes`` bytes cap),
  formed deterministically in arrival order;
* **leader pipelining** — up to ``depth`` slots are in flight at once
  (slot ``k+1`` proposed while slot ``k`` is still deciding), with
  out-of-order decide buffered and applied *in order* through the
  replicated log's contiguous prefix watermark.

Time is simulated: slot ``s`` proposed at clock ``t`` commits at ``t + d``
where ``d`` is the deciding instance's duration (simulated time on the
timed engine, rounds × ``round_cost`` under lockstep), so a request's
latency is ``apply_time − arrival_time`` — arrivals are open-loop and never
wait for service progress.  Every honest replica proposes the same batch,
so a slot's decided value equals its batch whenever the decision is honest;
an undecided slot (or a Byzantine-injected foreign value) is retried *in
the same slot index* with an attempt-derived seed, which keeps the
committed command sequence FIFO-equal to the arrival order at **every**
``(batch, depth)`` setting — the digest-equivalence oracle the test suite
sweeps.

The workload generator is lazy end to end (per-client arrival streams
merged on the fly), so a million-request run holds O(clients) state.
"""

from __future__ import annotations

import hashlib
import heapq
import operator
import random
from collections import deque
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.campaigns.spec import derive_seed, resolve_algorithm
from repro.core.types import FaultModel
from repro.engine.assembly import build_instance
from repro.engine.kernel import OBSERVE_METRICS, run_instance
from repro.observability.telemetry import Telemetry
from repro.scenarios.compile import ScenarioInapplicable, compile_scenario
from repro.scenarios.registry import SCENARIO_REGISTRY, get_scenario
from repro.scenarios.spec import ScenarioSpec
from repro.smr.log import LogEntry, ReplicatedLog
from repro.smr.machine import Command, KeyValueStore, StateMachine

__all__ = [
    "ServeConfig",
    "ServeReport",
    "WorkloadSpec",
    "run_serve",
    "sweep_serve",
]

#: Arrival disciplines the workload generator supports.
ARRIVALS = ("poisson", "fixed")

#: Histogram the per-request latencies land in.
LATENCY_HISTOGRAM = "smr.request_latency"


# --------------------------------------------------------------- workload


@dataclass(frozen=True)
class WorkloadSpec:
    """An open-loop client workload: seeded arrivals, generated lazily.

    ``rate`` is the *aggregate* arrival rate (commands per simulated time
    unit) split evenly over ``clients``; each client draws its own seeded
    inter-arrival stream (exponential for ``"poisson"``, constant for
    ``"fixed"``) and issues ``("set", key, seq)`` commands over a ``keys``-
    sized keyspace.  Streams are merged by arrival time on the fly, so the
    expected ``rate × duration`` commands are never materialized — millions
    of requests cost O(clients) memory.
    """

    clients: int = 4
    rate: float = 200.0
    duration: float = 1.0
    arrival: str = "poisson"
    keys: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ValueError(f"clients must be ≥ 1, got {self.clients}")
        if self.rate <= 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")
        if self.duration <= 0:
            raise ValueError(f"duration must be > 0, got {self.duration}")
        if self.arrival not in ARRIVALS:
            raise ValueError(
                f"unknown arrival discipline {self.arrival!r}; known: {ARRIVALS}"
            )
        if self.keys < 1:
            raise ValueError(f"keys must be ≥ 1, got {self.keys}")

    @property
    def expected_commands(self) -> int:
        """The expected arrival count (exact for ``"fixed"``)."""
        return int(self.rate * self.duration)

    def client_stream(self, client: int) -> Iterator[Tuple[float, Command]]:
        """One client's lazy ``(arrival_time, command)`` stream."""
        rng = random.Random(derive_seed(self.seed, f"client{client}"))
        rate = self.rate / self.clients
        step = 1.0 / rate
        now = 0.0
        seq = 0
        while True:
            if self.arrival == "poisson":
                now += rng.expovariate(rate)
            else:
                # Multiply, don't accumulate: summed steps drift past the
                # duration boundary and drop the last arrival.
                now = step * (seq + 1)
            if now > self.duration:
                return
            yield now, ("set", f"c{client}k{seq % self.keys}", seq)
            seq += 1

    def arrivals(self) -> Iterator[Tuple[float, Command]]:
        """All clients' streams merged by arrival time (ties: client id)."""

        def tagged(client: int) -> Iterator[Tuple[float, int, Command]]:
            for when, command in self.client_stream(client):
                yield when, client, command

        merged = heapq.merge(*(tagged(c) for c in range(self.clients)))
        for when, _client, command in merged:
            yield when, command


# ----------------------------------------------------------------- config


@dataclass(frozen=True)
class ServeConfig:
    """The serving side: consensus cell, batching and pipelining knobs.

    ``batch`` caps commands per slot, ``batch_bytes`` additionally caps the
    batch's ``repr`` payload (a batch always holds at least one command);
    ``depth`` is the pipeline window — how many slots may be deciding at
    once.  ``batch=1, depth=1`` is the slot-at-a-time baseline every other
    setting must be digest-equal to.  ``max_attempts`` bounds same-slot
    retries before the service reports itself stalled.
    """

    algorithm: str = "pbft"
    n: int = 4
    b: int = 1
    f: int = 0
    scenario: Union[str, ScenarioSpec] = "fault-free"
    engine: str = "lockstep"
    batch: int = 8
    batch_bytes: Optional[int] = None
    depth: int = 2
    seed: int = 0
    max_phases: Optional[int] = None
    max_attempts: int = 8
    #: Simulated duration of one lockstep round (timed runs use the
    #: network's own simulated clock instead).
    round_cost: float = 1.0

    def __post_init__(self) -> None:
        if self.batch < 1:
            raise ValueError(f"batch must be ≥ 1, got {self.batch}")
        if self.batch_bytes is not None and self.batch_bytes < 1:
            raise ValueError(f"batch_bytes must be ≥ 1, got {self.batch_bytes}")
        if self.depth < 1:
            raise ValueError(f"depth must be ≥ 1, got {self.depth}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be ≥ 1, got {self.max_attempts}")
        if self.round_cost <= 0:
            raise ValueError(f"round_cost must be > 0, got {self.round_cost}")

    def scenario_spec(self) -> ScenarioSpec:
        if isinstance(self.scenario, ScenarioSpec):
            return self.scenario
        return get_scenario(self.scenario)


# ----------------------------------------------------------------- report


@dataclass
class ServeReport:
    """Everything a serve run measured, JSON-friendly via :meth:`to_row`."""

    algorithm: str
    scenario: str
    engine: str
    batch: int
    depth: int
    #: Commands that arrived (entered the open-loop queue).
    offered: int
    #: Commands committed and applied in log order.
    committed_commands: int
    slots_committed: int
    #: Extra same-slot consensus attempts (undecided or rejected value).
    retries: int
    #: Attempts whose decided value was not the proposed batch.
    rejected: int
    #: True when a slot exhausted ``max_attempts`` and serving stopped.
    stalled: bool
    simulated_duration: float
    wall_seconds: float
    #: Committed commands per wall-clock second — the bench figure.
    throughput: float
    #: Request-latency stats (simulated units): count/min/max/mean/p50/p95/p99.
    latency: Dict[str, float]
    digests_agree: bool
    #: The common state-machine digest (``None`` if replicas diverged).
    digest: Optional[str]
    #: Digest over the committed command sequence (prefix-equality oracle).
    log_digest: str
    #: The run's instrument registry (counters + latency histogram).
    telemetry: Optional[Telemetry] = field(default=None, repr=False)

    @property
    def mean_batch_size(self) -> float:
        if not self.slots_committed:
            return 0.0
        return self.committed_commands / self.slots_committed

    def to_row(self) -> Dict[str, object]:
        """A flat JSON-serializable row (telemetry handle stripped)."""
        row: Dict[str, object] = {
            "algorithm": self.algorithm,
            "scenario": self.scenario,
            "engine": self.engine,
            "batch": self.batch,
            "depth": self.depth,
            "offered": self.offered,
            "committed_commands": self.committed_commands,
            "slots_committed": self.slots_committed,
            "retries": self.retries,
            "rejected": self.rejected,
            "stalled": self.stalled,
            "simulated_duration": round(self.simulated_duration, 6),
            "digests_agree": self.digests_agree,
            "digest": self.digest,
            "log_digest": self.log_digest,
        }
        for column in ("p50", "p95", "p99", "mean", "max"):
            value = self.latency.get(column)
            row[f"latency_{column}"] = (
                round(value, 6) if value is not None else None
            )
        # Wall time and the throughput derived from it are volatile
        # (machine-dependent); keep them out of the canonical columns the
        # sweep JSONL is compared on.
        row["_wall_seconds"] = round(self.wall_seconds, 6)
        row["_throughput"] = round(self.throughput, 2)
        return row


def _log_digest(entries: Iterable[LogEntry]) -> str:
    """SHA-256 over a committed prefix's flattened command sequence."""
    digest = hashlib.sha256()
    for entry in entries:
        for command in entry.command:
            digest.update(repr(command).encode("utf-8"))
    return digest.hexdigest()


def _log_digests(logs: Iterable[ReplicatedLog]) -> set:
    """The distinct log digests of the honest replicas.

    The serve loop commits one :class:`LogEntry` object per slot to every
    replica, so the committed prefixes normally hold the *identical*
    entries; then one hash covers them all.  Otherwise each log is hashed
    on its own.
    """
    prefixes = [list(log.committed_prefix()) for log in logs]
    if prefixes and all(
        len(prefix) == len(prefixes[0])
        and all(map(operator.is_, prefix, prefixes[0]))
        for prefix in prefixes
    ):
        return {_log_digest(prefixes[0])}
    return {_log_digest(prefix) for prefix in prefixes}


# ------------------------------------------------------------------ serve


class _SlotRunner:
    """Executes one log slot's consensus (with same-slot retry semantics)."""

    def __init__(self, config: ServeConfig, telemetry: Telemetry) -> None:
        self._config = config
        self._telemetry = telemetry
        self._spec = config.scenario_spec()
        self._model = FaultModel(config.n, config.b, config.f)
        self._parameters, self._algo_config = resolve_algorithm(
            config.algorithm, self._model
        )
        # Same admissibility rule as the campaign runner: a config asking
        # for more faults than the algorithm's envelope hosts (crash
        # faults under PBFT, say) is not servable.
        hosted = self._parameters.model
        if hosted.b < self._model.b or hosted.f < self._model.f:
            raise ScenarioInapplicable(
                f"{config.algorithm} hosts (b={hosted.b}, f={hosted.f}), "
                f"serve config wants (b={self._model.b}, f={self._model.f})"
            )
        # Placement is seed-independent — compile once up front so an
        # inapplicable scenario raises before any state is built.
        probe = compile_scenario(
            self._spec, self._model, config.engine, 0
        )
        self.byzantine = probe.byzantine
        self._max_phases = (
            config.max_phases
            if config.max_phases is not None
            else probe.max_phases()
        )
        self.retries = 0
        self.rejected = 0

    @property
    def model(self) -> FaultModel:
        return self._model

    def run(
        self, slot: int, batch: Command
    ) -> Tuple[float, Optional[int], bool]:
        """Decide ``batch`` in ``slot``; returns (duration, phases, ok).

        Each attempt is one consensus instance under an attempt-derived
        seed; the duration of *every* attempt accumulates into the slot's
        commit latency.  ``ok=False`` means the slot exhausted its attempt
        budget — the service reports itself stalled.
        """
        config = self._config
        telemetry = self._telemetry
        duration = 0.0
        phases: Optional[int] = None
        for attempt in range(config.max_attempts):
            run_seed = derive_seed(config.seed, f"slot{slot}attempt{attempt}")
            compiled = compile_scenario(
                self._spec, self._model, config.engine, run_seed
            )
            values = {
                pid: batch
                for pid in self._model.processes
                if pid not in compiled.byzantine
            }
            instance = build_instance(
                self._parameters,
                values,
                config=self._algo_config,
                byzantine=compiled.byzantine,
            )
            outcome = run_instance(
                instance,
                compiled.scheduler,
                max_phases=self._max_phases,
                observe=OBSERVE_METRICS,
                crash_schedule=compiled.crash_schedule,
            )
            telemetry.count("smr.messages", outcome.messages_sent)
            telemetry.count("smr.rounds", outcome.rounds_executed)
            if config.engine == "timed" and outcome.simulated_time is not None:
                duration += outcome.simulated_time
            else:
                duration += outcome.rounds_executed * config.round_cost
            decided = outcome.decided_value
            if decided == batch:
                return duration, outcome.phases_to_last_decision, True
            if decided is not None:
                # All honest replicas proposed the batch, so a different
                # decided value is Byzantine-injected; a real service
                # validates commands before applying and skips the slot.
                self.rejected += 1
                telemetry.count("smr.rejected")
            self.retries += 1
            telemetry.count("smr.retries")
            phases = outcome.phases_to_last_decision
        return duration, phases, False


def run_serve(
    config: ServeConfig,
    workload: Optional[WorkloadSpec] = None,
    *,
    arrivals: Optional[Iterable[Tuple[float, Command]]] = None,
    machine_factory: Callable[[], StateMachine] = KeyValueStore,
    telemetry: Optional[Telemetry] = None,
) -> ServeReport:
    """Serve an open-loop workload through batched, pipelined consensus.

    ``arrivals`` overrides the generated workload with an explicit
    ``(arrival_time, command)`` stream (how the bench replays one fixed
    command list through both serving modes).  Raises
    :class:`~repro.scenarios.compile.ScenarioInapplicable` when the
    configured model cannot host the fault scenario.
    """
    telemetry = telemetry if telemetry is not None else Telemetry()
    workload = workload if workload is not None else WorkloadSpec()
    stream = iter(arrivals if arrivals is not None else workload.arrivals())
    runner = _SlotRunner(config, telemetry)
    honest = tuple(
        pid for pid in runner.model.processes if pid not in runner.byzantine
    )
    machines: Dict[int, StateMachine] = {pid: machine_factory() for pid in honest}
    logs: Dict[int, ReplicatedLog] = {pid: ReplicatedLog() for pid in honest}
    replicas = [(logs[pid], machines[pid]) for pid in honest]
    bytes_cap = config.batch_bytes

    pending: deque = deque()  # arrived, not yet batched: (arrival, command)
    # Deciding slots: slot → (batch, arrival times, phases), plus a heap of
    # (commit_time, slot) completions — the earliest is always heap[0].
    in_flight: Dict[int, Tuple[Command, List[float], Optional[int]]] = {}
    completions: List[Tuple[float, int]] = []
    decided: Dict[int, Tuple[Command, List[float], Optional[int]]] = {}
    clock = 0.0
    next_slot = 0
    apply_slot = 0  # in-order apply watermark (first slot not yet applied)
    offered = 0
    committed_commands = 0
    slots_committed = 0
    stalled = False
    wall_start = perf_counter()
    next_arrival = next(stream, None)

    while True:
        # Propose: fill the pipeline window from the pending queue.
        while not stalled and pending and len(in_flight) < config.depth:
            commands: List[Command] = []
            arrival_times: List[float] = []
            size = 0
            while pending and len(commands) < config.batch:
                arrived, command = pending[0]
                if bytes_cap is not None:
                    cost = len(repr(command))
                    if commands and size + cost > bytes_cap:
                        break
                    size += cost
                pending.popleft()
                commands.append(command)
                arrival_times.append(arrived)
            batch = tuple(commands)
            duration, phases, ok = runner.run(next_slot, batch)
            if not ok:
                stalled = True
                telemetry.count("smr.stalled_slots")
                break
            telemetry.count("smr.slots")
            telemetry.count("smr.commands", len(batch))
            telemetry.observe("smr.batch_size", float(len(batch)))
            in_flight[next_slot] = (batch, arrival_times, phases)
            heapq.heappush(completions, (clock + duration, next_slot))
            next_slot += 1

        arrival_due = (
            next_arrival is not None
            and not stalled
            and (not completions or next_arrival[0] <= completions[0][0])
        )
        if arrival_due:
            when, command = next_arrival  # type: ignore[misc]
            clock = max(clock, when)
            pending.append((when, command))
            offered += 1
            next_arrival = next(stream, None)
            continue
        if not completions:
            break  # nothing deciding, nothing arriving (or stalled dry)
        # Commit: pop the earliest completion; decide order may be
        # out-of-order in the slot index, so buffer and apply the
        # contiguous prefix only.
        commit_time, commit_slot = heapq.heappop(completions)
        clock = max(clock, commit_time)
        decided[commit_slot] = in_flight.pop(commit_slot)
        while apply_slot in decided:
            applied_batch, applied_arrivals, applied_phases = decided.pop(
                apply_slot
            )
            entry = LogEntry(apply_slot, applied_batch, phases=applied_phases)
            for log, machine in replicas:
                log.commit(entry)
                for command in applied_batch:
                    machine.apply(command)
            for arrived in applied_arrivals:
                telemetry.observe(LATENCY_HISTOGRAM, clock - arrived)
            committed_commands += len(applied_batch)
            slots_committed += 1
            apply_slot += 1

    wall_seconds = perf_counter() - wall_start
    digests = {machine.digest() for machine in machines.values()}
    log_digests = _log_digests(logs.values())
    latency: Dict[str, float] = {}
    if LATENCY_HISTOGRAM in telemetry.histogram_names:
        latency = telemetry.histogram_stats(LATENCY_HISTOGRAM)
    spec = runner._spec if isinstance(config.scenario, ScenarioSpec) else None
    return ServeReport(
        algorithm=config.algorithm,
        scenario=spec.name if spec is not None else str(config.scenario),
        engine=config.engine,
        batch=config.batch,
        depth=config.depth,
        offered=offered,
        committed_commands=committed_commands,
        slots_committed=slots_committed,
        retries=runner.retries,
        rejected=runner.rejected,
        stalled=stalled,
        simulated_duration=clock,
        wall_seconds=wall_seconds,
        throughput=committed_commands / wall_seconds if wall_seconds else 0.0,
        latency=latency,
        digests_agree=len(digests) == 1,
        digest=next(iter(digests)) if len(digests) == 1 else None,
        log_digest=(
            next(iter(log_digests)) if len(log_digests) == 1 else "diverged"
        ),
        telemetry=telemetry,
    )


# ------------------------------------------------------------------ sweep


#: The default load axis of :func:`sweep_serve` (commands per time unit).
DEFAULT_RATES = (50.0, 200.0, 800.0)


def sweep_serve(
    config: ServeConfig,
    workload: WorkloadSpec,
    *,
    rates: Iterable[float] = DEFAULT_RATES,
    scenarios: Optional[Iterable[Union[str, ScenarioSpec]]] = None,
    out: Optional[object] = None,
) -> List[Dict[str, object]]:
    """Campaign cells: serve the workload at every load × fault scenario.

    Each cell derives its own seeds from the base config/workload seeds and
    its coordinates (the campaign convention — rows are independent of
    sweep order).  A scenario the model cannot host becomes an
    ``"inapplicable"`` row; a stalled cell keeps its measurements under
    status ``"stalled"``.  With ``out``, rows are also written as canonical
    JSONL (volatile ``_``-prefixed columns stripped).
    """
    names = (
        list(scenarios)
        if scenarios is not None
        else sorted(SCENARIO_REGISTRY)
    )
    rows: List[Dict[str, object]] = []
    for rate in rates:
        for scenario in names:
            name = (
                scenario.name
                if isinstance(scenario, ScenarioSpec)
                else str(scenario)
            )
            coordinate = f"serve|{name}|rate{rate:g}"
            cell_config = replace(
                config,
                scenario=scenario,
                seed=derive_seed(config.seed, coordinate),
            )
            cell_workload = replace(
                workload,
                rate=rate,
                seed=derive_seed(workload.seed, coordinate),
            )
            base: Dict[str, object] = {"rate": rate, "cell": coordinate}
            try:
                report = run_serve(cell_config, cell_workload)
            except ScenarioInapplicable as exc:
                rows.append(
                    {
                        **base,
                        "status": "inapplicable",
                        "scenario": name,
                        "detail": str(exc),
                    }
                )
                continue
            rows.append(
                {
                    **base,
                    "status": "stalled" if report.stalled else "ok",
                    **report.to_row(),
                }
            )
    if out is not None:
        from repro.campaigns.results import write_rows

        write_rows(out, rows)
    return rows
