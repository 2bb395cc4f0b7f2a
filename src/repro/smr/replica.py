"""Repeated consensus driving a replicated service.

:class:`ReplicatedService` simulates ``n`` replicas, each holding a state
machine, a replicated log, and a queue of pending client commands.  Slot by
slot, the replicas run one instance of the generic consensus algorithm whose
proposals are each replica's oldest pending command (replicas may well
propose *different* commands — consensus picks one); the decided command is
committed and applied everywhere, decided-but-different proposals return to
the queue.

This reproduces the context of Section 5.3 ("Paxos and PBFT solve a
sequence of instances of consensus — state machine replication") one slot
at a time, with replica-specific proposals.  The served workload —
batching, pipelining, open-loop load — is :func:`repro.smr.serve.run_serve`,
which ``benchmarks/bench_smr.py``, ``examples/replicated_kv_store.py`` and
``repro smr serve`` use; no other library module builds on this class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional

from repro.algorithms.registry import AlgorithmSpec
from repro.core.types import ProcessId
from repro.engine.assembly import build_instance
from repro.engine.kernel import OBSERVE_METRICS, run_instance
from repro.engine.scheduler import LockstepScheduler
from repro.faults.registry import ByzantineSpec
from repro.smr.log import LogEntry, ReplicatedLog
from repro.smr.machine import Command, StateMachine


@dataclass
class SmrReport:
    """Aggregate statistics of a service run."""

    slots_committed: int
    total_phases: int
    total_rounds: int
    total_messages: int
    digests_agree: bool

    @property
    def phases_per_slot(self) -> float:
        if self.slots_committed == 0:
            return 0.0
        return self.total_phases / self.slots_committed


class ReplicatedService:
    """A consensus-replicated deterministic service."""

    def __init__(
        self,
        spec: AlgorithmSpec,
        machine_factory: Callable[[], StateMachine],
        *,
        byzantine: Optional[Mapping[ProcessId, ByzantineSpec]] = None,
        max_phases_per_slot: int = 30,
    ) -> None:
        self._spec = spec
        self._model = spec.parameters.model
        self._byzantine = dict(byzantine or {})
        self._max_phases = max_phases_per_slot
        self._honest = [
            pid for pid in self._model.processes if pid not in self._byzantine
        ]
        self.machines: Dict[ProcessId, StateMachine] = {
            pid: machine_factory() for pid in self._honest
        }
        self.logs: Dict[ProcessId, ReplicatedLog] = {
            pid: ReplicatedLog() for pid in self._honest
        }
        self._pending: Dict[ProcessId, List[Command]] = {
            pid: [] for pid in self._honest
        }
        self._committed: set = set()
        self._stats = {"phases": 0, "rounds": 0, "messages": 0}

    @property
    def spec(self) -> AlgorithmSpec:
        return self._spec

    def submit(self, command: Command, *, to: Optional[ProcessId] = None) -> None:
        """A client submits a command (to one replica, or broadcast)."""
        targets = [to] if to is not None else self._honest
        for pid in targets:
            if pid in self._pending:
                self._pending[pid].append(command)

    def _gossip(self) -> None:
        """Disseminate pending commands between replicas.

        Models the client-request forwarding every real SMR system performs
        (a client request reaching one replica eventually reaches all).
        Without it, a targeted submission could starve behind the no-op
        proposals of the other replicas.
        """
        everything: List[Command] = []
        for pid in self._honest:
            for command in self._pending[pid]:
                if command not in everything and command not in self._committed:
                    everything.append(command)
        for pid in self._honest:
            queue = self._pending[pid]
            for command in everything:
                if command not in queue:
                    queue.append(command)

    def _proposals(self) -> Dict[ProcessId, Command]:
        """Each replica proposes its oldest pending command (or a no-op)."""
        proposals: Dict[ProcessId, Command] = {}
        for pid in self._honest:
            queue = self._pending[pid]
            proposals[pid] = queue[0] if queue else ("noop",)
        return proposals

    def has_pending(self) -> bool:
        return any(self._pending[pid] for pid in self._honest)

    def run_slot(self) -> Optional[LogEntry]:
        """Decide and apply one log slot; returns the committed entry."""
        self._gossip()
        proposals = self._proposals()
        # Slot execution runs on the unified kernel's trace-free metrics
        # mode: decisions and message counters come straight off the kernel,
        # no RoundRecord/trace objects are built per slot.
        instance = build_instance(
            self._spec.parameters,
            proposals,
            config=self._spec.config,
            byzantine=self._byzantine,
        )
        outcome = run_instance(
            instance,
            LockstepScheduler(),
            max_phases=self._max_phases,
            observe=OBSERVE_METRICS,
        )
        if not outcome.decisions:
            return None
        values = outcome.decided_values
        if len(values) != 1:
            raise AssertionError(
                f"consensus agreement violated across replicas: {values!r}"
            )
        (command,) = values
        slot = min(log.next_slot for log in self.logs.values())
        entry = LogEntry(
            slot=slot, command=command, phases=outcome.phases_to_last_decision
        )
        self._committed.add(command)
        for pid in self._honest:
            self.logs[pid].commit(entry)
            if command != ("noop",):
                self.machines[pid].apply(command)
            queue = self._pending[pid]
            if command in queue:
                queue.remove(command)
        self._stats["phases"] += outcome.phases_to_last_decision or 0
        self._stats["rounds"] += outcome.rounds_executed
        self._stats["messages"] += outcome.messages_sent
        return entry

    def run_until_drained(self, max_slots: int = 100) -> SmrReport:
        """Keep deciding slots until no replica has pending commands."""
        slots = 0
        while self.has_pending() and slots < max_slots:
            entry = self.run_slot()
            slots += 1
            if entry is None:
                break
        digests = {machine.digest() for machine in self.machines.values()}
        return SmrReport(
            slots_committed=slots,
            total_phases=self._stats["phases"],
            total_rounds=self._stats["rounds"],
            total_messages=self._stats["messages"],
            digests_agree=len(digests) == 1,
        )
