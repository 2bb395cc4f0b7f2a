"""Instance assembly: build one consensus instance, usable by any scheduler.

:func:`build_instance` performs the setup every execution path used to
duplicate: validate the fault budget, build honest
:class:`~repro.core.process.GenericConsensusProcess` instances and Byzantine
strategies, derive the :class:`~repro.core.process.RoundStructure`, and
create the shared :class:`~repro.rounds.base.RunContext`.  The resulting
:class:`Instance` also carries the canonical decision probe and state
snapshot observer, so equivocation handling and decision detection are
identical under every timing discipline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional

from repro.core.parameters import ConsensusParameters, GenericConsensusConfig
from repro.core.process import (
    GenericConsensusProcess,
    RoundStructure,
    SelectionMemo,
    shared_structure,
)
from repro.core.types import Decision, ProcessId, RoundInfo, Value
from repro.faults.registry import ByzantineSpec, build_byzantine
from repro.rounds.base import RoundProcess, RunContext

#: Per-process configuration factory (randomized runs give each process an
#: independent coin, so they cannot share one config object).
ConfigFactory = Callable[[ProcessId], GenericConsensusConfig]


@dataclass
class Instance:
    """One fully-assembled consensus instance, ready for any scheduler."""

    parameters: ConsensusParameters
    config: GenericConsensusConfig
    structure: RoundStructure
    processes: Dict[ProcessId, RoundProcess]
    initial_values: Dict[ProcessId, Value]
    context: RunContext
    #: The selection-inbox memo this instance's honest processes share.
    memo: SelectionMemo = field(default_factory=SelectionMemo, repr=False)

    @property
    def honest_processes(self) -> Dict[ProcessId, GenericConsensusProcess]:
        return {
            pid: process
            for pid, process in self.processes.items()
            if isinstance(process, GenericConsensusProcess)
        }

    def decision_probe(
        self, pid: ProcessId, process: RoundProcess, info: RoundInfo
    ) -> Optional[Decision]:
        """First decision of an honest process, tagged with round and phase."""
        if isinstance(process, GenericConsensusProcess) and process.has_decided:
            round_number = process.decision_round or info.number
            return Decision(
                process=pid,
                value=process.decided,
                round=round_number,
                phase=self.structure.info(round_number).phase,
            )
        return None

    def snapshot(self, pid: ProcessId, process: RoundProcess) -> object:
        """State snapshot observer for full-trace runs."""
        if isinstance(process, GenericConsensusProcess):
            return process.state.snapshot()
        return None


def build_instance(
    parameters: ConsensusParameters,
    initial_values: Mapping[ProcessId, Value],
    *,
    config: Optional[GenericConsensusConfig] = None,
    byzantine: Optional[Mapping[ProcessId, ByzantineSpec]] = None,
    config_for: Optional[ConfigFactory] = None,
) -> Instance:
    """Assemble processes, strategies and context for one instance.

    ``initial_values`` must provide a proposal for every honest process;
    ``byzantine`` maps process ids to strategies (at most ``b`` entries).
    ``config_for`` overrides ``config`` per honest process (``config`` still
    determines the round structure).
    """
    model = parameters.model
    config = config or GenericConsensusConfig()
    byzantine = dict(byzantine or {})
    if len(byzantine) > model.b:
        raise ValueError(
            f"{len(byzantine)} Byzantine processes exceed b={model.b}"
        )

    structure = shared_structure(parameters.flag, config.skip_first_selection)
    memo = SelectionMemo()

    processes: Dict[ProcessId, RoundProcess] = {}
    initials: Dict[ProcessId, Value] = {}
    for pid in model.processes:
        if pid in byzantine:
            processes[pid] = build_byzantine(pid, byzantine[pid], parameters)
            continue
        if pid not in initial_values:
            raise ValueError(f"missing initial value for honest process {pid}")
        initials[pid] = initial_values[pid]
        processes[pid] = GenericConsensusProcess(
            pid,
            initial_values[pid],
            parameters,
            config_for(pid) if config_for is not None else config,
            memo=memo,
        )

    context = RunContext(model, byzantine=frozenset(byzantine))
    return Instance(
        parameters=parameters,
        config=config,
        structure=structure,
        processes=processes,
        initial_values=initials,
        context=context,
        memo=memo,
    )
