"""Algorithm 1 — the generic consensus algorithm — as a round process.

Every line number referenced in comments below is a line of Algorithm 1 in
the paper.  The process is driven by the lockstep engine through the
:class:`~repro.rounds.base.RoundProcess` interface; the mapping from global
round numbers to (phase, round-kind) pairs is provided by
:class:`RoundStructure`, which also implements the two structural
optimizations of Section 3.1 (validation-round suppression for ``FLAG = *``
and first-selection-round suppression).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Sequence

from repro.core.parameters import ConsensusParameters, GenericConsensusConfig
from repro.core.state import ConsensusState
from repro.core.types import (
    DecisionMessage,
    Flag,
    Phase,
    ProcessId,
    Round,
    RoundInfo,
    RoundKind,
    SelectionMessage,
    ValidationMessage,
    Value,
    coerce_decision_message,
    coerce_selection_message,
    coerce_validation_message,
)
from repro.rounds.base import Inbound, Outbound, RoundProcess
from repro.utils.det import deterministic_choice
from repro.utils.sentinels import ANY_VALUE, NULL_VALUE


class RoundStructure:
    """Maps global round numbers to (phase, kind).

    With ``FLAG = φ`` each phase is ``[selection, validation, decision]``
    (rounds ``3φ−2, 3φ−1, 3φ``); with ``FLAG = *`` the validation round is
    suppressed and a phase is ``[selection, decision]``.  With
    ``skip_first_selection`` the selection round of phase 1 is also
    suppressed (Section 3.1): ``select_p`` starts as ``init_p`` and the
    validator set is pre-agreed.
    """

    def __init__(self, flag: Flag, *, skip_first_selection: bool = False) -> None:
        self._flag = flag
        self._skip_first = skip_first_selection
        kinds = [RoundKind.SELECTION]
        if flag.needs_validation_round:
            kinds.append(RoundKind.VALIDATION)
        kinds.append(RoundKind.DECISION)
        self._kinds: List[RoundKind] = kinds
        # RoundInfo is immutable and the same few rounds are asked for over
        # and over (every decision probe goes through here), so memoize.
        self._info_cache: Dict[Round, RoundInfo] = {}

    @property
    def rounds_per_phase(self) -> int:
        return len(self._kinds)

    @property
    def flag(self) -> Flag:
        return self._flag

    @property
    def skip_first_selection(self) -> bool:
        return self._skip_first

    def kinds_of_phase(self, phase: Phase) -> List[RoundKind]:
        """The round kinds phase ``phase`` actually executes."""
        if phase == 1 and self._skip_first:
            return self._kinds[1:]
        return list(self._kinds)

    def info(self, round_number: Round) -> RoundInfo:
        """The :class:`RoundInfo` of global round ``round_number`` (1-based)."""
        cached = self._info_cache.get(round_number)
        if cached is not None:
            return cached
        info = self._info_uncached(round_number)
        self._info_cache[round_number] = info
        return info

    def _info_uncached(self, round_number: Round) -> RoundInfo:
        if round_number < 1:
            raise ValueError(f"round numbers start at 1, got {round_number}")
        per_phase = self.rounds_per_phase
        if not self._skip_first:
            phase = (round_number - 1) // per_phase + 1
            kind = self._kinds[(round_number - 1) % per_phase]
            return RoundInfo(round_number, phase, kind)
        first_len = per_phase - 1
        if round_number <= first_len:
            return RoundInfo(round_number, 1, self._kinds[round_number])
        rest = round_number - first_len
        phase = (rest - 1) // per_phase + 2
        kind = self._kinds[(rest - 1) % per_phase]
        return RoundInfo(round_number, phase, kind)

    def rounds_for_phases(self, phases: int) -> int:
        """How many global rounds the first ``phases`` phases occupy."""
        total = phases * self.rounds_per_phase
        if self._skip_first and phases >= 1:
            total -= 1
        return total


@lru_cache(maxsize=64)
def shared_structure(flag: Flag, skip_first_selection: bool) -> RoundStructure:
    """One :class:`RoundStructure` per (flag, skip) pair.

    Structures are immutable after construction, and campaign sweeps build
    thousands of instances with the same two parameters — sharing also keeps
    the round-info memo warm across runs.
    """
    return RoundStructure(flag, skip_first_selection=skip_first_selection)


class SelectionMemo:
    """The last selection inbox one instance's honest processes evaluated.

    A ``Pcons`` round hands every correct receiver the *same* inbox object,
    so the first receiver parses it and runs FLV and the others reuse both
    (FLV depends only on the messages and the phase, and every honest
    process of an instance shares one FLV).  A hit needs the identical
    object in the same round; holding the reference keeps its id from
    being recycled.  One memo belongs to one instance — never shared
    across instances, never module-level.
    """

    __slots__ = ("inbox", "round", "messages", "result")

    def __init__(self) -> None:
        self.inbox: Optional[Inbound] = None
        self.round: Round = 0
        self.messages: Sequence[SelectionMessage] = ()
        self.result: object = NULL_VALUE


class GenericConsensusProcess(RoundProcess):
    """One honest process executing Algorithm 1.

    ``memo`` is the instance's shared :class:`SelectionMemo`
    (:func:`~repro.engine.assembly.build_instance` gives one to all honest
    processes of a run); a process built on its own gets a private one.
    """

    def __init__(
        self,
        pid: ProcessId,
        initial_value: Value,
        parameters: ConsensusParameters,
        config: Optional[GenericConsensusConfig] = None,
        *,
        memo: Optional[SelectionMemo] = None,
    ) -> None:
        self.pid = pid
        self.parameters = parameters
        self.config = config or GenericConsensusConfig()
        self.state = ConsensusState.initial(initial_value)  # lines 2-4
        self.structure = shared_structure(
            parameters.flag, self.config.skip_first_selection
        )
        self._static_selector = self.config.uses_static_selector(parameters.selector)
        self._memo = memo if memo is not None else SelectionMemo()
        # Run constants, bound once: which selection fields FLV reads,
        # whether decisions count only this phase's votes, and the
        # broadcast destinations.
        requirements = parameters.flv.requirements
        self._uses_ts = requirements.uses_ts
        self._uses_history = requirements.uses_history
        self._phase_gated = parameters.flag is Flag.CURRENT_PHASE
        self._everyone = tuple(parameters.model.processes)
        # Per-phase working variables (reset at each selection round).
        self._selected: object = NULL_VALUE
        self._validators: frozenset = frozenset()
        if self.config.skip_first_selection:
            # Section 3.1: select_p := init_p, validators pre-agreed.
            self._selected = initial_value
            self._validators = parameters.selector.select(pid, 1)
        self.decision_round: Optional[Round] = None

    # ------------------------------------------------------------------ API

    @property
    def decided(self) -> Optional[Value]:
        """The decided value, or ``None``."""
        return self.state.decided

    @property
    def has_decided(self) -> bool:
        return self.state.has_decided

    def send(self, info: RoundInfo) -> Outbound:
        if info.kind is RoundKind.SELECTION:
            return self._send_selection(info)
        if info.kind is RoundKind.VALIDATION:
            return self._send_validation(info)
        return self._send_decision(info)

    def receive(self, info: RoundInfo, received: Inbound) -> None:
        if info.kind is RoundKind.SELECTION:
            self._recv_selection(info, received)
        elif info.kind is RoundKind.VALIDATION:
            self._recv_validation(info, received)
        else:
            self._recv_decision(info, received)

    # -------------------------------------------------- selection (3φ − 2)

    def _send_selection(self, info: RoundInfo) -> Outbound:
        # Line 7: send ⟨vote, ts, history, Selector(p, φ)⟩ to Selector(p, φ).
        suggestion = self.parameters.selector.select(self.pid, info.phase)
        message = SelectionMessage(
            vote=self.state.vote,
            # Fields an instantiation does not use are elided (sent as their
            # initial value) — Section 3.1's remark that ts/history "can be
            # ignored in some instantiations".
            ts=self.state.ts if self._uses_ts else 0,
            history=(
                frozenset(self.state.history)
                if self._uses_history
                else frozenset()
            ),
            selector=frozenset() if self._static_selector else suggestion,
        )
        return dict.fromkeys(suggestion, message)

    def _recv_selection(self, info: RoundInfo, received: Inbound) -> None:
        phase = info.phase
        memo = self._memo
        if memo.inbox is received and memo.round == info.number:
            # Another honest receiver already evaluated this shared inbox.
            messages = memo.messages
            selected = memo.result
        else:
            messages = []
            append = messages.append
            for payload in received.values():
                parsed = coerce_selection_message(payload)
                if parsed is not None:
                    append(parsed)
            # Line 9: select ← FLV(μ).
            selected = self.parameters.flv.evaluate(messages, phase)
            memo.inbox = received
            memo.round = info.number
            memo.messages = messages
            memo.result = selected

        if selected is ANY_VALUE:
            # Line 11 — deterministic choice among received votes; replaced
            # by a coin in the randomized adaptation (Section 6).
            if self.config.coin is not None:
                selected = self.config.coin(phase)
            elif messages:
                selected = deterministic_choice(
                    [message.vote for message in messages]
                )
            else:
                selected = NULL_VALUE
        if selected is not NULL_VALUE:
            # Lines 12-14.
            self.state.record_selection(selected, phase)
            self._truncate_history()
        self._selected = selected

        # Line 15: validators ← S if > (n+b)/2 messages carried S, else ∅.
        if self._static_selector:
            self._validators = self.parameters.selector.select(self.pid, phase)
        elif self.parameters.flag.needs_validation_round:
            self._validators = self._find_selector_quorum(messages)
        else:
            self._validators = frozenset()

    def _find_selector_quorum(
        self, messages: Sequence[SelectionMessage]
    ) -> frozenset:
        counts: Dict[frozenset, int] = {}
        for message in messages:
            counts[message.selector] = counts.get(message.selector, 0) + 1
        model = self.parameters.model
        for suggestion, count in counts.items():
            if suggestion and model.quorum_exceeds_half_plus_b(count):
                return suggestion
        return frozenset()

    def _truncate_history(self) -> None:
        bound = self.config.max_history_size
        if bound is None or len(self.state.history) <= bound:
            return
        # Keep the most recent entries (by phase).  Only used in bounded-
        # history experiments; see footnote 5 of the paper.
        ordered = sorted(self.state.history, key=lambda entry: entry[1])
        self.state.history = set(ordered[-bound:])

    # ------------------------------------------------- validation (3φ − 1)

    def _send_validation(self, info: RoundInfo) -> Outbound:
        # Lines 18-19: only validators speak, to everyone.
        if self.pid not in self._validators:
            return {}
        message = ValidationMessage(
            select=self._selected,
            validators=frozenset() if self._static_selector else self._validators,
        )
        return dict.fromkeys(self._everyone, message)

    def _recv_validation(self, info: RoundInfo, received: Inbound) -> None:
        phase = info.phase
        model = self.parameters.model
        parsed: Dict[ProcessId, ValidationMessage] = {}
        for sender, payload in received.items():
            message = coerce_validation_message(payload)
            if message is not None:
                parsed[sender] = message

        # Line 21: validators ← S if b+1 messages ⟨−, S⟩ received, else ∅.
        if self._static_selector:
            validators = self.parameters.selector.select(self.pid, phase)
        else:
            counts: Dict[frozenset, int] = {}
            for message in parsed.values():
                counts[message.validators] = counts.get(message.validators, 0) + 1
            validators = frozenset()
            for suggestion, count in counts.items():
                if suggestion and count >= model.b + 1:
                    validators = suggestion
                    break

        # Line 22: a value sent by > (|validators| + b)/2 validators is valid.
        candidates: Dict[Value, int] = {}
        for sender, message in parsed.items():
            if sender in validators and message.select is not NULL_VALUE:
                candidates[message.select] = candidates.get(message.select, 0) + 1
        valid = [
            value
            for value, count in candidates.items()
            if 2 * count > len(validators) + model.b
        ]
        if len(valid) >= 1:
            # Lines 23-24.  Multiple candidates cannot satisfy the quorum
            # when Selector-validity holds (Lemma 4); we still pick
            # deterministically for defensive robustness.
            value = valid[0] if len(valid) == 1 else deterministic_choice(valid)
            self.state.record_validation(
                value,
                phase,
                also_log_history=self.config.record_validation_in_history,
            )
        else:
            # Line 26: revert the vote to stay consistent with ts.
            self.state.revert_vote()

    # ---------------------------------------------------- decision (3φ)

    def _send_decision(self, info: RoundInfo) -> Outbound:
        # Line 29: send ⟨vote, ts⟩ to all.
        message = DecisionMessage(
            vote=self.state.vote,
            ts=self.state.ts if self._phase_gated else 0,
        )
        return dict.fromkeys(self._everyone, message)

    def _recv_decision(self, info: RoundInfo, received: Inbound) -> None:
        phase = info.phase
        phase_gated = self._phase_gated
        counts: Dict[Value, int] = {}
        counts_get = counts.get
        for payload in received.values():
            message = coerce_decision_message(payload)
            if message is None:
                continue
            # Line 31: FLAG = φ counts only votes validated in this phase;
            # FLAG = * counts all votes.
            if phase_gated and message.ts != phase:
                continue
            counts[message.vote] = counts_get(message.vote, 0) + 1
        threshold = self.parameters.threshold
        winners = [
            value for value, count in counts.items() if count >= threshold
        ]
        if winners:
            value = winners[0] if len(winners) == 1 else deterministic_choice(winners)
            # Line 32: DECIDE v.  The process keeps participating (others may
            # still need its messages); only the first decision is recorded.
            if not self.state.has_decided:
                self.decision_round = info.number
            self.state.record_decision(value, phase)
