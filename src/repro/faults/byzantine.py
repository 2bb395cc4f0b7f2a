"""Byzantine process strategies.

A Byzantine process "exhibits arbitrary behavior" (Section 2.1).  In the
round model this means: in every round it may send any payload to any subset
of processes, different payloads to different receivers (equivocation), and
its transition function is unconstrained.  Two things it can *not* do — and
the engine enforces — are impersonating honest senders and forging
signatures (in the authenticated stack).

The strategies below cover the attack surface of the generic algorithm:

========================  =====================================================
Strategy                  Attack
========================  =====================================================
:class:`SilentByzantine`  withholds all messages (liveness pressure)
:class:`RandomNoise`      sends malformed payloads (parser robustness)
:class:`Equivocator`      sends conflicting well-formed values per receiver
:class:`VoteFlipper`      pushes a fixed evil value, claiming it validated now
:class:`HighTimestampLiar` claims an enormous timestamp for its evil vote
                          (attacks the class-2 timestamp mechanism)
:class:`FakeHistoryLiar`  forges history certificates for its evil vote
                          (attacks the class-3 history mechanism)
:class:`AdaptiveLiar`     observes honest votes and amplifies the minority
                          value, equivocating across receivers
========================  =====================================================

All strategies are well-behaved :class:`~repro.rounds.base.RoundProcess`
implementations so the engine runs them exactly like honest code.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from repro.core.parameters import ConsensusParameters
from repro.core.types import (
    DecisionMessage,
    ProcessId,
    RoundInfo,
    RoundKind,
    SelectionMessage,
    ValidationMessage,
)
from repro.rounds.base import Inbound, Outbound, RoundProcess


class ByzantineStrategy(RoundProcess):
    """Base class holding the identity/parameters every strategy needs."""

    def __init__(self, pid: ProcessId, parameters: ConsensusParameters) -> None:
        self.pid = pid
        self.parameters = parameters
        self.model = parameters.model
        self.last_inbox: Inbound = {}
        self._full_selector = frozenset(self.model.processes)

    @property
    def everyone(self) -> range:
        return self.model.processes

    @property
    def full_selector(self) -> frozenset:
        return self._full_selector

    def receive(self, info: RoundInfo, received: Inbound) -> None:
        """Default: remember what was seen (adaptive strategies use it)."""
        self.last_inbox = dict(received)

    # Helpers -----------------------------------------------------------

    def selection_payload(
        self, vote: object, ts: int, history: frozenset
    ) -> SelectionMessage:
        return SelectionMessage(
            vote=vote, ts=ts, history=history, selector=self.full_selector
        )

    def broadcast(self, payload: object) -> Outbound:
        return dict.fromkeys(self.everyone, payload)


class SilentByzantine(ByzantineStrategy):
    """Never sends anything — maximal message withholding."""

    def send(self, info: RoundInfo) -> Outbound:
        return {}


class RandomNoise(ByzantineStrategy):
    """Sends structurally invalid payloads; honest parsers must drop them."""

    def __init__(
        self,
        pid: ProcessId,
        parameters: ConsensusParameters,
        rng: Optional[random.Random] = None,
    ) -> None:
        super().__init__(pid, parameters)
        self._rng = rng or random.Random(pid)

    def send(self, info: RoundInfo) -> Outbound:
        garbage_pool = [
            "garbage",
            42,
            (1, 2, 3),
            {"vote": "not-a-message"},
            SelectionMessage("x", -1, frozenset(), frozenset()),  # negative ts
            SelectionMessage("x", 0, frozenset({("bad",)}), frozenset()),  # 1-tuple
            ValidationMessage("x", frozenset({"not-an-id"})),
            DecisionMessage("x", -5),
            None,
        ]
        return {
            dest: self._rng.choice(garbage_pool) for dest in self.everyone
        }


class Equivocator(ByzantineStrategy):
    """Sends value ``values[0]`` to even receivers, ``values[1]`` to odd ones.

    The classic double-dealing attack: without ``Pcons`` (or an echo
    protocol) in the selection round, honest validators could select
    different values.
    """

    def __init__(
        self,
        pid: ProcessId,
        parameters: ConsensusParameters,
        values: Sequence[object] = ("evil-0", "evil-1"),
    ) -> None:
        super().__init__(pid, parameters)
        if len(values) < 2:
            raise ValueError("Equivocator needs at least two values")
        self.values = tuple(values)

    def _value_for(self, dest: ProcessId) -> object:
        return self.values[dest % 2]

    def _payload(self, info: RoundInfo, value: object) -> object:
        phase = info.phase
        if info.kind is RoundKind.SELECTION:
            history = frozenset({(value, 0), (value, max(phase - 1, 0))})
            return self.selection_payload(value, max(phase - 1, 0), history)
        if info.kind is RoundKind.VALIDATION:
            return ValidationMessage(value, self.full_selector)
        return DecisionMessage(value, phase)

    def send(self, info: RoundInfo) -> Outbound:
        # One payload per distinct value this round, shared by its receivers.
        payloads: Dict[object, object] = {}
        out: Dict[ProcessId, object] = {}
        for dest in self.everyone:
            value = self._value_for(dest)
            payload = payloads.get(value)
            if payload is None:
                payload = payloads[value] = self._payload(info, value)
            out[dest] = payload
        return out


class VoteFlipper(ByzantineStrategy):
    """Relentlessly pushes one evil value, claiming it was validated now."""

    def __init__(
        self,
        pid: ProcessId,
        parameters: ConsensusParameters,
        evil_value: object = "evil",
    ) -> None:
        super().__init__(pid, parameters)
        self.evil_value = evil_value

    def send(self, info: RoundInfo) -> Outbound:
        phase = info.phase
        if info.kind is RoundKind.SELECTION:
            history = frozenset(
                {(self.evil_value, p) for p in range(phase)}
            ) or frozenset({(self.evil_value, 0)})
            payload: object = self.selection_payload(
                self.evil_value, max(phase - 1, 0), history
            )
        elif info.kind is RoundKind.VALIDATION:
            payload = ValidationMessage(self.evil_value, self.full_selector)
        else:
            payload = DecisionMessage(self.evil_value, phase)
        return self.broadcast(payload)


class HighTimestampLiar(ByzantineStrategy):
    """Claims an absurdly high timestamp for its evil vote.

    Against class-2 FLV this tries to make the fake vote dominate line 1 of
    Algorithm 3 (every honest message has a strictly smaller timestamp, so
    the liar's message gathers full support); line 2's ``> b`` filter is what
    must stop it.
    """

    def __init__(
        self,
        pid: ProcessId,
        parameters: ConsensusParameters,
        evil_value: object = "evil",
        timestamp: int = 10**6,
    ) -> None:
        super().__init__(pid, parameters)
        self.evil_value = evil_value
        self.timestamp = timestamp

    def send(self, info: RoundInfo) -> Outbound:
        phase = info.phase
        if info.kind is RoundKind.SELECTION:
            payload: object = self.selection_payload(
                self.evil_value, self.timestamp, frozenset({(self.evil_value, 0)})
            )
        elif info.kind is RoundKind.VALIDATION:
            payload = ValidationMessage(self.evil_value, self.full_selector)
        else:
            payload = DecisionMessage(self.evil_value, self.timestamp)
        return self.broadcast(payload)


class FakeHistoryLiar(ByzantineStrategy):
    """Forges a rich history certifying its evil vote at every phase.

    Against class-3 FLV this attacks line 2 of Algorithm 4: the forged
    ``(evil, ts)`` pairs would certify the evil vote if histories from ≤ b
    processes sufficed.  The ``> b`` support requirement is what must stop
    it.
    """

    def __init__(
        self,
        pid: ProcessId,
        parameters: ConsensusParameters,
        evil_value: object = "evil",
    ) -> None:
        super().__init__(pid, parameters)
        self.evil_value = evil_value

    def send(self, info: RoundInfo) -> Outbound:
        phase = info.phase
        forged_history = frozenset(
            {(self.evil_value, p) for p in range(phase + 1)}
        )
        if info.kind is RoundKind.SELECTION:
            payload: object = self.selection_payload(
                self.evil_value, max(phase - 1, 0), forged_history
            )
        elif info.kind is RoundKind.VALIDATION:
            payload = ValidationMessage(self.evil_value, self.full_selector)
        else:
            payload = DecisionMessage(self.evil_value, phase)
        return self.broadcast(payload)


class AdaptiveLiar(ByzantineStrategy):
    """Observes honest votes and pushes the minority value, equivocating.

    The strongest scripted adversary in the library: it tries to keep the
    system split by telling each half of the receivers that the value *they*
    do not prefer is winning.
    """

    def __init__(
        self,
        pid: ProcessId,
        parameters: ConsensusParameters,
        fallback: object = "evil",
    ) -> None:
        super().__init__(pid, parameters)
        self.fallback = fallback
        self._observed_votes: List[object] = []

    def receive(self, info: RoundInfo, received: Inbound) -> None:
        super().receive(info, received)
        for payload in received.values():
            if isinstance(payload, SelectionMessage):
                self._observed_votes.append(payload.vote)
            elif isinstance(payload, DecisionMessage):
                self._observed_votes.append(payload.vote)

    def _split_values(self) -> tuple:
        if not self._observed_votes:
            return (self.fallback, self.fallback)
        counts: Dict[object, int] = {}
        for vote in self._observed_votes:
            counts[vote] = counts.get(vote, 0) + 1
        ranked = sorted(
            counts.items(), key=lambda item: (item[1], repr(item[0]))
        )
        minority = ranked[0][0]
        majority = ranked[-1][0]
        return (minority, majority)

    def send(self, info: RoundInfo) -> Outbound:
        minority, majority = self._split_values()
        phase = info.phase
        out: Dict[ProcessId, object] = {}
        for dest in self.everyone:
            value = minority if dest % 2 == 0 else majority
            if info.kind is RoundKind.SELECTION:
                history = frozenset({(value, p) for p in range(phase + 1)})
                out[dest] = self.selection_payload(value, max(phase - 1, 0), history)
            elif info.kind is RoundKind.VALIDATION:
                out[dest] = ValidationMessage(value, self.full_selector)
            else:
                out[dest] = DecisionMessage(value, phase)
        return out
