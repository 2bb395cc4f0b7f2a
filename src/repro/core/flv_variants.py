"""Specialized FLV instantiations used by the named algorithms (Section 5-6).

These are the paper's Algorithms 6 (FaB Paxos), 7 (Paxos), 8 (PBFT) and 9
(Ben-Or).  Each is a simplification of one of the three generic class
functions (Algorithms 2-4) under the specific parameters of the target
algorithm; we implement them *literally* as printed so tests can compare them
against the generic functions and confirm the paper's equivalence claims
(including the "small improvement" remarks of Section 5.1).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.flv import FLVFunction, FLVRequirements, FLVResult
from repro.core.flv_class2 import survivors
from repro.core.types import FaultModel, SelectionMessage, Value
from repro.utils.det import value_counts
from repro.utils.sentinels import ANY_VALUE, NULL_VALUE


def fab_paxos_threshold(model: FaultModel) -> int:
    """FaB Paxos decision threshold ``TD = ⌈(n + 3b + 1)/2⌉`` (Section 5.1)."""
    return -((model.n + 3 * model.b + 1) // -2)


def paxos_threshold(model: FaultModel) -> int:
    """Paxos decision threshold ``TD = ⌈(n + 1)/2⌉`` (Section 5.3)."""
    return -((model.n + 1) // -2)


def pbft_threshold(model: FaultModel) -> int:
    """PBFT decision threshold ``TD = 2b + 1`` (Section 5.3)."""
    return 2 * model.b + 1


class FaBPaxosFLV(FLVFunction):
    """Algorithm 6: FLV for class 1 with ``TD = ⌈(n + 3b + 1)/2⌉``.

    Literal transcription::

        1: correctVotes ← { v : |{(v,−,−) ∈ μ}| > (n − b − 1)/2 }
        2: if |correctVotes| = 1 then return v
        4: else if |μ| > n − b − 1 then return ?
        6: else return null
    """

    name = "flv-fab-paxos"
    requirements = FLVRequirements(
        uses_ts=False, uses_history=False, supports_prel_liveness=True
    )

    def __init__(self, model: FaultModel, threshold: int | None = None) -> None:
        super().__init__(model, threshold or fab_paxos_threshold(model))

    def evaluate(
        self, messages: Sequence[SelectionMessage], phase: int = 0
    ) -> FLVResult:
        counts = value_counts(self._votes(messages))
        correct_votes = [
            value
            for value, count in counts.items()
            if 2 * count > self._n - self._b - 1
        ]
        if len(correct_votes) == 1:
            return correct_votes[0]
        if len(messages) > self._n - self._b - 1:
            return ANY_VALUE
        return NULL_VALUE


class PaxosFLV(FLVFunction):
    """Algorithm 7: FLV for class 3 simplified to benign faults.

    With ``b = 0`` every honest message satisfies ``(vote, ts) ∈ history``,
    so ``correctVotes = possibleVotes`` and the history (and unanimity
    branch) disappear.  Literal transcription::

        1: possibleVotes ← {(vote, ts, −) ∈ μ :
               |{(vote′, ts′, −) ∈ μ : vote = vote′ ∨ ts > ts′}| > n/2}
        2: if |possibleVotes| = 1 then return its vote
        4: else if |μ| > n/2 then return ?
        6: else return ⊥
    """

    name = "flv-paxos"
    requirements = FLVRequirements(
        uses_ts=True, uses_history=False, supports_prel_liveness=True
    )

    def __init__(self, model: FaultModel, threshold: int | None = None) -> None:
        if model.b != 0:
            raise ValueError("PaxosFLV assumes the benign model (b = 0)")
        super().__init__(model, threshold or paxos_threshold(model))

    def evaluate(
        self, messages: Sequence[SelectionMessage], phase: int = 0
    ) -> FLVResult:
        possible = []
        for message in messages:
            support = sum(
                1
                for other in messages
                if other.vote == message.vote or message.ts > other.ts
            )
            if 2 * support > self._n:
                possible.append(message)
        distinct_votes = {message.vote for message in possible}
        if len(distinct_votes) == 1:
            return next(iter(distinct_votes))
        if 2 * len(messages) > self._n:
            return ANY_VALUE
        return NULL_VALUE


class PBFTFLV(FLVFunction):
    """Algorithm 8: FLV for class 3 with ``TD = 2b + 1`` and ``n = 3b + 1``.

    PBFT drops the unanimity property, so lines 8-9 of Algorithm 4 disappear
    and the ``ts = 0`` branch merges into the ``?`` condition::

        1: possibleVotes ← {(vote, ts, −) ∈ μ : |{… vote = vote′ ∨ ts > ts′}| > 2b}
        2: correctVotes ← {v : (v, ts) ∈ possibleVotes ∧ history support > b}
        3: if |correctVotes| = 1 then return v
        5: else if |correctVotes| > 1 or |{ts = 0 messages}| > 2b then return ?
        7: else return null
    """

    name = "flv-pbft"
    requirements = FLVRequirements(
        uses_ts=True,
        uses_history=True,
        supports_prel_liveness=False,
        needs_strong_selector_validity=True,
    )

    def __init__(self, model: FaultModel, threshold: int | None = None) -> None:
        super().__init__(model, threshold or pbft_threshold(model))

    def evaluate(
        self, messages: Sequence[SelectionMessage], phase: int = 0
    ) -> FLVResult:
        slack = self._slack  # n − TD + b = 2b when n = 3b + 1, TD = 2b + 1
        possible = survivors(messages, slack)
        correct_votes: set[Value] = set()
        for message in possible:
            support = sum(
                1 for other in messages if (message.vote, message.ts) in other.history
            )
            if support > self._b:
                correct_votes.add(message.vote)
        if len(correct_votes) == 1:
            return next(iter(correct_votes))
        zero_ts = sum(1 for message in messages if message.ts == 0)
        if len(correct_votes) > 1 or zero_ts > slack:
            return ANY_VALUE
        return NULL_VALUE


class BenOrFLV(FLVFunction):
    """Algorithm 9: the Ben-Or selection rule.

    ``if received b + 1 messages ⟨v, φ − 1, −⟩ then return v else return ?``

    The function never returns ``null`` (it satisfies the strengthened
    FLV-liveness needed under ``Prel``), which is what makes the randomized
    adaptation of Section 6 possible for class-2 algorithms.
    """

    name = "flv-ben-or"
    requirements = FLVRequirements(
        uses_ts=True, uses_history=False, supports_prel_liveness=True
    )

    def evaluate(
        self, messages: Sequence[SelectionMessage], phase: int = 0
    ) -> FLVResult:
        counts: dict[Value, int] = {}
        for message in messages:
            if message.ts == phase - 1:
                counts[message.vote] = counts.get(message.vote, 0) + 1
        for vote, count in sorted(
            counts.items(), key=lambda item: (type(item[0]).__name__, repr(item[0]))
        ):
            if count >= self._b + 1:
                return vote
        return ANY_VALUE
