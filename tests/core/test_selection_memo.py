"""The per-instance selection memo: a shared Pcons inbox is evaluated once."""

import pytest

from repro.algorithms.pbft import build_pbft
from repro.core.process import GenericConsensusProcess, SelectionMemo
from repro.core.types import RoundInfo, RoundKind
from repro.engine.assembly import build_instance
from repro.engine.kernel import OBSERVE_FULL, run_instance
from repro.engine.scheduler import LockstepScheduler
from repro.rounds.policies import ReliablePolicy
from tests.conftest import sel_msg

SEL1 = RoundInfo(1, 1, RoundKind.SELECTION)
SEL4 = RoundInfo(4, 2, RoundKind.SELECTION)


@pytest.fixture
def pbft4():
    return build_pbft(4).parameters


@pytest.fixture
def evaluations(pbft4, monkeypatch):
    """Every FLV evaluation of ``pbft4``'s FLV, as a list of phases."""
    flv = pbft4.flv
    real = flv.evaluate
    calls = []

    def counting(messages, phase=0):
        calls.append(phase)
        return real(messages, phase)

    monkeypatch.setattr(flv, "evaluate", counting)
    return calls


def _inbox():
    return {sender: sel_msg("v", ts=0) for sender in range(4)}


def test_flv_runs_once_per_pcons_round_per_instance(pbft4, evaluations):
    instance = build_instance(
        pbft4, {0: "a", 1: "b", 2: "a"}, byzantine={3: "equivocator"}
    )
    outcome = run_instance(
        instance,
        LockstepScheduler(ReliablePolicy()),
        max_phases=4,
        observe=OBSERVE_FULL,
        stop_when=lambda kernel: False,  # run every phase, decided or not
    )
    selection_rounds = [
        record.info.phase
        for record in outcome.trace.records
        if record.info.kind is RoundKind.SELECTION
    ]
    assert selection_rounds == [1, 2, 3, 4]
    # Three honest receivers per round, one evaluation.
    assert evaluations == selection_rounds


def test_instance_processes_share_the_instance_memo(pbft4):
    instance = build_instance(pbft4, {0: "a", 1: "b", 2: "a", 3: "b"})
    memos = {id(process._memo) for process in instance.processes.values()}
    assert memos == {id(instance.memo)}
    # Another run never sees this run's memo.
    other = build_instance(pbft4, {0: "a", 1: "b", 2: "a", 3: "b"})
    assert other.memo is not instance.memo


def test_standalone_processes_get_private_memos(pbft4):
    first = GenericConsensusProcess(0, "a", pbft4)
    second = GenericConsensusProcess(1, "a", pbft4)
    assert first._memo is not second._memo


def test_shared_inbox_object_is_evaluated_once(pbft4, evaluations):
    memo = SelectionMemo()
    processes = [
        GenericConsensusProcess(pid, "a", pbft4, memo=memo) for pid in range(3)
    ]
    inbox = _inbox()
    for process in processes:
        process.receive(SEL1, inbox)
    assert evaluations == [1]
    # The state updates stay per process.
    assert all(process.state.vote == "v" for process in processes)


def test_equal_but_distinct_inboxes_are_evaluated_separately(pbft4, evaluations):
    memo = SelectionMemo()
    first = GenericConsensusProcess(0, "a", pbft4, memo=memo)
    second = GenericConsensusProcess(1, "a", pbft4, memo=memo)
    inbox = _inbox()
    first.receive(SEL1, inbox)
    second.receive(SEL1, dict(inbox))
    assert evaluations == [1, 1]


def test_a_new_round_never_reuses_the_previous_result(pbft4, evaluations):
    memo = SelectionMemo()
    first = GenericConsensusProcess(0, "a", pbft4, memo=memo)
    second = GenericConsensusProcess(1, "a", pbft4, memo=memo)
    inbox = _inbox()
    first.receive(SEL1, inbox)
    # The very same dict object, delivered again in a later round.
    second.receive(SEL4, inbox)
    assert evaluations == [1, 2]
