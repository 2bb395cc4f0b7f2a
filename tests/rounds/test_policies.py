"""Delivery policies: predicate enforcement and adversarial delivery."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.types import FaultModel, RoundInfo, RoundKind
from repro.engine.scheduler import LockstepScheduler
from repro.rounds.base import RunContext
from repro.rounds.policies import (
    AsyncPrelPolicy,
    GoodBadPolicy,
    LossyPolicy,
    ReliablePolicy,
    SilentPolicy,
    enforce_pcons,
    enforce_pgood,
    partition_behavior,
    random_drop_behavior,
)
from repro.rounds.predicates import check_pcons, check_pgood, check_prel
from repro.rounds.schedule import GoodBadSchedule

SEL = RoundInfo(1, 1, RoundKind.SELECTION)
DEC = RoundInfo(3, 1, RoundKind.DECISION)


def ctx_for(n=4, b=0, byz=()):
    return RunContext(FaultModel(n, b, 0), byzantine=frozenset(byz))


def all_to_all(n, payload_fn):
    return {s: {d: payload_fn(s) for d in range(n)} for s in range(n)}


class TestEnforcement:
    def test_pgood_is_faithful(self):
        ctx = ctx_for()
        outbound = all_to_all(4, lambda s: f"m{s}")
        matrix = enforce_pgood(outbound, ctx)
        assert check_pgood(outbound, matrix, ctx.correct)
        assert matrix[2][3] == "m3"

    def test_pcons_collapses_equivocation(self):
        ctx = ctx_for(n=4, b=1, byz=[3])
        outbound = all_to_all(4, lambda s: f"m{s}")
        # Byzantine 3 equivocates:
        outbound[3] = {0: "lie-a", 1: "lie-b", 2: "lie-a", 3: "x"}
        matrix = enforce_pcons(outbound, ctx)
        assert check_pcons(outbound, matrix, ctx.correct)
        values = {matrix[p][3] for p in ctx.correct}
        assert len(values) == 1  # one canonical payload for sender 3

    def test_pcons_byzantine_receivers_see_raw_traffic(self):
        ctx = ctx_for(n=4, b=1, byz=[3])
        outbound = all_to_all(4, lambda s: f"m{s}")
        outbound[0] = {3: "secret", 1: "m0", 2: "m0", 0: "m0"}
        matrix = enforce_pcons(outbound, ctx)
        assert matrix[3][0] == "secret"

    def test_pcons_respects_restricted_audience(self):
        # Selection round addressed to {0, 1} only.
        ctx = ctx_for()
        outbound = {s: {0: f"m{s}", 1: f"m{s}"} for s in range(4)}
        matrix = enforce_pcons(outbound, ctx)
        assert set(matrix) == {0, 1}
        assert matrix[0] == matrix[1]


class TestReliablePolicy:
    def test_pcons_on_selection_rounds(self):
        ctx = ctx_for(n=4, b=1, byz=[3])
        policy = ReliablePolicy()
        outbound = all_to_all(4, lambda s: f"m{s}")
        outbound[3] = {d: f"lie{d}" for d in range(4)}
        matrix = policy.deliver(SEL, outbound, ctx)
        assert check_pcons(outbound, matrix, ctx.correct)

    def test_pgood_only_on_other_rounds(self):
        ctx = ctx_for(n=4, b=1, byz=[3])
        policy = ReliablePolicy()
        outbound = all_to_all(4, lambda s: f"m{s}")
        outbound[3] = {d: f"lie{d}" for d in range(4)}
        matrix = policy.deliver(DEC, outbound, ctx)
        assert check_pgood(outbound, matrix, ctx.correct)
        # Equivocation survives outside selection rounds.
        assert matrix[0][3] != matrix[1][3]


class TestGoodBadPolicy:
    def test_good_round_enforces(self):
        ctx = ctx_for()
        policy = GoodBadPolicy(GoodBadSchedule.good_after(2))
        outbound = all_to_all(4, lambda s: f"m{s}")
        matrix = policy.deliver(RoundInfo(2, 1, RoundKind.DECISION), outbound, ctx)
        assert check_pgood(outbound, matrix, ctx.correct)

    def test_bad_round_may_drop(self):
        ctx = ctx_for()
        policy = GoodBadPolicy(
            GoodBadSchedule.never_good(),
            bad_behavior=random_drop_behavior(random.Random(1), drop_prob=1.0),
        )
        outbound = all_to_all(4, lambda s: f"m{s}")
        matrix = policy.deliver(DEC, outbound, ctx)
        assert all(not inbox for inbox in matrix.values())

    def test_partition_behavior(self):
        ctx = ctx_for()
        policy = GoodBadPolicy(
            GoodBadSchedule.never_good(),
            bad_behavior=partition_behavior([[0, 1], [2, 3]]),
        )
        outbound = all_to_all(4, lambda s: f"m{s}")
        matrix = policy.deliver(DEC, outbound, ctx)
        assert 0 in matrix[1] and 1 in matrix[0]
        assert 2 not in matrix[0] and 0 not in matrix[2]


class TestAsyncPrelPolicy:
    def test_prel_holds(self):
        model = FaultModel(5, 1, 0)
        ctx = RunContext(model, byzantine=frozenset({4}))
        policy = AsyncPrelPolicy(random.Random(2))
        outbound = all_to_all(5, lambda s: f"m{s}")
        matrix = policy.deliver(DEC, outbound, ctx)
        assert check_prel(matrix, ctx.correct, model.n - model.b - model.f)

    def test_byzantine_receiver_gets_everything(self):
        model = FaultModel(5, 1, 0)
        ctx = RunContext(model, byzantine=frozenset({4}))
        policy = AsyncPrelPolicy(random.Random(2))
        outbound = all_to_all(5, lambda s: f"m{s}")
        matrix = policy.deliver(DEC, outbound, ctx)
        assert len(matrix[4]) == 5

    def test_subsets_can_differ_between_receivers(self):
        model = FaultModel(6, 1, 1)  # minimum 4 of 6
        ctx = RunContext(model)
        policy = AsyncPrelPolicy(random.Random(0))
        outbound = all_to_all(6, lambda s: f"m{s}")
        seen = set()
        for _ in range(20):
            matrix = policy.deliver(DEC, outbound, ctx)
            seen.add(frozenset(matrix[0]))
        assert len(seen) > 1  # the adversary varies the chosen subsets


class TestLossyAndSilent:
    def test_lossy_bounds_probability(self):
        with pytest.raises(ValueError):
            LossyPolicy(random.Random(0), drop_prob=1.5)

    def test_lossy_zero_drop_is_faithful(self):
        ctx = ctx_for()
        policy = LossyPolicy(random.Random(0), drop_prob=0.0)
        outbound = all_to_all(4, lambda s: f"m{s}")
        matrix = policy.deliver(DEC, outbound, ctx)
        assert check_pgood(outbound, matrix, ctx.correct)

    def test_silent_delivers_nothing_to_honest(self):
        ctx = ctx_for(n=4, b=1, byz=[3])
        policy = SilentPolicy()
        outbound = all_to_all(4, lambda s: f"m{s}")
        matrix = policy.deliver(DEC, outbound, ctx)
        assert all(pid == 3 for pid in matrix)


class TestRngThreading:
    """Per-run rng: policies own their stream and reseed deterministically."""

    BAD = RoundInfo(number=1, phase=1, kind=RoundKind.DECISION)

    def matrix_sizes(self, policy):
        outbound = all_to_all(6, lambda s: f"m{s}")
        ctx = ctx_for(n=6)
        return [
            sorted(
                (dest, sorted(inbox))
                for dest, inbox in policy.deliver(
                    self.BAD, outbound, ctx
                ).items()
            )
            for _ in range(5)
        ]

    def test_goodbad_reseed_replays_loss_stream(self):
        policy = GoodBadPolicy(
            GoodBadSchedule.never_good(), rng=random.Random(3)
        )
        first = self.matrix_sizes(policy)
        policy.reseed(3)
        assert self.matrix_sizes(policy) == first

    def test_lossy_reseed_replays_loss_stream(self):
        policy = LossyPolicy(random.Random(5), drop_prob=0.4)
        first = self.matrix_sizes(policy)
        policy.reseed(5)
        assert self.matrix_sizes(policy) == first

    def test_async_prel_reseed_replays_choices(self):
        policy = AsyncPrelPolicy(random.Random(7))
        first = self.matrix_sizes(policy)
        policy.reseed(7)
        assert self.matrix_sizes(policy) == first

    def test_policies_default_to_owned_rng(self):
        """No-rng construction must still be deterministic (seed 0), not
        draw from the module-level random."""
        assert self.matrix_sizes(LossyPolicy()) == self.matrix_sizes(
            LossyPolicy()
        )
        assert self.matrix_sizes(AsyncPrelPolicy()) == self.matrix_sizes(
            AsyncPrelPolicy()
        )


class TestDeliverCounted:
    """The counting contract: exact counts for declared delivery, fail-closed
    rescan for subclass overrides (which may do anything)."""

    def test_reliable_pgood_counts_zero(self):
        matrix, dropped = ReliablePolicy().deliver_counted(
            DEC, all_to_all(4, lambda s: f"m{s}"), ctx_for()
        )
        assert dropped == 0
        assert sum(map(len, matrix.values())) == 16


    def test_exact_subset_policies_count_sent_minus_delivered(self):
        outbound = all_to_all(4, lambda s: f"m{s}")
        for policy in (
            LossyPolicy(random.Random(1), drop_prob=0.5),
            SilentPolicy(),
            AsyncPrelPolicy(random.Random(2)),
            GoodBadPolicy(GoodBadSchedule.never_good(), rng=random.Random(3)),
        ):
            matrix, dropped = policy.deliver_counted(DEC, outbound, ctx_for())
            assert dropped == 16 - sum(map(len, matrix.values()))
            assert dropped >= 0

    def test_subclass_override_is_honoured_and_rescanned(self):
        class Withholding(ReliablePolicy):
            def deliver(self, info, outbound, ctx):
                matrix = super().deliver(info, outbound, ctx)  # must not recurse
                matrix.pop(0, None)  # withhold process 0's whole inbox
                return matrix

        outbound = all_to_all(4, lambda s: f"m{s}")
        matrix, dropped = Withholding().deliver_counted(DEC, outbound, ctx_for())
        assert 0 not in matrix
        # The override voids the counting contract: fall back to the rescan.
        assert dropped is None

    def test_subclass_can_redeclare_the_counting_contract(self):
        class Faithful(ReliablePolicy):
            def deliver(self, info, outbound, ctx):
                return super().deliver(info, outbound, ctx)

        Faithful._counted_deliver = Faithful.deliver
        _, dropped = Faithful().deliver_counted(
            DEC, all_to_all(4, lambda s: f"m{s}"), ctx_for()
        )
        assert dropped == 0


@st.composite
def pcons_round(draw):
    """A random selection round: (outbound, ctx).

    Covers Byzantine equivocation (a payload per edge), partial addressing
    (any sender may address any subset, including nobody), crashed and
    Byzantine receivers, and — when no correct sender addresses a correct
    process — an empty audience.
    """
    n = draw(st.integers(min_value=2, max_value=6), label="n")
    b = draw(st.integers(min_value=0, max_value=(n - 1) // 2), label="b")
    f = draw(st.integers(min_value=0, max_value=n - 1 - b), label="f")
    pids = st.integers(0, n - 1)
    byzantine = draw(st.sets(pids, max_size=b), label="byzantine")
    honest = [pid for pid in range(n) if pid not in byzantine]
    crashed = draw(
        st.sets(st.sampled_from(honest), max_size=min(f, len(honest) - 1)),
        label="crashed",
    )
    ctx = RunContext(FaultModel(n, b, f), byzantine=frozenset(byzantine))
    for pid in crashed:
        ctx.mark_crashed(pid)
    outbound = {}
    for sender in draw(st.sets(pids), label="senders"):
        dests = draw(st.lists(pids, unique=True), label=f"dests{sender}")
        if sender in byzantine:
            outbound[sender] = {
                dest: f"m{sender}:{draw(st.integers(0, 2))}" for dest in dests
            }
        else:
            outbound[sender] = dict.fromkeys(dests, f"m{sender}")
    return outbound, ctx


class _Rescanned(ReliablePolicy):
    """Same delivery, counting contract voided: the scheduler rescans."""

    def deliver(self, info, outbound, ctx):
        return super().deliver(info, outbound, ctx)


class TestPconsCounting:
    """Pcons rounds count their drops exactly, with one shared inbox."""

    @settings(max_examples=200, deadline=None)
    @given(pcons_round())
    def test_pcons_count_equals_the_edge_exact_rescan(self, case):
        outbound, ctx = case
        rescan = LockstepScheduler(_Rescanned()).deliver_round(
            SEL, outbound, ctx
        )
        for policy in (
            ReliablePolicy(),
            GoodBadPolicy(GoodBadSchedule.always_good()),
        ):
            matrix, dropped = policy.deliver_counted(SEL, outbound, ctx)
            assert dropped is not None
            assert dropped == rescan.dropped
            assert matrix == rescan.matrix

    @settings(max_examples=100, deadline=None)
    @given(pcons_round())
    def test_audience_shares_one_inbox_byzantine_receivers_do_not(self, case):
        outbound, ctx = case
        matrix = enforce_pcons(outbound, ctx)
        audience = [pid for pid in matrix if pid in ctx.correct]
        assert len({id(matrix[pid]) for pid in audience}) <= 1
        for pid in matrix:
            if pid in ctx.byzantine:
                assert all(matrix[pid] is not matrix[other] for other in audience)

    def test_empty_audience_counts_every_honest_edge(self):
        # Only the Byzantine process speaks: no correct sender, no audience.
        ctx = ctx_for(n=4, b=1, byz={3})
        outbound = {3: {0: "x", 1: "y", 3: "z"}}
        matrix, dropped = ReliablePolicy().deliver_counted(SEL, outbound, ctx)
        assert matrix == {3: {3: "z"}}
        assert dropped == 2
