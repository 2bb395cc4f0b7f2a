"""The columnar-state executor: one array program per campaign cell.

The columnar tier (:mod:`repro.engine.batch.kernel`) vectorizes the
RNG/latency layer but still advances B separate kernel objects — every
send/receive/FLV evaluation of the generic algorithm runs as per-run
Python.  This module lifts the *algorithm state itself* into arrays for
cells the planner proved eligible (:data:`~repro.engine.batch.plan
.MODE_COLUMNAR_STATE`), on either engine:

* the cell's value alphabet is closed and encoded as small ints
  (:func:`repro.core.columnar.encode_alphabet`);
* votes, timestamps, histories, selections and decisions live in
  ``(B runs × n processes)`` arrays;
* the per-run seed enters **only** through ``(B, n, n)`` delivery masks.
  Timed cells mirror the timed scheduler's fast sweep
  (:meth:`TimedScheduler._deliver_fast`), the scenario delivery filters
  and the partial-synchrony sampling paths draw for draw on two fresh
  :class:`~repro.utils.accel.BlockRng` streams per run — exactly the
  streams :func:`~repro.engine.batch.scheduler.compile_batch_scenario`
  builds (nothing is drawn at compile time, so fresh streams are equal
  streams).  Lockstep cells mirror
  :class:`~repro.engine.scheduler.LockstepScheduler` over the scenario's
  delivery policy on one policy stream per run: loss coins are the only
  draws, and ``Pcons`` / ``Pgood`` rounds are run-invariant templates;
* FLV classes 1–3, ANY-resolution, validation quorums and decision
  thresholds evaluate as the counting/argmax reductions of
  :mod:`repro.core.columnar`.

Everything that is *not* seed-dependent is a per-cell template computed
once: Byzantine outbound payloads (the eligible strategies are inbox-free,
so each strategy instance is driven through rounds ``1..max_rounds`` once
and its real dict/frozenset iteration orders recorded) as ``(dest,
sender)`` tables, per-round edge lists, selector suggestions and validator
sets, and coercion verdicts.

Fallback discipline mirrors the columnar tier: the per-run prologue maps
resolution failures to the oracle's exact status rows; any surprise while
building or running the array program demotes — the whole cell (``None``
return: the per-run columnar tier for timed cells, the scalar oracle for
lockstep ones), or a single run to the scalar oracle (``None`` row).
Demotion costs speed, never bytes: the scalar kernel remains the oracle
the identity suite diffs this executor against.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.campaigns.spec import RunSpec
from repro.core.columnar import (
    NULL_CODE,
    counts_by_value,
    encode_alphabet,
    flv_class1_columnar,
    flv_class2_columnar,
    flv_class3_columnar,
    pick_min_code,
    resolve_any_columnar,
    threshold_pick,
)
from repro.core.types import (
    FaultModel,
    RoundKind,
    coerce_decision_message,
    coerce_selection_message,
    coerce_validation_message,
)
from repro.faults.registry import build_byzantine
from repro.scenarios.compile import (
    ScenarioInapplicable,
    _memoized_schedule,
    _partition_edges,
    _partition_groups,
    compile_scenario,
)
from repro.scenarios.spec import split_values
from repro.utils.accel import BlockRng, get_numpy
from repro.utils.sentinels import ANY_VALUE, NULL_VALUE

__all__ = ["columnar_state_rows"]

Row = Dict[str, object]


class _Demote(Exception):
    """The cell cannot run as an array program; drop a tier."""


def _require(condition: bool, why: str) -> None:
    if not condition:
        raise _Demote(why)


class _RoundTemplate:
    """The seed-independent description of one global round of the cell."""

    __slots__ = (
        "number",
        "phase",
        "kind",
        "e_send",
        "e_dest",
        "coin_idx",
        "sent",
        # Per-(dest, sender) payload tables; honest columns read live state.
        "sok",
        "svote",
        "sts",
        "shist",
        "vsel",
        "vok",
        "val_mask",
        "val_len",
        "dvote",
        "dts",
        "dok",
        # Run-invariant delivery precomputation: the wall-clock window, the
        # zero-draw constant-latency verdict, the admission base of the
        # scenario filter and — when no coin is drawn — its nonzero edges.
        "now",
        "deadline",
        "pre_gst",
        "constant",
        "delivers_all",
        "admit_base",
        "use_coins",
        "pending_idx",
        "all_idx",
        "none_idx",
        # Lockstep delivery: the run-invariant part of the policy's matrix
        # (``base``, dest-major), the coin-decided edges in draw order, the
        # deliveries ``base`` contributes and how many sent edges it covers,
        # and the Pcons audience of a good selection round (else ``None``).
        "base",
        "coin_dest",
        "coin_send",
        "base_delivered",
        "base_hit",
        "audience",
    )


class _CellProgram:
    """One campaign cell compiled to templates + array-program parameters."""

    def __init__(self, np, run: RunSpec, model, parameters, config, byzantine):
        self.np = np
        self.model = model
        self.parameters = parameters
        self.byzantine = dict(byzantine)
        self.lockstep = run.engine == "lockstep"
        scenario = run.scenario
        self.timing = scenario.timing
        self.comm = scenario.comm

        from repro.core.flv_class1 import FLVClass1
        from repro.core.flv_class2 import FLVClass2
        from repro.core.flv_class3 import FLVClass3
        from repro.core.process import RoundStructure
        from repro.core.types import Flag

        n = model.n
        self.n = n
        self.b = model.b
        self.threshold = parameters.threshold
        flv = parameters.flv
        self.slack = flv._slack
        self.flv_class = {FLVClass1: 1, FLVClass2: 2, FLVClass3: 3}[type(flv)]
        self.ensure_unanimity = (
            flv.ensure_unanimity if self.flv_class == 3 else True
        )
        self.uses_ts = flv.requirements.uses_ts
        self.phase_gated = parameters.flag is Flag.CURRENT_PHASE
        # History is consulted by the validation round's line-26 revert and
        # (class 3) by FLV history support; FLAG = * cells need neither.
        self.need_hist = self.phase_gated or self.flv_class == 3
        self.structure = RoundStructure(parameters.flag)
        self.max_phases = max(run.max_phases, _suggested_phases(run))
        self.max_rounds = self.structure.rounds_for_phases(self.max_phases)

        self.byz_pids = sorted(self.byzantine)
        self.honest_pids = [
            pid for pid in range(n) if pid not in self.byzantine
        ]
        self.byz_col = np.zeros(n, dtype=bool)
        for pid in self.byz_pids:
            self.byz_col[pid] = True
        self.honest_col = ~self.byz_col
        self.initial_values = split_values(model, self.byzantine)

        self._compile_filter()
        if not self.lockstep:
            self._compile_timing()
        self._compile_templates(config)

    # ------------------------------------------------------------ filters

    def _compile_filter(self) -> None:
        comm = self.comm
        kind = comm.kind
        _require(
            kind in ("reliable", "lossy", "silent", "good-bad"),
            f"comm kind {kind!r} has no mask form",
        )
        self.filter_kind = kind
        self.drop_prob = comm.drop_prob
        self.is_good = None
        self.partition = None
        if kind == "good-bad":
            self.is_good = _memoized_schedule(comm).is_good
            if comm.bad == "partition":
                self.partition = _partition_edges(
                    _partition_groups(comm, self.model)
                )
            self.bad = comm.bad

    def _compile_timing(self) -> None:
        t = self.timing
        _require(t.kind in ("uniform", "fixed"), f"latency kind {t.kind!r}")
        self.gst = t.gst
        self.delta = t.delta
        self.pre_prob = t.pre_gst_delay_prob
        self.chaos = t.chaos_factor
        self.round_duration = t.round_duration
        self.low = t.low
        self.high = t.high
        self.fixed_latency = t.kind == "fixed"
        # Mirrors PartialSynchronyNetwork._clamp_free for the uniform model;
        # the fixed model's post-GST path is the zero-draw constant branch.
        self.clamp_free = (self.low if self.fixed_latency else self.high) <= t.delta

    # ---------------------------------------------------------- templates

    def _compile_templates(self, config) -> None:
        np = self.np
        model = self.model
        parameters = self.parameters
        selector = parameters.selector
        n = self.n
        max_phases = self.max_phases

        # Drive each (inbox-free) strategy through every round once, in
        # ascending order — exactly the rounds any run would execute — and
        # record the *actual* payloads and dict iteration orders.  RandomNoise
        # seeds its garbage stream from its pid, so the sequence of draws is
        # the same in every run of the cell; early-stopping runs consumed a
        # prefix of it, which recording rounds in ascending order preserves.
        strategies = {
            pid: build_byzantine(pid, name, parameters)
            for pid, name in self.byzantine.items()
        }

        suggestions = {}
        validator_sets = {}
        for phase in range(1, max_phases + 1):
            suggestion = selector.select(0, phase)
            suggestions[phase] = list(suggestion)
            validator_sets[phase] = selector.select(0, phase)

        outboxes = {}
        values = set()
        for pid, value in self.initial_values.items():
            values.add(value)
        for number in range(1, self.max_rounds + 1):
            info = self.structure.info(number)
            per_round = {}
            for pid in self.byz_pids:
                out = strategies[pid].send(info)
                per_round[pid] = out
                for payload in out.values():
                    _collect_values(info.kind, payload, values, max_phases)
            outboxes[number] = per_round

        self.alphabet = encode_alphabet(values)
        _require(
            all(
                value is not ANY_VALUE and value is not NULL_VALUE
                for value in self.alphabet
            ),
            "sentinel values cannot be encoded",
        )
        self.n_values = len(self.alphabet)
        code = {value: index for index, value in enumerate(self.alphabet)}
        self.initial_codes = {
            pid: code[value] for pid, value in self.initial_values.items()
        }

        self._code = code
        self._outboxes = outboxes
        self._suggestions = suggestions
        self._validator_sets = validator_sets
        self._templates: Dict[int, _RoundTemplate] = {}

    def template(self, number: int) -> _RoundTemplate:
        """Round ``number``'s template, built the first time a run needs it.

        Runs usually decide long before the horizon, so rounds no run
        reaches are never templated.
        """
        rt = self._templates.get(number)
        if rt is not None:
            return rt
        np = self.np
        n = self.n
        info = self.structure.info(number)
        rt = _RoundTemplate()
        rt.number = number
        rt.phase = info.phase
        rt.kind = info.kind
        per_round = self._outboxes[number]
        if info.kind is RoundKind.VALIDATION:
            validators = self._validator_sets[info.phase]
            rt.val_mask = np.zeros(n, dtype=bool)
            for pid in validators:
                rt.val_mask[pid] = True
            rt.val_len = len(validators)

        # The outbound edges in the kernel's order: sender-major, each
        # fan-out in its dict order — the order every delivery draw (timed
        # latencies, policy and filter coins) follows.
        senders: List[int] = []
        dests: List[int] = []
        for sender in range(n):
            if sender in self.byzantine:
                targets = list(per_round[sender])
            elif info.kind is RoundKind.SELECTION:
                targets = self._suggestions[info.phase]
            elif info.kind is RoundKind.VALIDATION and not rt.val_mask[sender]:
                targets = []
            else:
                targets = list(self.model.processes)
            senders.extend([sender] * len(targets))
            dests.extend(targets)
        rt.e_send = np.asarray(senders, dtype=np.intp)
        rt.e_dest = np.asarray(dests, dtype=np.intp)
        rt.sent = len(senders)
        rt.audience = None
        if self.lockstep:
            self._lockstep_delivery(rt)
        else:
            # Which edges consume one policy coin: lossy always, good-bad
            # only when the round is bad and the behaviour is "drop"; the
            # filter short-circuits on Byzantine receivers, which draw none.
            rt.coin_idx = np.nonzero(~self.byz_col[rt.e_dest])[0]
            self._precompute_delivery(rt)
        self._encode_payloads(rt, per_round, self._code)
        self._templates[number] = rt
        return rt

    def _encode_payloads(self, rt: _RoundTemplate, per_round, code) -> None:
        """Byzantine payloads of round ``rt`` as ``(dest, sender)`` tables.

        Validation and decision payloads travel as addressed.  A selection
        payload is what the scheduler hands the receiver: on the timed
        engine every Byzantine sender is canonicalized to the payload of
        its first outbound edge; a lockstep ``Pcons`` round collapses it to
        the payload addressed to the lowest audience member
        (:func:`~repro.rounds.policies.enforce_pcons`); any other lockstep
        round delivers it raw.
        """
        np = self.np
        n = self.n
        honest = self.honest_pids
        if rt.kind is RoundKind.SELECTION:
            rt.sok = np.zeros((n, n), dtype=bool)
            rt.sok[:, honest] = True
            rt.svote = np.full((n, n), NULL_CODE, dtype=np.int64)
            rt.sts = np.zeros((n, n), dtype=np.int64)
            rt.shist = {}
        elif rt.kind is RoundKind.VALIDATION:
            rt.vsel = np.full((n, n), NULL_CODE, dtype=np.int64)
        else:
            rt.dvote = np.full((n, n), NULL_CODE, dtype=np.int64)
            rt.dts = np.zeros((n, n), dtype=np.int64)
            rt.dok = np.zeros((n, n), dtype=bool)
            rt.dok[:, honest] = True

        for sender in self.byz_pids:
            out = per_round[sender]
            if not out:
                continue
            if rt.kind is RoundKind.SELECTION:
                self._encode_selection(rt, sender, out, code)
                continue
            for dest, payload in out.items():
                if rt.kind is RoundKind.VALIDATION:
                    parsed = coerce_validation_message(payload)
                    if parsed is not None and parsed.select is not NULL_VALUE:
                        rt.vsel[dest, sender] = _encode(code, parsed.select)
                else:
                    parsed = coerce_decision_message(payload)
                    if parsed is not None:
                        rt.dok[dest, sender] = True
                        rt.dvote[dest, sender] = _encode(code, parsed.vote)
                        rt.dts[dest, sender] = parsed.ts

    def _encode_selection(
        self, rt: _RoundTemplate, sender: int, out, code
    ) -> None:
        if not self.lockstep:
            # Pcons canonicalization on both timed scheduler branches.
            delivered = [(slice(None), next(iter(out.values())))]
        elif rt.audience is not None:
            reached = [dest for dest in out if rt.audience[dest]]
            if not reached:
                return  # no audience member addressed: nothing delivered
            delivered = [(slice(None), out[min(reached)])]
        else:
            delivered = list(out.items())
        np = self.np
        # Class 3 reads histories: one (V, P+1) membership table per receiver.
        table = None
        if self.flv_class == 3:
            table = np.zeros(
                (self.n, self.n_values, self.max_phases + 1), dtype=bool
            )
            rt.shist[sender] = table
        for rows, payload in delivered:
            parsed = coerce_selection_message(payload)
            if parsed is None:
                continue
            rt.sok[rows, sender] = True
            rt.svote[rows, sender] = _encode(code, parsed.vote)
            rt.sts[rows, sender] = parsed.ts
            if table is not None:
                table[rows] = _history_table(
                    np, parsed.history, code, self.n_values, self.max_phases
                )

    def _within_sides(self, rt: _RoundTemplate):
        """Which of round ``rt``'s edges stay inside one partition side."""
        return self.np.fromiter(
            (
                (int(s), int(d)) in self.partition
                for s, d in zip(rt.e_send, rt.e_dest)
            ),
            dtype=bool,
            count=rt.sent,
        )

    def _lockstep_delivery(self, rt: _RoundTemplate) -> None:
        """The lockstep policy's matrix for round ``rt``, minus the coins.

        Mirrors :func:`~repro.scenarios.compile._lockstep_policy`: good
        rounds (every round of ``reliable``, the schedule's good rounds of
        ``good-bad``) enforce ``Pcons`` in selection rounds and deliver
        faithfully otherwise; ``lossy`` rounds and ``drop`` bad rounds
        draw one coin per edge whose receiver is not Byzantine, in
        outbound order; ``partition``, ``silence`` and ``silent`` rounds
        draw nothing.  Byzantine receivers always get their raw traffic.
        """
        np = self.np
        e_send, e_dest = rt.e_send, rt.e_dest
        byz_dest = self.byz_col[e_dest]
        kind = self.filter_kind
        good = kind == "reliable" or (
            kind == "good-bad" and self.is_good(rt.number)
        )
        base = np.zeros((self.n, self.n), dtype=bool)
        coin = np.zeros(rt.sent, dtype=bool)
        if good and rt.kind is RoundKind.SELECTION:
            # enforce_pcons: the audience is the correct receivers correct
            # senders address; every sender addressing one of them reaches
            # all of them (with its canonical payload).
            audience = np.zeros(self.n, dtype=bool)
            audience[e_dest[self.honest_col[e_send] & ~byz_dest]] = True
            reaches = np.zeros(self.n, dtype=bool)
            reaches[e_send[audience[e_dest]]] = True
            base[np.ix_(audience, reaches)] = True
            rt.audience = audience
            admit = byz_dest
        elif good:
            admit = np.ones(rt.sent, dtype=bool)
        elif kind == "lossy" or (kind == "good-bad" and self.bad == "drop"):
            admit = byz_dest
            coin = ~byz_dest
        elif kind == "good-bad" and self.bad == "partition":
            admit = self._within_sides(rt) | byz_dest
        else:  # silent, or a good-bad "silence" bad round
            admit = byz_dest
        base[e_dest[admit], e_send[admit]] = True
        rt.base = base
        rt.coin_dest = e_dest[coin]
        rt.coin_send = e_send[coin]
        rt.base_delivered = int(base.sum())
        rt.base_hit = int(base[e_dest, e_send].sum())

    def _precompute_delivery(self, rt: _RoundTemplate) -> None:
        """Everything about round ``rt`` that no per-run seed can change.

        The wall clock is run-invariant (every run accumulates the same
        ``deadline = now + round_duration`` float sequence), and so is the
        scenario filter's admission base — only the per-edge drop coins
        differ between runs.  Hoisting both out of :meth:`_delivered_edges`
        leaves coin draws, latency draws and one deadline compare as the
        entire per-run round cost.
        """
        np = self.np
        # Same float accumulation as the scalar scheduler: the round's
        # start is the previous round's deadline.
        now = 0.0
        for _ in range(rt.number - 1):
            now = now + self.round_duration
        rt.now = now
        rt.deadline = now + self.round_duration
        rt.pre_gst = now < self.gst
        rt.constant = (
            min(self.low, self.delta)
            if self.fixed_latency and not rt.pre_gst
            else None
        )
        rt.delivers_all = (
            rt.constant is not None and now + rt.constant <= rt.deadline
        )
        rt.all_idx = np.arange(rt.sent, dtype=np.intp)
        rt.none_idx = np.empty(0, dtype=np.intp)

        kind = self.filter_kind
        byz_dest = self.byz_col[rt.e_dest]
        rt.use_coins = False
        if kind == "reliable":
            rt.admit_base = None  # filter-free: deadline decides alone
        elif kind == "silent":
            rt.admit_base = byz_dest
        elif kind == "lossy":
            rt.admit_base = byz_dest
            rt.use_coins = rt.coin_idx.size > 0
        elif self.is_good(rt.number):
            rt.admit_base = np.ones(rt.sent, dtype=bool)
        elif self.bad == "partition":
            rt.admit_base = self._within_sides(rt) | byz_dest
        elif self.bad == "silence":
            rt.admit_base = byz_dest
        else:
            # lossy, or good-bad "drop" in a bad round: one coin per edge
            # whose receiver is not Byzantine, in template (sender-major)
            # order, flips each edge of the base on or off per run.
            rt.admit_base = byz_dest
            rt.use_coins = rt.coin_idx.size > 0
        rt.pending_idx = (
            None
            if rt.admit_base is None or rt.use_coins
            else np.nonzero(rt.admit_base)[0]
        )

    # ------------------------------------------------------ mask producer

    def _lockstep_masks(
        self, rt: _RoundTemplate, live, coins, sent, delivered, dropped
    ):
        """The ``(B, n, n)`` delivery masks of one lockstep round.

        The template's ``base`` holds for every run; only coin-decided
        edges differ, each run's coins coming next from its own policy
        stream.  The counters follow the scheduler's edge-exact
        accounting: delivered counts the matrix (``Pcons`` injections
        included), dropped the sent edges absent from it.
        """
        np = self.np
        deliv = np.repeat(rt.base[None, :, :], coins.runs, axis=0)
        gained = 0
        if rt.coin_dest.size:
            admitted = coins.take(rt.coin_dest.size)[live] >= self.drop_prob
            deliv[live[:, None], rt.coin_dest, rt.coin_send] = admitted
            gained = admitted.sum(axis=1)
        sent[live] += rt.sent
        delivered[live] += rt.base_delivered + gained
        dropped[live] += rt.sent - rt.base_hit - gained
        return deliv

    def _transits(self, net, rt: _RoundTemplate, count: int):
        """The next ``count`` transit times of one run's network stream.

        Op-for-op the batched paths of
        :meth:`PartialSynchronyNetwork.sample_round` / ``sample_fan`` and
        ``_pre_gst_block`` — per-sender fan calls concatenate into one
        round-wide block because consecutive ``block`` calls continue one
        stream and every segment has even length in the interleaved case.
        """
        np = self.np
        if not rt.pre_gst:
            draws = net.block(count)
            transits = self.low + (self.high - self.low) * draws
            if not self.clamp_free:
                transits = np.minimum(transits, self.delta)
            return transits
        if self.fixed_latency:
            coins = net.block(count)
            return np.where(
                coins < self.pre_prob, self.low * self.chaos, self.low
            )
        draws = net.block(2 * count)
        bases = self.low + (self.high - self.low) * draws[0::2]
        bases[draws[1::2] < self.pre_prob] *= self.chaos
        return bases

    def _delivered_edges(self, rt: _RoundTemplate, net, pol):
        """Indices of the round's delivered edges for one run.

        Only the seed-dependent work happens here: per-edge drop coins
        (policy stream) and latency draws (network stream).  Everything
        else — the admission base, the wall-clock window, the zero-draw
        constant verdict — was precomputed on the template.  Stream
        consumption order matches the scalar scheduler exactly: the
        filter's coins first, then the deadline sweep's latencies.
        """
        np = self.np
        if rt.use_coins:
            coins = pol.block(int(rt.coin_idx.size))
            admitted = rt.admit_base.copy()
            admitted[rt.coin_idx] = coins >= self.drop_prob
            pending = np.nonzero(admitted)[0]
        elif rt.admit_base is None:
            # Filter-free: every edge samples (unless the zero-draw constant
            # branch applies); admissions are decided by the deadline only.
            if rt.constant is not None:
                return rt.all_idx if rt.delivers_all else rt.none_idx
            transits = self._transits(net, rt, rt.sent)
            return np.nonzero(rt.now + transits <= rt.deadline)[0]
        else:
            pending = rt.pending_idx
        if rt.constant is not None:
            return pending if rt.delivers_all else rt.none_idx
        if pending.size == 0:
            return pending
        transits = self._transits(net, rt, int(pending.size))
        return pending[rt.now + transits <= rt.deadline]

    # ------------------------------------------------------ array program

    def execute(self, seeds: Sequence[int]) -> List[Dict[str, object]]:
        """Run every seed's instance at once; one result dict per seed."""
        np = self.np
        n = self.n
        B = len(seeds)
        P = self.max_phases
        V = self.n_values
        honest_col = self.honest_col

        # Per run: a network stream and a policy stream, both seeded with
        # the run seed — exactly compile_batch_scenario's pair (nothing is
        # drawn at compile time, so fresh streams are equal streams).  A
        # lockstep run draws from its policy stream only.
        if self.lockstep:
            streams = _CoinStreams(np, seeds)
        else:
            streams = [(BlockRng(seed), BlockRng(seed)) for seed in seeds]
        vote = np.zeros((B, n), dtype=np.int64)
        ts = np.zeros((B, n), dtype=np.int64)
        selected = np.full((B, n), NULL_CODE, dtype=np.int64)
        hist = None
        if self.need_hist:
            hist = np.full((B, n, P + 1), NULL_CODE, dtype=np.int64)
        for pid, value_code in self.initial_codes.items():
            vote[:, pid] = value_code
            if hist is not None:
                hist[:, pid, 0] = value_code

        decided = np.zeros((B, n), dtype=bool)
        dec_value = np.full((B, n), NULL_CODE, dtype=np.int64)
        dec_round = np.zeros((B, n), dtype=np.int64)
        dec_time = np.zeros((B, n), dtype=np.float64)
        rounds_exec = np.zeros(B, dtype=np.int64)
        sent = np.zeros(B, dtype=np.int64)
        delivered = np.zeros(B, dtype=np.int64)
        dropped = np.zeros(B, dtype=np.int64)
        active = np.ones(B, dtype=bool)

        b_idx = np.arange(B)[:, None, None]
        b_idx2 = np.arange(B)[:, None]
        for number in range(1, self.max_rounds + 1):
            if not active.any():
                break
            rt = self.template(number)
            live = np.nonzero(active)[0]
            if self.lockstep:
                deliv = self._lockstep_masks(
                    rt, live, streams, sent, delivered, dropped
                )
            else:
                deliv = np.zeros((B, n, n), dtype=bool)
                for bi in live:
                    net, pol = streams[bi]
                    on = self._delivered_edges(rt, net, pol)
                    if on.size:
                        deliv[bi, rt.e_dest[on], rt.e_send[on]] = True
                    sent[bi] += rt.sent
                    delivered[bi] += on.size
                    dropped[bi] += rt.sent - on.size

            upd = active[:, None] & honest_col[None, :]
            phase = rt.phase
            if rt.kind is RoundKind.SELECTION:
                valid = deliv & rt.sok[None, :, :]
                eff_vote = np.where(
                    self.byz_col, rt.svote[None, :, :], vote[:, None, :]
                )
                eff_ts = np.where(
                    self.byz_col,
                    rt.sts[None, :, :],
                    ts[:, None, :] if self.uses_ts else 0,
                )
                if self.flv_class == 1:
                    concrete, any_mask = flv_class1_columnar(
                        np, valid, eff_vote, V, self.slack
                    )
                elif self.flv_class == 2:
                    concrete, any_mask = flv_class2_columnar(
                        np, valid, eff_vote, eff_ts, V, self.slack, self.b
                    )
                else:
                    hsup = self._history_support(
                        rt, valid, eff_vote, eff_ts, hist, b_idx
                    )
                    concrete, any_mask = flv_class3_columnar(
                        np, valid, eff_vote, eff_ts, hsup, V,
                        self.slack, self.b, self.ensure_unanimity,
                    )
                resolved = resolve_any_columnar(np, valid, eff_vote, V)
                sel = np.where(any_mask, resolved, concrete)
                got = sel >= 0
                vote = np.where(upd & got, sel, vote)
                if hist is not None:
                    hist[:, :, phase] = np.where(
                        upd & got, sel, hist[:, :, phase]
                    )
                selected = np.where(upd, sel, selected)
            elif rt.kind is RoundKind.VALIDATION:
                eff_sel = np.where(
                    self.byz_col, rt.vsel[None, :, :], selected[:, None, :]
                )
                valid = deliv & (eff_sel >= 0) & rt.val_mask[None, None, :]
                counts = counts_by_value(np, valid, eff_sel, V)
                winners = 2 * counts > rt.val_len + self.b
                pick = pick_min_code(np, winners)
                success = pick >= 0
                vote = np.where(upd & success, pick, vote)
                ts = np.where(upd & success, phase, ts)
                # Line 26: revert to the (unique) history value at ts, or
                # keep the vote when no selection was logged at that phase.
                reverted = hist[b_idx2, np.arange(n)[None, :], ts]
                revert = upd & ~success & (reverted != NULL_CODE)
                vote = np.where(revert, reverted, vote)
            else:
                eff_vote = np.where(
                    self.byz_col, rt.dvote[None, :, :], vote[:, None, :]
                )
                valid = deliv & rt.dok[None, :, :]
                if self.phase_gated:
                    eff_ts = np.where(
                        self.byz_col, rt.dts[None, :, :], ts[:, None, :]
                    )
                    valid = valid & (eff_ts == phase)
                counts = counts_by_value(np, valid, eff_vote, V)
                win = threshold_pick(np, counts, self.threshold)
                fired = upd & (win >= 0) & ~decided
                dec_value = np.where(fired, win, dec_value)
                dec_round = np.where(fired, rt.number, dec_round)
                if not self.lockstep:
                    dec_time = np.where(fired, rt.deadline, dec_time)
                decided = decided | fired

            rounds_exec[active] = rt.number
            all_decided = (decided | self.byz_col[None, :]).all(axis=1)
            active = active & ~all_decided

        results = []
        byz_set = frozenset(self.byz_pids)
        correct = frozenset(self.honest_pids)
        for bi in range(B):
            deciders = [pid for pid in self.honest_pids if decided[bi, pid]]
            phases = last_time = None
            if deciders and self.lockstep:
                # Lockstep rows carry the phase of the last decision round;
                # timed rows carry its time instead.
                last = max(int(dec_round[bi, pid]) for pid in deciders)
                phases = self.structure.info(last).phase
            elif deciders:
                last_time = max(float(dec_time[bi, pid]) for pid in deciders)
            decided_values = {
                pid: self.alphabet[int(dec_value[bi, pid])] for pid in deciders
            }
            results.append(
                {
                    "decided_values": decided_values,
                    "initial_values": self.initial_values,
                    "byzantine": byz_set,
                    "correct": correct,
                    "decided": len(decided_values),
                    "rounds": int(rounds_exec[bi]),
                    "phases": phases,
                    "time_to_decision": last_time,
                    "messages_sent": int(sent[bi]),
                    "messages_delivered": int(delivered[bi]),
                    "messages_dropped": int(dropped[bi]),
                }
            )
        return results

    def _history_support(self, rt, valid, eff_vote, eff_ts, hist, b_idx):
        """``history_support[b, d, m]``: valid senders whose history holds
        the queried ``(vote_m, ts_m)`` pair (class-3 FLV, Algorithm 4 line 2).

        A Byzantine sender's history is the one in the payload receiver
        ``d`` got, so its table is looked up per receiver.
        """
        np = self.np
        P = self.max_phases
        in_range = (eff_ts >= 0) & (eff_ts <= P) & (eff_vote >= 0)
        ts_q = np.clip(eff_ts, 0, P)
        vote_q = np.clip(eff_vote, 0, self.n_values - 1)
        support = np.zeros(valid.shape, dtype=np.int64)
        for sender in self.honest_pids:
            held = hist[:, sender, :][b_idx, ts_q]
            contains = in_range & (held == eff_vote)
            support += np.where(valid[:, :, sender][:, :, None], contains, False)
        dest_q = np.arange(self.n)[None, :, None]
        for sender, table in rt.shist.items():
            contains = in_range & table[dest_q, vote_q, ts_q]
            support += np.where(valid[:, :, sender][:, :, None], contains, False)
        return support


class _CoinStreams:
    """Every run's lockstep policy stream, drawn round-wide as ``(B, k)``.

    A lockstep policy draws only loss coins, the same number in every run
    of a round, so column ``j`` of the next ``take(k)`` is each run's own
    next draw.  Refills draw ahead in blocks; a run that stops early
    leaves unread draws, which nothing else consumes.
    """

    __slots__ = ("np", "runs", "_streams", "_buf", "_pos")

    _REFILL = 512

    def __init__(self, np, seeds: Sequence[int]) -> None:
        self.np = np
        self.runs = len(seeds)
        self._streams = [BlockRng(seed) for seed in seeds]
        self._buf = np.empty((self.runs, 0))
        self._pos = 0

    def take(self, k: int):
        np = self.np
        if self._pos + k > self._buf.shape[1]:
            grow = max(k, self._REFILL)
            fresh = np.stack([stream.block(grow) for stream in self._streams])
            self._buf = np.concatenate(
                (self._buf[:, self._pos :], fresh), axis=1
            )
            self._pos = 0
        out = self._buf[:, self._pos : self._pos + k]
        self._pos += k
        return out


def _encode(code: Dict, value) -> int:
    try:
        result = code[value]
    except (KeyError, TypeError):
        raise _Demote(f"value {value!r} escaped the cell alphabet") from None
    return result


def _history_table(np, history, code, n_values: int, max_phases: int):
    """One Byzantine history as a dense ``(V, P+1)`` membership table."""
    table = np.zeros((n_values, max_phases + 1), dtype=bool)
    for value, entry_phase in history:
        _require(
            0 <= entry_phase <= max_phases,
            "byzantine history phase outside the horizon",
        )
        index = code.get(value)
        if index is not None:
            table[index, entry_phase] = True
    return table


def _collect_values(kind, payload, values, max_phases: int) -> None:
    """Add every encodable value a coerced payload can inject to the pool."""
    if kind is RoundKind.SELECTION:
        parsed = coerce_selection_message(payload)
        if parsed is not None:
            values.add(parsed.vote)
    elif kind is RoundKind.VALIDATION:
        parsed = coerce_validation_message(payload)
        if parsed is not None and parsed.select is not NULL_VALUE:
            values.add(parsed.select)
    else:
        parsed = coerce_decision_message(payload)
        if parsed is not None:
            values.add(parsed.vote)


def _suggested_phases(run: RunSpec) -> int:
    suggested = run.scenario.max_phases
    return run.max_phases if suggested is None else suggested


def columnar_state_rows(
    runs: Sequence[RunSpec],
) -> Optional[List[Optional[Row]]]:
    """Execute one cell's runs as a single array program.

    Returns the oracle-identical row list (``None`` entries mark runs the
    caller must complete through the scalar oracle), or ``None`` when the
    whole cell must demote a tier — numpy absent or a template assumption
    the planner could not see failing at build time.  A timed cell then
    runs on the per-run columnar tier (whose pure-python fallback uses the
    same per-run ``BlockRng`` streams, drawn as scalars); a lockstep cell
    on the scalar oracle.
    """
    np = get_numpy()
    if np is None:
        return None
    from repro.analysis.invariants import evaluate_properties
    from repro.campaigns.runner import (
        STATUS_ERROR,
        STATUS_INADMISSIBLE,
        STATUS_INAPPLICABLE,
        _base_row,
        _resolve_algorithm_memo,
    )

    rows: List[Optional[Row]] = [None] * len(runs)
    viable: List[int] = []
    prepared: List[Row] = []
    program: Optional[_CellProgram] = None
    compiled_outcome = None
    try:
        for index, run in enumerate(runs):
            row = _base_row(run)
            try:
                model = FaultModel(run.n, run.b, run.f)
            except ValueError as exc:
                row.update(status=STATUS_INADMISSIBLE, error=str(exc))
                rows[index] = _tag(row)
                continue
            try:
                parameters, config = _resolve_algorithm_memo(
                    run.algorithm, model
                )
            except ValueError as exc:
                row.update(status=STATUS_INADMISSIBLE, error=str(exc))
                rows[index] = _tag(row)
                continue
            except Exception as exc:
                row.update(
                    status=STATUS_ERROR, error=f"{type(exc).__name__}: {exc}"
                )
                rows[index] = _tag(row)
                continue
            hosted = parameters.model
            if hosted.b < model.b or hosted.f < model.f:
                row.update(
                    status=STATUS_INADMISSIBLE,
                    error=(
                        f"{run.algorithm} hosts (b={hosted.b}, f={hosted.f}), "
                        f"grid point wants (b={model.b}, f={model.f})"
                    ),
                )
                rows[index] = _tag(row)
                continue
            # One compilation serves the whole cell: placement, the crash
            # schedule and the inapplicability verdict are memoized per
            # (spec, model) and provably seed-independent, so every run of
            # the cell gets the same outcome the oracle would hand it.
            if compiled_outcome is None:
                try:
                    compiled_outcome = (
                        "ok",
                        compile_scenario(
                            run.scenario, model, run.engine, run.seed
                        ),
                    )
                except ScenarioInapplicable as exc:
                    compiled_outcome = ("inapplicable", str(exc))
                except Exception:
                    # Oracle fallback: traceback rows must be its own.
                    compiled_outcome = ("oracle", None)
            verdict, compiled = compiled_outcome
            if verdict == "inapplicable":
                row.update(status=STATUS_INAPPLICABLE, error=compiled)
                rows[index] = _tag(row)
                continue
            if verdict == "oracle":
                continue
            if program is None:
                # The planner proved crashes == 0; a schedule appearing
                # anyway means the proof is stale — trust the oracle tiers.
                _require(compiled.crash_schedule is None, "crash schedule")
                program = _CellProgram(
                    np, run, model, parameters, config, compiled.byzantine
                )
            viable.append(index)
            prepared.append(row)

        if program is None or not viable:
            return rows
        results = program.execute([runs[index].seed for index in viable])
    except _Demote:
        return None
    except Exception:
        return None  # any array-program surprise: demote, never fabricate

    for row, result in zip(prepared, results):
        report = evaluate_properties(
            decided_values=result["decided_values"],
            initial_values=result["initial_values"],
            byzantine=result["byzantine"],
            correct=result["correct"],
        )
        row.update(
            decided=result["decided"],
            rounds=result["rounds"],
            phases=result["phases"],
            time_to_decision=result["time_to_decision"],
            messages_sent=result["messages_sent"],
            messages_delivered=result["messages_delivered"],
            messages_dropped=result["messages_dropped"],
            **report,
        )
    for index, row in zip(viable, prepared):
        rows[index] = _tag(row)
    return rows


def _tag(row: Row) -> Row:
    row["_backend"] = "columnar-state"
    return row
