"""Round schedulers: the timing discipline of an execution.

A :class:`RoundScheduler` answers one question per round: given what every
live process put on the wire, what does each receiver's inbox contain — and,
if rounds are timed, when does the round end?

* :class:`LockstepScheduler` wraps a
  :class:`~repro.rounds.policies.DeliveryPolicy`: rounds are untimed and an
  oracle realizes the communication predicate in force (``Pgood``/``Pcons``
  in good periods, adversarial behaviours in bad ones).
* :class:`TimedScheduler` paces rounds with a common duration Δ over a
  :class:`~repro.eventsim.network.PartialSynchronyNetwork`: messages sent at
  the round's start arrive after a sampled latency and are delivered only if
  they meet the round deadline (communication-closed rounds — late messages
  are discarded).  Byzantine equivocation in selection rounds is
  canonicalized to one payload per sender, as an implemented ``Pcons``
  would enforce; stretch ``selection_round_factor`` to model the extra
  micro-rounds such an implementation costs.

Within one round every ``(sender, dest)`` edge carries at most one message,
so the delivery matrix is independent of arrival order: the timed scheduler
therefore compares each sampled transit against the deadline directly —
O(m) per round, no event heap — while drawing latencies in exactly the
sender-major, dest-minor order the historical heap path used, so seeded
runs are unchanged.  Set ``REPRO_SLOW_SCHEDULER=1`` to force the legacy
:class:`~repro.eventsim.events.EventQueue` push/pop path (the identity
suite diffs the two); ``eventsim`` users that genuinely need ordered
arrival keep using :class:`EventQueue` directly.

Both schedulers inherit the no-impersonation guarantee from the outbound
matrix they receive: a payload delivered as coming from ``q`` was produced
by ``q`` in this round.
"""

from __future__ import annotations

import abc
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.core.types import ProcessId, RoundInfo, RoundKind
from repro.rounds.base import DeliveryMatrix, OutboundMatrix, RunContext
from repro.rounds.policies import DeliveryPolicy, ReliablePolicy

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.eventsim.network import PartialSynchronyNetwork

#: Per-message admission test for timed rounds: ``(info, sender, dest, ctx)``
#: → deliver?  Scenario compilation uses this to host round-schedule
#: behaviours (partitions, loss, GST prefixes) on the timed engine; a
#: rejected message counts as dropped before any latency is sampled.
DeliveryFilter = Callable[[RoundInfo, ProcessId, ProcessId, RunContext], bool]

#: Environment switch selecting the legacy heap-ordered timed delivery.
SLOW_SCHEDULER_ENV = "REPRO_SLOW_SCHEDULER"


@dataclass(frozen=True)
class RoundDelivery:
    """What a scheduler decided for one round."""

    #: receiver → (sender → payload).
    matrix: DeliveryMatrix
    #: Messages discarded (timed rounds: missed the deadline).
    dropped: int = 0
    #: Simulated end time of the round; ``None`` for untimed disciplines.
    end_time: Optional[float] = None


class RoundScheduler(abc.ABC):
    """Strategy deciding delivery (and pacing) of each round.

    A scheduler may carry per-run state (the timed scheduler tracks the
    simulated clock and in-flight messages); the kernel calls :meth:`reset`
    when it binds a scheduler, so one scheduler object can safely be reused
    across runs.
    """

    #: Bound instrumentation registry, or ``None`` (the un-instrumented hot
    #: path — subclasses branch once per round on this, so the disabled
    #: path executes the exact pre-instrumentation code).
    _telemetry = None

    def set_telemetry(self, telemetry) -> None:
        """Bind (or, with ``None``, clear) the per-run telemetry registry.

        The kernel calls this every time it binds a scheduler, so a
        scheduler reused across runs never reports into a stale registry.
        """
        self._telemetry = telemetry

    def reset(self) -> None:
        """Clear per-run state; called when a kernel binds this scheduler."""

    @abc.abstractmethod
    def deliver_round(
        self, info: RoundInfo, outbound: OutboundMatrix, ctx: RunContext
    ) -> RoundDelivery:
        """Turn the round's outbound matrix into its delivery outcome."""


class LockstepScheduler(RoundScheduler):
    """Untimed rounds delegated to a delivery policy (oracle predicates)."""

    def __init__(self, policy: Optional[DeliveryPolicy] = None) -> None:
        self._policy = policy or ReliablePolicy()

    @property
    def policy(self) -> DeliveryPolicy:
        return self._policy

    def deliver_round(
        self, info: RoundInfo, outbound: OutboundMatrix, ctx: RunContext
    ) -> RoundDelivery:
        tel = self._telemetry
        if tel is None:
            return self._deliver(info, outbound, ctx)
        with tel.span("scheduler.deliver"):
            return self._deliver(info, outbound, ctx)

    def _deliver(
        self, info: RoundInfo, outbound: OutboundMatrix, ctx: RunContext
    ) -> RoundDelivery:
        # A policy withholds by omission; each sent edge that did not reach
        # its destination counts as dropped, so sent == delivered + dropped
        # holds on both scheduler branches.  Counting policies report the
        # count themselves (deliver_counted); a policy that cannot — a
        # subclass overriding ``deliver``, or a custom bad behaviour that
        # may *inject* deliveries — leaves it to the edge-exact rescan
        # below, which never goes negative from such injections.
        matrix, dropped = self._policy.deliver_counted(info, outbound, ctx)
        if dropped is None:
            dropped = 0
            get = matrix.get
            empty: Dict[ProcessId, object] = {}
            for sender, messages in outbound.items():
                for dest in messages:
                    if sender not in get(dest, empty):
                        dropped += 1
        return RoundDelivery(matrix, dropped=dropped)


class _SampleTimingNetwork:
    """A timing proxy over :class:`PartialSynchronyNetwork` sampling calls.

    Instrumented timed rounds route latency sampling through this wrapper,
    which accounts each batched draw into a ``network.sample`` span (nested
    inside the scheduler's ``scheduler.deliver`` span).  The network object
    itself stays untouched, so the un-instrumented path pays nothing.
    ``constant_transit`` passes through un-timed: it is the zero-draw
    post-GST short-circuit, and timing it would misreport the phase it
    exists to skip.
    """

    __slots__ = ("_network", "_telemetry")

    def __init__(self, network, telemetry) -> None:
        self._network = network
        self._telemetry = telemetry

    def constant_transit(self, send_time: float):
        return self._network.constant_transit(send_time)

    def sample_fan(self, send_time: float, sender: ProcessId, dests):
        with self._telemetry.span("network.sample"):
            return self._network.sample_fan(send_time, sender, dests)

    def sample_round(self, send_time: float, edges):
        with self._telemetry.span("network.sample"):
            return self._network.sample_round(send_time, edges)


class TimedScheduler(RoundScheduler):
    """Δ-paced rounds with deadline delivery over a timed network."""

    def __init__(
        self,
        network: "PartialSynchronyNetwork",
        *,
        round_duration: float = 2.5,
        selection_round_factor: float = 1.0,
        delivery_filter: Optional[DeliveryFilter] = None,
        use_heap: Optional[bool] = None,
    ) -> None:
        if round_duration <= 0:
            raise ValueError(f"round_duration must be positive, got {round_duration}")
        self._network = network
        self._round_duration = round_duration
        self._selection_factor = selection_round_factor
        self._filter = delivery_filter
        # ``use_heap`` selects the legacy EventQueue delivery; it defaults
        # to the REPRO_SLOW_SCHEDULER environment switch so the identity
        # suite (and worried users) can diff the two paths end to end.
        if use_heap is None:
            use_heap = os.environ.get(SLOW_SCHEDULER_ENV, "") not in ("", "0")
        self._queue = None
        if use_heap:
            # Imported here: repro.eventsim.runtime (pulled in by the
            # eventsim package init) imports this module, so a module-level
            # import of repro.eventsim.events would be circular.
            from repro.eventsim.events import EventQueue

            self._queue = EventQueue()
        self._now = 0.0

    def reset(self) -> None:
        """Rewind the clock and drop in-flight messages (new run)."""
        if self._queue is not None:
            self._queue.clear()
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current simulated time (the deadline of the last round)."""
        return self._now

    @property
    def delivery_filter(self) -> Optional[DeliveryFilter]:
        """The per-message admission test, or ``None`` (filter-free).

        Exposed so scenario compilation post-passes (the batch backend
        swaps in its columnar scheduler subclass) can rebuild an
        equivalent scheduler without reaching into private state.
        """
        return self._filter

    def deliver_round(
        self, info: RoundInfo, outbound: OutboundMatrix, ctx: RunContext
    ) -> RoundDelivery:
        duration = self._round_duration
        if info.kind is RoundKind.SELECTION:
            duration *= self._selection_factor
        deadline = self._now + duration
        tel = self._telemetry
        if tel is None:
            if self._queue is not None:
                return self._deliver_round_heap(info, outbound, ctx, deadline)
            return self._deliver_fast(
                info, outbound, ctx, deadline, self._network
            )
        with tel.span("scheduler.deliver"):
            if self._queue is not None:
                # The heap path samples through transit_time message by
                # message; attribution stays at the deliver-span level.
                return self._deliver_round_heap(info, outbound, ctx, deadline)
            return self._deliver_fast(
                info, outbound, ctx, deadline,
                _SampleTimingNetwork(self._network, tel),
            )

    def _deliver_fast(
        self,
        info: RoundInfo,
        outbound: OutboundMatrix,
        ctx: RunContext,
        deadline: float,
        network,
    ) -> RoundDelivery:
        """Heap-free deadline delivery; ``network`` may be a timing proxy."""
        now = self._now
        dropped = 0
        matrix: DeliveryMatrix = {}
        setdefault = matrix.setdefault
        is_selection = info.kind is RoundKind.SELECTION
        byzantine = ctx.byzantine
        flt = self._filter

        # Send and deliver in one sweep.  Within one round each edge
        # carries at most one message, so the matrix does not depend on
        # arrival order and the deadline test decides delivery directly —
        # no heap.  Latencies are drawn per sender fan-out in sender-major,
        # dest-minor order: draw-for-draw the order of the heap path.
        # Communication closure applies to every receiver, Byzantine
        # included: a message missing its deadline is dropped.
        constant = network.constant_transit(now)
        delivers_all = constant is not None and now + constant <= deadline
        if flt is None:
            for sender, messages in outbound.items():
                if not messages:
                    continue
                canonicalize = is_selection and sender in byzantine
                if constant is not None:
                    # Post-GST fixed latency: zero RNG draws, one test.
                    if not delivers_all:
                        dropped += len(messages)
                        continue
                    if canonicalize:
                        # Pcons canonicalization: one payload per
                        # Byzantine sender within a selection round.
                        payload = next(iter(messages.values()))
                        for dest in messages:
                            setdefault(dest, {})[sender] = payload
                    else:
                        for dest, payload in messages.items():
                            setdefault(dest, {})[sender] = payload
                    continue
                transits = network.sample_fan(now, sender, messages)
                if canonicalize:
                    payload = next(iter(messages.values()))
                    for dest, transit in zip(messages, transits):
                        if now + transit <= deadline:
                            setdefault(dest, {})[sender] = payload
                        else:
                            dropped += 1
                else:
                    for (dest, payload), transit in zip(messages.items(), transits):
                        if now + transit <= deadline:
                            setdefault(dest, {})[sender] = payload
                        else:
                            dropped += 1
        else:
            # Scenario runs: the filter admits edges *before* any latency
            # is sampled (a suppressed edge draws nothing, as on the heap
            # path).  The admitted (sender, dest, payload) records are
            # collected round-wide in sampling order and batched through
            # one sample_round call.
            canonical: Dict[ProcessId, object] = {}
            pending: List[Tuple[ProcessId, ProcessId, object]] = []
            admit = pending.append
            for sender, messages in outbound.items():
                canonicalize = is_selection and sender in byzantine
                for dest, payload in messages.items():
                    if canonicalize:
                        # Canonicalize *before* the delivery filter: the
                        # payload an equivocator is pinned to must not
                        # depend on which edge survives a partition, or the
                        # filtered run diverges from the filter-free one.
                        payload = canonical.setdefault(sender, payload)
                    if flt(info, sender, dest, ctx):
                        admit((sender, dest, payload))
                    else:
                        # The scenario's communication schedule suppresses
                        # this edge (partition side, bad-period loss, …).
                        dropped += 1
            if constant is not None:
                if delivers_all:
                    for sender, dest, payload in pending:
                        setdefault(dest, {})[sender] = payload
                else:
                    dropped += len(pending)
            elif pending:
                transits = network.sample_round(now, pending)
                for (sender, dest, payload), transit in zip(pending, transits):
                    if now + transit <= deadline:
                        setdefault(dest, {})[sender] = payload
                    else:
                        dropped += 1

        self._now = deadline
        return RoundDelivery(matrix, dropped=dropped, end_time=deadline)

    def _deliver_round_heap(
        self,
        info: RoundInfo,
        outbound: OutboundMatrix,
        ctx: RunContext,
        deadline: float,
    ) -> RoundDelivery:
        """The legacy event-heap delivery (REPRO_SLOW_SCHEDULER=1).

        Samples one transit per message through
        :meth:`~repro.eventsim.network.PartialSynchronyNetwork.transit_time`
        and delivers through the :class:`~repro.eventsim.events.EventQueue`
        in arrival order — O(m log m).  Kept verbatim as the oracle the
        byte-identity suite diffs the fast path against.
        """
        canonical: Dict[ProcessId, object] = {}
        dropped = 0
        flt = self._filter
        if flt is None:
            for sender, messages in outbound.items():
                for dest, payload in messages.items():
                    if info.kind is RoundKind.SELECTION and sender in ctx.byzantine:
                        payload = canonical.setdefault(sender, payload)
                    transit = self._network.transit_time(self._now, sender, dest)
                    if self._now + transit <= deadline:
                        self._queue.push(self._now + transit, (dest, sender, payload))
                    else:
                        dropped += 1
        else:
            for sender, messages in outbound.items():
                canonicalize = (
                    info.kind is RoundKind.SELECTION and sender in ctx.byzantine
                )
                for dest, payload in messages.items():
                    if canonicalize:
                        payload = canonical.setdefault(sender, payload)
                    if not flt(info, sender, dest, ctx):
                        dropped += 1
                        continue
                    transit = self._network.transit_time(self._now, sender, dest)
                    if self._now + transit <= deadline:
                        self._queue.push(self._now + transit, (dest, sender, payload))
                    else:
                        dropped += 1

        matrix: DeliveryMatrix = {}
        while self._queue:
            arrival = self._queue.peek_time()
            if arrival is None or arrival > deadline:
                break
            dest, sender, payload = self._queue.pop().payload
            matrix.setdefault(dest, {})[sender] = payload
        dropped += self._queue.clear()

        self._now = deadline
        return RoundDelivery(matrix, dropped=dropped, end_time=deadline)
