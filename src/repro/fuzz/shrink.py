"""Delta-debugging shrinker: reduce a finding to a minimal failing spec.

Greedy first-improvement descent over a fixed, deterministic proposal
order: at each step the most aggressive simplification that still
*reproduces the finding* (same kind, under the candidate's own
content-derived seed) is accepted and the descent restarts from the top.
No randomness is consumed — for a fixed fuzz seed the shrink trace is a
pure function of the starting candidate, which is what the determinism
acceptance criterion requires.

Proposals, roughly most-aggressive first:

* drop the timed engine for the lockstep oracle;
* remove / reduce the Byzantine placement (no slots → one slot → one
  fewer), simplify each strategy toward ``silent``;
* remove / simplify the crash script;
* collapse the communication schedule toward reliable, then toward a
  single GST-style ``after`` clause with deterministic loss;
* reset timed-network conditions to the defaults;
* shrink the model (``n − 1``, ``b − 1``, ``f − 1``).

Every accepted step is a *constructible* candidate (dataclass validation
re-runs on every proposal) that still exhibits the finding — the shrinker
invariants the test suite checks.  The phase budget is never reduced:
shrinking the horizon would manufacture liveness "findings" out of thin
air.

Every reproduction attempt goes through a :class:`VerdictMemo`, so a run
already executed in the same hunt (by the fuzz loop, an earlier shrink or
an earlier step of this one) is looked up instead of re-executed.  The
memo key is ``(candidate, seed, over_bound)`` with the frozen
:class:`~repro.fuzz.space.FuzzCandidate` *value*, not its ``key()``
string: ``key()`` formats floats with ``:g`` and leaves out the scenario
name, so two distinct specs can share one key string, and a memo keyed by
it could hand one the other's verdict.  Seeds are content-derived and
execution is deterministic, so a hit is exactly the verdict a
re-execution would return.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterator, Optional, Tuple

from repro.eventsim.network import NetworkSpec
from repro.fuzz.classify import Verdict, candidate_seed, classify_candidate
from repro.fuzz.space import FuzzCandidate
from repro.scenarios.spec import CommSpec, ScenarioSpec

#: Strategy simplicity order: a slot may only move leftward.
STRATEGY_ORDER = (
    "silent",
    "noise",
    "vote-flipper",
    "equivocator",
    "high-ts-liar",
    "fake-history-liar",
    "adaptive-liar",
)

#: Upper bound on reproduction attempts per shrink (each attempt is one
#: full candidate execution; the greedy restart loop converges long before
#: this on every known finding — it is a runaway guard, not a tuning knob).
DEFAULT_MAX_ATTEMPTS = 160


class VerdictMemo:
    """The verdict of every run one hunt (or one shrink) has executed.

    A drop-in for :func:`~repro.fuzz.classify.classify_candidate`: each
    distinct ``(candidate, seed, over_bound)`` executes once, later calls
    return the stored verdict.  It lives exactly as long as its owner — a
    memo that outlived the hunt would replay verdicts of code or inputs
    the caller no longer runs.
    """

    def __init__(self) -> None:
        self._verdicts: Dict[Tuple[FuzzCandidate, int, str], Verdict] = {}
        #: Distinct executions (memo misses).
        self.runs = 0
        #: Calls answered from the memo.
        self.reused = 0

    def __call__(
        self, candidate: FuzzCandidate, seed: int, *, over_bound: str = "never"
    ) -> Verdict:
        key = (candidate, seed, over_bound)
        verdict = self._verdicts.get(key)
        if verdict is None:
            verdict = classify_candidate(candidate, seed, over_bound=over_bound)
            self._verdicts[key] = verdict
            self.runs += 1
        else:
            self.reused += 1
        return verdict


@dataclass(frozen=True)
class ShrinkResult:
    """The outcome of one shrink: final candidate plus the accepted trace."""

    candidate: FuzzCandidate
    ops: Tuple[str, ...]
    attempts: int
    #: Candidate after each accepted op (same length as ``ops``).
    steps: Tuple[FuzzCandidate, ...]


def _effective_byz(cand: FuzzCandidate) -> int:
    if not cand.scenario.byzantine:
        return 0
    count = cand.scenario.byzantine_count
    return cand.b if count == -1 else count


def _scenario_proposals(
    cand: FuzzCandidate,
) -> Iterator[Tuple[str, ScenarioSpec]]:
    s = cand.scenario
    if s.byzantine:
        yield "byz:none", replace(s, byzantine=(), byzantine_count=-1)
        effective = _effective_byz(cand)
        if effective > 1:
            yield "byz:count-1", replace(s, byzantine_count=1)
            yield f"byz:count-{effective - 1}", replace(
                s, byzantine_count=effective - 1
            )
        if len(s.byzantine) > 1:
            yield "byz:drop-slot", replace(s, byzantine=s.byzantine[:-1])
        for slot, name in enumerate(s.byzantine):
            rank = (
                STRATEGY_ORDER.index(name) if name in STRATEGY_ORDER else None
            )
            for simpler in STRATEGY_ORDER[: rank if rank is not None else 0]:
                yield f"byz:{name}->{simpler}", replace(
                    s,
                    byzantine=(
                        s.byzantine[:slot] + (simpler,) + s.byzantine[slot + 1:]
                    ),
                )
    if s.crashes:
        yield "crash:none", replace(s, crashes=0, crash_round=1, clean=True)
        effective = cand.f if s.crashes == -1 else s.crashes
        if effective > 1:
            yield "crash:1", replace(s, crashes=1)
        if not s.clean:
            yield "crash:clean", replace(s, clean=True)
        if s.crash_round > 1:
            yield "crash:round-1", replace(s, crash_round=1)
    if s.comm != CommSpec():
        yield "comm:reliable", replace(s, comm=CommSpec())
        comm = s.comm
        if comm.kind == "good-bad":
            if comm.schedule != "after":
                # A single GST-style clause is the canonical minimal shape.
                yield "comm:gst-clause", replace(
                    s,
                    comm=replace(
                        comm,
                        schedule="after",
                        good_from=2,
                        windows=(),
                        good_len=1,
                        bad_len=0,
                    ),
                )
            elif comm.good_from > 1:
                yield "comm:good-from-half", replace(
                    s, comm=replace(comm, good_from=max(1, comm.good_from // 2))
                )
            if comm.bad == "partition" and comm.groups is not None:
                yield "comm:halves", replace(s, comm=replace(comm, groups=None))
            if comm.bad == "drop" and comm.drop_prob != 1.0:
                yield "comm:drop-1", replace(
                    s, comm=replace(comm, drop_prob=1.0)
                )
        elif comm.kind == "lossy" and comm.drop_prob != 1.0:
            yield "comm:drop-1", replace(s, comm=replace(comm, drop_prob=1.0))
    # Offered on both engines: lockstep ignores timing, so resetting it is
    # a free spec simplification there (and a real one on the timed engine).
    if s.timing != NetworkSpec():
        yield "timing:default", replace(s, timing=NetworkSpec())


def _proposals(cand: FuzzCandidate) -> Iterator[Tuple[str, FuzzCandidate]]:
    if cand.engine == "timed":
        yield "engine:lockstep", replace(cand, engine="lockstep")
    for name, scenario in _scenario_proposals(cand):
        yield name, replace(cand, scenario=scenario)
    if cand.n > 1 and cand.b + cand.f < cand.n - 1:
        yield "model:n-1", replace(cand, n=cand.n - 1)
    if cand.b > 0:
        yield "model:b-1", replace(cand, b=cand.b - 1)
    if cand.f > 0:
        yield "model:f-1", replace(cand, f=cand.f - 1)


def shrink_candidate(
    candidate: FuzzCandidate,
    kind: str,
    *,
    fuzz_seed: int,
    over_bound: str = "never",
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    memo: Optional[VerdictMemo] = None,
) -> ShrinkResult:
    """Greedily minimize ``candidate`` while the finding ``kind`` persists.

    ``over_bound`` must match the mode the finding was discovered under —
    it decides whether bound-rejected models execute on boundary
    parameters or classify as (non-reproducing) inadmissible rows.
    ``memo`` is the caller's hunt-scoped :class:`VerdictMemo`; without one
    the shrink gets its own.  ``attempts`` counts proposals either way, so
    it does not depend on how many of them the memo answered.
    """
    from repro.fuzz.classify import FINDING_KINDS

    if kind not in FINDING_KINDS:
        raise ValueError(
            f"can only shrink a finding kind {FINDING_KINDS}, got {kind!r}"
        )
    ops: list = []
    steps: list = []
    attempts = 0
    if memo is None:
        memo = VerdictMemo()

    def reproduces(proposal: FuzzCandidate) -> bool:
        verdict = memo(
            proposal,
            candidate_seed(fuzz_seed, proposal),
            over_bound=over_bound,
        )
        return verdict.kind == kind

    current = candidate
    improved = True
    while improved and attempts < max_attempts:
        improved = False
        for name, proposal in _proposals(current):
            if attempts >= max_attempts:
                break
            if proposal.key() == current.key():
                continue
            attempts += 1
            if reproduces(proposal):
                current = proposal
                ops.append(name)
                steps.append(proposal)
                improved = True
                break
    return ShrinkResult(
        candidate=current,
        ops=tuple(ops),
        attempts=attempts,
        steps=tuple(steps),
    )
