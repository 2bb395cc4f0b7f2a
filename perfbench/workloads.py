"""The three benchmark workloads, each driving one public entry point.

* ``campaign-gauntlet`` — :func:`repro.campaigns.iter_campaign` over the
  built-in ``gauntlet`` grid into a :class:`ResultSink` and a
  :class:`SummaryFold`, on a pool of ``nproc`` workers, backend ``auto``;
* ``fuzz-overbound`` — :func:`repro.fuzz.run_fuzz` over the default
  :class:`FuzzSpace` with ``over_bound="allow"`` and shrinking on;
* ``smr-byzantine`` — :func:`repro.smr.run_serve` on pbft (4,1,0) under
  ``worst_case``, batch 8, depth 4, two Poisson clients.

A workload object holds the inputs derived from ``--seed``; ``run_pass``
executes and times one pass over the input of its index, inputs repeating
every ``cycle`` passes, and samples host speed next to the work;
``verify`` checks every pass against the repo's oracles (untimed), and
``layers`` turns the traced passes into per-layer metrics.  ``README.md`` says why each was chosen.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterable, List, Optional

import repro.campaigns.runner as runner
from repro.campaigns import (
    BUILTIN_CAMPAIGNS,
    ResultSink,
    SummaryFold,
    derive_seed,
    iter_campaign,
    row_to_json,
)
from repro.engine.batch import cell_key, plan_for_run
from repro.fuzz import FuzzConfig, replay_finding, run_fuzz
from repro.smr import ServeConfig, WorkloadSpec, run_serve

from perfbench.speed import reference_seconds
from perfbench.tracing import Tracer, chunk_wrapper, rebound

#: Batch tiers, fastest first; ``unbatched`` rows bypassed ``run_batch``
#: (a cell group below ``BATCH_FLOOR`` after chunking) and rank as scalar.
TIERS = ("replicate", "columnar-state", "columnar", "scalar", "unbatched")
TIER_RANK = {"replicate": 3, "columnar-state": 2, "columnar": 1, "scalar": 0, "unbatched": 0}

#: Fuzz candidates between two host-speed samples (about 0.1 s of work).
SAMPLE_EVERY = 3

#: Findings per fuzz seed replayed by the check, in both forms.
REPLAYS = 2

#: SMR arrivals between two host-speed samples (about 0.05 s of work).
SAMPLE_ARRIVALS = 500


def pool_size() -> int:
    """``nproc``: the CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical_digest(lines: Iterable[bytes]) -> str:
    """Digest of a canonical campaign JSONL: its row lines in run_id order."""
    keyed = sorted((json.loads(line)["run_id"], line) for line in lines)
    return sha256(b"\n".join(line for _run_id, line in keyed))


@dataclass
class Pass:
    """One pass over a workload's input."""

    index: int
    wall_s: float
    items: int
    failed: int
    #: Digest of the canonical output (compared across passes of one input).
    digest: str
    #: Mean reference-loop time sampled next to the work (host speed).
    reference_s: float
    #: Pass wall time minus the time the samples took.
    work_s: float
    traced: Optional[Tracer] = None
    detail: Dict[str, object] = field(default_factory=dict)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ------------------------------------------------------------- campaign


class CampaignGauntlet:
    """The gauntlet grid at ``reps`` repetitions per cell."""

    name = "campaign-gauntlet"
    raw_throughput = "campaign.rows_per_s"
    cycle = 1

    def __init__(self, seed: int, work: Path, *, reps: int = 16) -> None:
        self.seed = seed
        self.work = work
        self.workers = pool_size()
        self.spec = replace(
            BUILTIN_CAMPAIGNS["gauntlet"],
            repetitions=reps,
            seed=derive_seed(seed, "perfbench-campaign"),
        )

    def probe(self) -> None:
        """Start a pool of ``nproc`` workers and reach each once."""
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            list(pool.map(abs, range(self.workers)))

    def run_pass(self, index: int, tracer: Optional[Tracer] = None) -> Pass:
        path = self.work / "campaign.jsonl"
        path.unlink(missing_ok=True)
        crashes = []
        volatile = []
        samples = []
        execute_chunk = runner.execute_chunk
        with rebound(execute_chunk, chunk_wrapper(execute_chunk, tracer)):
            start = perf_counter()
            fold = SummaryFold()
            with ResultSink(path) as sink:
                rows = iter_campaign(
                    self.spec,
                    workers=self.workers,
                    timings=True,
                    backend="auto",
                    on_event=(
                        (lambda kind, _fields: crashes.append(kind == "worker_crashed"))
                        if tracer is not None
                        else None
                    ),
                )
                if tracer is not None:
                    rows = tracer.timed_iter("campaigns.wait", rows)
                for row in rows:
                    sink.append(row)
                    fold.add(row)
                    if "_reference_s" in row:
                        samples.append(row["_reference_s"])
                    if tracer is not None:
                        volatile.append(
                            (
                                row["run_id"],
                                row.get("_backend", "unbatched"),
                                row.get("_elapsed_ms", 0.0),
                                row.get("_trace"),
                            )
                        )
            wall = perf_counter() - start
        if tracer is not None:
            for _run_id, _tier, _elapsed, trace in volatile:
                if trace is not None:
                    tracer.merge(trace["stats"], trace["counts"])
        lines = path.read_bytes().splitlines()
        path.unlink()
        rows_by_id = {}
        for line in lines:
            row = json.loads(line)
            rows_by_id[row["run_id"]] = (row, line)
        errors = sum(1 for row, _line in rows_by_id.values() if row["status"] == "error")
        broken = [
            run_id
            for run_id, (row, _line) in rows_by_id.items()
            if row["status"] == "ok" and not (row["agreement"] and row["validity"])
        ]
        missing = self.spec.total_runs - len(rows_by_id)
        return Pass(
            index,
            wall,
            len(lines),
            errors + missing,
            canonical_digest(line for _row, line in rows_by_id.values()),
            statistics.fmean(samples),
            # Each worker paused for its own samples.
            wall - sum(samples) / self.workers,
            tracer,
            {
                "missing": missing,
                "broken": broken,
                "volatile": volatile,
                "crashes": sum(crashes),
            },
        )

    def verify(self, passes: List[Pass]) -> List[str]:
        problems = []
        oracle = canonical_digest(
            row_to_json(row).encode("utf-8")
            for row in iter_campaign(self.spec, workers=self.workers, backend="scalar")
        )
        for p in passes:
            if p.digest != oracle:
                problems.append(f"pass {p.index}: JSONL digest differs from the scalar oracle")
            if p.detail["missing"]:
                problems.append(f"pass {p.index}: {p.detail['missing']} rows missing")
            if p.detail["broken"]:
                problems.append(
                    f"pass {p.index}: in-bounds runs {p.detail['broken'][:5]} break agreement/validity"
                )
        return problems

    def planned_tiers(self) -> Dict[int, str]:
        """run_id → the tier ``plan_for_run`` chooses for its cell."""
        plans: Dict[tuple, str] = {}
        tiers = {}
        for run in self.spec.iter_runs():
            key = cell_key(run)
            if key not in plans:
                plans[key] = plan_for_run(run).mode
            tiers[run.run_id] = plans[key]
        return tiers

    def layers(self, passes: List[Pass]) -> Dict[str, float]:
        planned = self.planned_tiers()
        rows: Dict[str, int] = dict.fromkeys(TIERS, 0)
        busy: Dict[str, float] = dict.fromkeys(TIERS, 0.0)
        demoted = chunks = 0
        utilization, skew = [], []
        for p in passes:
            worker_busy: Dict[int, float] = {}
            for run_id, tier, elapsed_ms, trace in p.detail["volatile"]:
                rows[tier] += 1
                busy[tier] += elapsed_ms / 1000.0
                if TIER_RANK[tier] < TIER_RANK[planned[run_id]]:
                    demoted += 1
                if trace is not None:
                    chunks += 1
                    worker_busy[trace["pid"]] = worker_busy.get(trace["pid"], 0.0) + trace["busy_s"]
            if worker_busy:
                utilization.append(sum(worker_busy.values()) / (self.workers * p.wall_s))
                skew.append(max(worker_busy.values()) / statistics.fmean(worker_busy.values()))
        count = len(passes)
        metrics = {f"batch.rows.{tier}": rows[tier] / count for tier in TIERS}
        metrics.update({f"batch.busy_s.{tier}": busy[tier] / count for tier in TIERS})
        metrics.update(
            {
                "batch.demoted_rows": demoted / count,
                "campaigns.chunks": chunks / count,
                "campaigns.rows_per_chunk": _ratio(sum(p.items for p in passes), chunks),
                "campaigns.pool_utilization": statistics.fmean(utilization) if utilization else 0.0,
                "campaigns.pool_skew": statistics.fmean(skew) if skew else 0.0,
                "campaigns.worker_crashes": statistics.fmean(p.detail["crashes"] for p in passes),
            }
        )
        return metrics


# ----------------------------------------------------------------- fuzz


class FuzzOverbound:
    """Fixed-budget over-bound hunts over a fixed suite of fuzz seeds.

    Candidate cost is heavy-tailed (one budget-100 hunt takes 1.5-4 s
    depending on its fuzz seed), so every run walks the same ``suite`` of
    fuzz seeds in whole cycles and runs compare like with like; ``--seed``
    rotates where the cycle starts and picks the replayed findings.
    """

    name = "fuzz-overbound"
    raw_throughput = "fuzz.candidates_per_s"

    def __init__(
        self, seed: int, work: Path, *, budget: int = 60, suite: int = 4
    ) -> None:
        self.seed = seed
        self.work = work
        self.budget = budget
        self.cycle = suite

    def probe(self) -> None:
        self.config(0)

    def fuzz_seed(self, index: int) -> int:
        return derive_seed(0, f"perfbench-fuzz:{(self.seed + index) % self.cycle}")

    def config(self, index: int) -> FuzzConfig:
        return FuzzConfig(seed=self.fuzz_seed(index), budget=self.budget, over_bound="allow")

    def run_pass(self, index: int, tracer: Optional[Tracer] = None) -> Pass:
        out = self.work / f"fuzz-{index}.jsonl"
        out.unlink(missing_ok=True)
        samples = []

        def sample(done: int, _budget: int, _findings: int) -> None:
            if done % SAMPLE_EVERY == 0:
                samples.append(reference_seconds())

        start = perf_counter()
        summary = run_fuzz(self.config(index), out, progress=sample)
        wall = perf_counter() - start
        corpus = out.read_bytes()
        out.unlink()
        return Pass(
            index,
            wall,
            self.budget,
            summary.by_kind.get("error", 0),
            sha256(corpus),
            statistics.fmean(samples),
            wall - sum(samples),
            tracer,
            {"summary": summary, "corpus": corpus},
        )

    def verify(self, passes: List[Pass]) -> List[str]:
        problems = []
        first: Dict[int, Pass] = {}
        for p in passes:
            seen = first.setdefault(self.fuzz_seed(p.index), p)
            if seen.digest != p.digest:
                problems.append(f"pass {p.index}: corpus differs between repeats of one fuzz seed")
        for fuzz_seed, p in first.items():
            records = [json.loads(line) for line in p.detail["corpus"].splitlines()]
            if len(records) != p.detail["summary"].findings:
                problems.append(
                    f"fuzz seed {fuzz_seed}: corpus holds {len(records)} records, "
                    f"summary says {p.detail['summary'].findings}"
                )
            rng = random.Random(derive_seed(self.seed, f"perfbench-replay:{fuzz_seed}"))
            for record in rng.sample(records, min(REPLAYS, len(records))):
                for shrunk in (False, True):
                    verdict = replay_finding(record, shrunk=shrunk)
                    if verdict.kind != record["kind"]:
                        form = "shrunk" if shrunk else "original"
                        problems.append(
                            f"fuzz seed {fuzz_seed}: finding {record['index']} ({form}) replays as "
                            f"{verdict.kind!r}, recorded {record['kind']!r}"
                        )
        return problems

    def layers(self, passes: List[Pass]) -> Dict[str, float]:
        summaries = [p.detail["summary"] for p in passes]
        walked = sum(p.items for p in passes)
        metrics = {
            "fuzz.skipped_share": _ratio(sum(s.skipped for s in summaries), walked),
            "fuzz.duplicate_share": _ratio(sum(s.duplicates for s in summaries), walked),
        }
        for kind in ("safety", "liveness", "error"):
            metrics[f"fuzz.findings.{kind}"] = statistics.fmean(s.by_kind.get(kind, 0) for s in summaries)
        return metrics


# ------------------------------------------------------------------ smr


class SmrByzantine:
    """An open-loop serve of pbft (4,1,0) with one equivocating replica."""

    name = "smr-byzantine"
    raw_throughput = "smr.commands_per_s"
    cycle = 1

    def __init__(self, seed: int, work: Path, *, duration: float = 2000.0) -> None:
        self.seed = seed
        self.work = work
        serve_seed = derive_seed(seed, "perfbench-smr")
        self.config = ServeConfig(
            algorithm="pbft",
            n=4,
            b=1,
            f=0,
            scenario="worst_case",
            engine="lockstep",
            batch=8,
            depth=4,
            seed=serve_seed,
        )
        self.workload = WorkloadSpec(
            clients=2, rate=8.0, duration=duration, arrival="poisson", seed=serve_seed
        )

    def probe(self) -> None:
        self.config.scenario_spec()

    def run_pass(self, index: int, tracer: Optional[Tracer] = None) -> Pass:
        samples = []

        def arrivals():
            # run_serve draws arrivals as serving proceeds, so host-speed
            # samples taken here interleave with the work.
            for count, arrival in enumerate(self.workload.arrivals(), 1):
                if count % SAMPLE_ARRIVALS == 0:
                    samples.append(reference_seconds())
                yield arrival

        start = perf_counter()
        report = run_serve(self.config, self.workload, arrivals=arrivals())
        wall = perf_counter() - start
        healthy = report.digests_agree and not report.stalled
        return Pass(
            index,
            wall,
            report.committed_commands,
            report.offered - report.committed_commands if healthy else report.offered,
            report.log_digest,
            statistics.fmean(samples),
            wall - sum(samples),
            tracer,
            {
                "digests_agree": report.digests_agree,
                "stalled": report.stalled,
                "slots": report.slots_committed,
                "retries": report.retries,
                "messages": report.telemetry.counters.get("smr.messages", 0),
                "p50": report.latency["p50"],
                "p99": report.latency["p99"],
            },
        )

    def verify(self, passes: List[Pass]) -> List[str]:
        problems = []
        # The slot-at-a-time serve commits the same command sequence.
        reference = run_serve(replace(self.config, batch=1, depth=1), self.workload).log_digest
        for p in passes:
            if not p.detail["digests_agree"]:
                problems.append(f"pass {p.index}: replica state digests diverge")
            if p.detail["stalled"]:
                problems.append(f"pass {p.index}: serving stalled")
            if p.digest != reference:
                problems.append(f"pass {p.index}: log digest differs from the batch=1/depth=1 reference")
        return problems

    def layers(self, passes: List[Pass]) -> Dict[str, float]:
        slots = sum(p.detail["slots"] for p in passes)
        retries = sum(p.detail["retries"] for p in passes)
        committed = sum(p.items for p in passes)
        return {
            "smr.slots": slots / len(passes),
            "smr.attempts": (slots + retries) / len(passes),
            "smr.retry_share": _ratio(retries, slots + retries),
            "smr.mean_batch": _ratio(committed, slots),
            "smr.messages_per_command": _ratio(sum(p.detail["messages"] for p in passes), committed),
            "smr.latency_p50_sim": statistics.median(p.detail["p50"] for p in passes),
            "smr.latency_p99_sim": statistics.median(p.detail["p99"] for p in passes),
            "smr.serve.self_s": statistics.fmean(p.work_s - p.traced.top_s for p in passes),
        }


WORKLOADS = {
    cls.name: cls for cls in (CampaignGauntlet, FuzzOverbound, SmrByzantine)
}
