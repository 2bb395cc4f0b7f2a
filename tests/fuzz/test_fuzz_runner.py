"""The fuzz loop's determinism and crash-safety contracts.

For a fixed (seed, budget, space) the findings JSONL is byte-identical
across reruns and across arbitrary interruption/resume points — including
the crash window where a finding was appended but not yet acknowledged in
the state sidecar.  Each hunt executes every distinct run once through its
own verdict memo, and that memo never outlives the hunt.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections import Counter

import pytest

import repro.fuzz.classify as classify_mod
import repro.fuzz.runner as runner_mod
from repro.fuzz import (
    FuzzCandidate,
    FuzzConfig,
    FuzzSpace,
    VerdictMemo,
    replay_finding,
    run_fuzz,
    scan_findings,
    state_path,
)
from repro.scenarios.spec import CommSpec, ScenarioSpec

#: Small but eventful: the (4,2,0) one-third-rule cell is far over-bound,
#: so this budget reliably produces both safety and liveness findings.
SPACE = FuzzSpace(
    algorithms=("one-third-rule", "pbft"),
    engines=("lockstep",),
    models=((4, 2, 0), (4, 1, 0)),
)
CONFIG = FuzzConfig(space=SPACE, seed=11, budget=16, over_bound="allow")

#: A default-space over-bound hunt whose shrinks revisit runs: without the
#: verdict memo it executes 300 runs, 228 of them distinct.
OVERBOUND = FuzzConfig(seed=3, budget=60, over_bound="allow")

#: Corpus digests pinned from the implementation that re-executed every
#: repeated run: the verdict memo must not change a single byte.
GOLDEN_SHA256 = {
    "config": "1c36badce18d18795930ea4affd453e755671a750b3aaa58040dae0a8d11aaa7",
    "overbound": "8dfba36ce37fdc8fc6354f4a14d3b3097c2686e486276d624607467b64e900c7",
}


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz") / "baseline.jsonl"
    summary = run_fuzz(CONFIG, out)
    assert summary.findings > 0, "fixture config must find violations"
    assert not state_path(out).exists(), "completed run removes its state"
    return out.read_bytes(), summary


def test_rerun_is_byte_identical(tmp_path, baseline):
    out = tmp_path / "again.jsonl"
    run_fuzz(CONFIG, out)
    assert out.read_bytes() == baseline[0]


def test_stop_after_leaves_valid_state_and_resume_completes(
    tmp_path, baseline
):
    out = tmp_path / "interrupted.jsonl"
    summary = run_fuzz(CONFIG, out, stop_after=5)
    assert summary.interrupted
    assert summary.next_index == 5
    assert state_path(out).exists()
    resumed = run_fuzz(CONFIG, out, resume=True)
    assert not resumed.interrupted
    assert not state_path(out).exists()
    assert out.read_bytes() == baseline[0]


def test_resume_heals_the_crash_window(tmp_path, baseline):
    """A finding appended but unacknowledged is truncated and re-found."""
    out = tmp_path / "crashed.jsonl"
    run_fuzz(CONFIG, out, stop_after=6)
    records = scan_findings(out)
    # Simulate the torn state: a record past the acknowledged index plus
    # a torn half-line, exactly what a kill mid-append leaves behind.
    with out.open("a", encoding="utf-8") as handle:
        fake = dict(records[0]) if records else {"index": 99}
        fake["index"] = 6
        handle.write(json.dumps(fake, sort_keys=True) + "\n")
        handle.write('{"index": 7, "torn')
    run_fuzz(CONFIG, out, resume=True)
    assert out.read_bytes() == baseline[0]


def test_resume_refuses_foreign_configuration(tmp_path):
    out = tmp_path / "foreign.jsonl"
    run_fuzz(CONFIG, out, stop_after=3)
    for change in (
        {"seed": 12},
        {"budget": 99},
        {"over_bound": "never"},
        {"space": FuzzSpace(algorithms=("pbft",), engines=("lockstep",))},
    ):
        other = dataclasses.replace(CONFIG, **change)
        with pytest.raises(ValueError):
            run_fuzz(other, out, resume=True)


def test_fresh_run_refuses_existing_state(tmp_path):
    out = tmp_path / "busy.jsonl"
    run_fuzz(CONFIG, out, stop_after=3)
    with pytest.raises(FileExistsError):
        run_fuzz(CONFIG, out)


def test_resume_without_state_raises(tmp_path, baseline):
    out = tmp_path / "done.jsonl"
    run_fuzz(CONFIG, out)
    with pytest.raises(ValueError):
        run_fuzz(CONFIG, out, resume=True)


def test_findings_replay_and_shrink_forms_reproduce(baseline):
    _bytes, _summary = baseline
    records = [
        json.loads(line) for line in _bytes.decode().splitlines() if line
    ]
    assert records
    for record in records[:3]:
        verdict = replay_finding(record)
        assert verdict.kind == record["kind"]
        assert list(verdict.violated) == record["violated"]
        if "shrunk" in record:
            shrunk = replay_finding(record, shrunk=True)
            assert shrunk.kind == record["kind"]


def test_records_are_self_contained(baseline):
    _bytes, _summary = baseline
    record = json.loads(_bytes.decode().splitlines()[0])
    for field in (
        "index", "kind", "violated", "candidate", "key", "seed",
        "fuzz_seed", "result", "over_bound",
    ):
        assert field in record
    assert record["result"]["status"] is not None


@pytest.fixture
def executions(monkeypatch):
    """Every ``(candidate, seed, over_bound)`` the kernel executes."""
    calls = Counter()
    real = classify_mod.execute_candidate

    def counting(candidate, seed, *, over_bound="never"):
        calls[(candidate, seed, over_bound)] += 1
        return real(candidate, seed, over_bound=over_bound)

    monkeypatch.setattr(classify_mod, "execute_candidate", counting)
    return calls


@pytest.fixture
def shrink_attempts(monkeypatch):
    """``attempts`` of every shrink a hunt runs, in order."""
    attempts = []
    real = runner_mod.shrink_candidate

    def recording(*args, **kwargs):
        result = real(*args, **kwargs)
        attempts.append(result.attempts)
        return result

    monkeypatch.setattr(runner_mod, "shrink_candidate", recording)
    return attempts


@pytest.mark.parametrize(
    "name, config", [("config", CONFIG), ("overbound", OVERBOUND)]
)
def test_corpus_matches_golden_digest(tmp_path, name, config):
    out = tmp_path / f"{name}.jsonl"
    run_fuzz(config, out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256[name]


def test_each_distinct_run_executes_once_per_hunt(tmp_path, executions):
    summary = run_fuzz(OVERBOUND, tmp_path / "once.jsonl")
    assert executions, "the hunt must execute something"
    repeated = [key for key, count in executions.items() if count > 1]
    assert not repeated, f"{len(repeated)} run(s) executed more than once"
    assert summary.runs == len(executions)
    assert summary.reused > 0, "this hunt's shrinks revisit runs"


def test_back_to_back_hunts_share_no_cache(tmp_path, executions):
    first = run_fuzz(OVERBOUND, tmp_path / "first.jsonl")
    after_first = sum(executions.values())
    assert after_first == first.runs > 0
    second = run_fuzz(OVERBOUND, tmp_path / "second.jsonl")
    assert sum(executions.values()) - after_first == after_first
    assert (first.runs, first.reused) == (second.runs, second.reused)


def test_runs_plus_reused_covers_loop_and_shrink_attempts(
    tmp_path, shrink_attempts
):
    summary = run_fuzz(OVERBOUND, tmp_path / "count.jsonl")
    assert len(shrink_attempts) == summary.findings
    assert summary.runs + summary.reused == (
        summary.executed + sum(shrink_attempts)
    )


def test_resumed_session_reports_carried_findings(tmp_path, baseline):
    out = tmp_path / "carried.jsonl"
    run_fuzz(CONFIG, out, stop_after=10)
    before = scan_findings(out)
    resumed = run_fuzz(CONFIG, out, resume=True)
    assert before and resumed.findings, "findings on both sides of the cut"
    assert sum(resumed.carried.values()) == len(before)
    assert resumed.corpus_by_kind == baseline[1].by_kind


def _twin_candidates(**scenario_a):
    """Two candidates differing in one scenario field."""
    base = FuzzCandidate(
        algorithm="one-third-rule", n=4, b=2, f=0, engine="lockstep",
        scenario=ScenarioSpec(
            name="fuzz",
            byzantine=("equivocator",),
            comm=CommSpec(kind="lossy", drop_prob=0.25),
        ),
    )
    return base, dataclasses.replace(
        base, scenario=dataclasses.replace(base.scenario, **scenario_a)
    )


@pytest.mark.parametrize(
    "change",
    [
        {"name": "renamed"},
        {"comm": CommSpec(kind="lossy", drop_prob=0.2500001)},
    ],
    ids=["scenario-name", "drop-prob-7th-digit"],
)
def test_memo_keeps_key_sharing_candidates_apart(executions, change):
    first, second = _twin_candidates(**change)
    assert first != second
    assert first.key() == second.key(), "the pair must share a key() string"
    memo = VerdictMemo()
    for candidate in (first, second, first, second):
        memo(candidate, 17, over_bound="allow")
    assert (memo.runs, memo.reused) == (2, 2)
    assert executions[(first, 17, "allow")] == 1
    assert executions[(second, 17, "allow")] == 1
