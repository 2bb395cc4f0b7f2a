"""``repro fuzz run|replay|shrink``: exit codes mirror ``campaign run``.

The interrupt contract is the satellite under test: ``--stop-after``
leaves a valid state sidecar and exits 3, Ctrl-C (KeyboardInterrupt)
exits 130 with the state retained, ``--resume`` completes byte-identically,
and usage errors exit 2.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main

OVER_BOUND_ARGS = [
    "--models", "4,2,0",
    "--algorithms", "one-third-rule",
    "--engines", "lockstep",
    "--over-bound", "allow",
    "--quiet",
]


def run_args(out, *extra):
    return [
        "fuzz", "run", "--seed", "7", "--budget", "16", "--out", str(out),
        *OVER_BOUND_ARGS, *extra,
    ]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz-cli") / "findings.jsonl"
    assert main(run_args(out)) == 0
    assert out.exists() and out.stat().st_size > 0
    return out


def test_stop_after_exits_3_and_resume_matches(tmp_path, corpus):
    out = tmp_path / "findings.jsonl"
    assert main(run_args(out, "--stop-after", "4")) == 3
    assert (tmp_path / "findings.jsonl.state").exists()
    assert main(run_args(out, "--resume")) == 0
    assert not (tmp_path / "findings.jsonl.state").exists()
    assert out.read_bytes() == corpus.read_bytes()


def test_keyboard_interrupt_exits_130_and_keeps_state(
    tmp_path, monkeypatch, capsys
):
    """Ctrl-C mid-loop: exit 130, checkpoint retained, resume completes."""
    out = tmp_path / "findings.jsonl"
    import repro.fuzz.classify as classify_mod

    real_execute = classify_mod.execute_candidate
    calls = {"n": 0}

    def interrupting(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] > 3:
            raise KeyboardInterrupt
        return real_execute(*args, **kwargs)

    monkeypatch.setattr(classify_mod, "execute_candidate", interrupting)
    assert main(run_args(out)) == 130
    assert "resume" in capsys.readouterr().err
    assert (tmp_path / "findings.jsonl.state").exists()
    monkeypatch.setattr(classify_mod, "execute_candidate", real_execute)
    assert main(run_args(out, "--resume")) == 0


def test_usage_errors_exit_2(tmp_path, corpus):
    out = tmp_path / "findings.jsonl"
    # malformed --models
    assert main(run_args(out, "--models", "4:2:0")) == 2
    assert main(run_args(out, "--models", "nope")) == 2
    # resume with nothing to resume
    assert main(run_args(tmp_path / "void.jsonl", "--resume")) == 2
    # state exists without --resume
    assert main(run_args(out, "--stop-after", "2")) == 3
    assert main(run_args(out)) == 2


def test_replay_reproduces_and_reports(corpus, capsys):
    assert main(["fuzz", "replay", str(corpus)]) == 0
    out = capsys.readouterr().out
    assert "finding reproduced" in out
    assert main(["fuzz", "replay", str(corpus), "--shrunk"]) == 0


def test_replay_missing_index_exits_2(corpus, capsys):
    assert main(["fuzz", "replay", str(corpus), "--index", "99999"]) == 2
    assert "no finding with index" in capsys.readouterr().err


def test_shrink_command_prints_minimal_candidate(corpus, capsys):
    assert main(["fuzz", "shrink", str(corpus)]) == 0
    out = capsys.readouterr().out
    tail = out.strip().splitlines()[-1]
    payload = json.loads(tail)
    record = json.loads(corpus.read_text().splitlines()[0])
    # Re-shrinking from the corpus reproduces the recorded minimal form.
    assert payload["shrunk_key"] == record["shrunk_key"]
    assert payload["shrink_ops"] == record["shrink_ops"]


def test_fail_on_finding_gates_ci(tmp_path, corpus):
    out = tmp_path / "gate.jsonl"
    assert main(run_args(out, "--fail-on-finding")) == 1
    # An in-bounds space stays quiet and passes the gate.
    quiet = tmp_path / "quiet.jsonl"
    code = main([
        "fuzz", "run", "--seed", "7", "--budget", "8", "--out", str(quiet),
        "--models", "4,1,0", "--algorithms", "pbft", "--engines", "lockstep",
        "--quiet", "--fail-on-finding",
    ])
    assert code == 0


def test_fail_on_finding_judges_the_whole_corpus_after_resume(
    tmp_path, capsys
):
    """A resumed session fails the gate on findings it carried over."""

    def gate(out, *extra):
        return [
            "fuzz", "run", "--seed", "7", "--budget", "24", "--out", str(out),
            *OVER_BOUND_ARGS, "--fail-on-finding", *extra,
        ]

    out = tmp_path / "resumed-gate.jsonl"
    assert main(gate(out, "--stop-after", "21")) == 3
    carried = len(out.read_text().splitlines())
    assert carried > 0, "the interrupted session must leave findings"
    capsys.readouterr()
    assert main(gate(out, "--resume")) == 1
    err = capsys.readouterr().err
    assert f"{carried} finding(s)" in err
    assert f"({carried} carried over)" in err
    undisturbed = tmp_path / "undisturbed.jsonl"
    assert main(gate(undisturbed)) == 1
    assert out.read_bytes() == undisturbed.read_bytes()


def test_summary_line_reports_runs_and_reuse(tmp_path, capsys):
    out = tmp_path / "observed.jsonl"
    assert main(run_args(out)) == 0
    err = capsys.readouterr().err
    assert " run(s) incl. shrinking, " in err and " reused)" in err
