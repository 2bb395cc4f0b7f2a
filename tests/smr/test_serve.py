"""Pipelined, batched serving: workload determinism and digest equivalence.

The central oracle: whatever the batching and pipelining settings, the
committed command sequence must equal the slot-at-a-time baseline's —
batching and pipelining are *serving* optimizations, not semantic changes.
"""

import hashlib
import itertools

import pytest

from repro.campaigns.results import row_to_json
from repro.scenarios import ScenarioInapplicable
from repro.smr import (
    CounterMachine,
    ServeConfig,
    WorkloadSpec,
    run_serve,
    sweep_serve,
)


class TestWorkloadSpec:
    def test_arrivals_are_deterministic(self):
        spec = WorkloadSpec(clients=3, rate=50.0, duration=1.0, seed=42)
        assert list(spec.arrivals()) == list(spec.arrivals())

    def test_seed_changes_arrivals(self):
        a = WorkloadSpec(clients=2, rate=50.0, duration=1.0, seed=1)
        b = WorkloadSpec(clients=2, rate=50.0, duration=1.0, seed=2)
        assert list(a.arrivals()) != list(b.arrivals())

    def test_arrivals_sorted_and_bounded(self):
        spec = WorkloadSpec(clients=4, rate=80.0, duration=2.0, seed=7)
        times = [when for when, _ in spec.arrivals()]
        assert times == sorted(times)
        assert all(0.0 < when <= spec.duration for when in times)

    def test_fixed_rate_is_exact(self):
        spec = WorkloadSpec(
            clients=2, rate=40.0, duration=1.0, arrival="fixed", seed=0
        )
        arrivals = list(spec.arrivals())
        assert len(arrivals) == spec.expected_commands == 40

    def test_poisson_count_is_near_rate(self):
        spec = WorkloadSpec(clients=4, rate=1000.0, duration=1.0, seed=3)
        count = sum(1 for _ in spec.arrivals())
        assert 850 <= count <= 1150  # ~3 sigma around the mean

    def test_huge_workload_is_lazy(self):
        # A hundred-million-command workload must cost O(clients) to peek.
        spec = WorkloadSpec(clients=4, rate=100_000_000.0, duration=1.0)
        head = list(itertools.islice(spec.arrivals(), 10))
        assert len(head) == 10

    def test_commands_cycle_keyspace(self):
        spec = WorkloadSpec(clients=1, rate=64.0, duration=1.0,
                            arrival="fixed", keys=4)
        keys = {command[1] for _, command in spec.arrivals()}
        assert keys == {"c0k0", "c0k1", "c0k2", "c0k3"}

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(clients=0)
        with pytest.raises(ValueError):
            WorkloadSpec(rate=0.0)
        with pytest.raises(ValueError):
            WorkloadSpec(arrival="bursty")


class TestServeConfigValidation:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            ServeConfig(batch=0)
        with pytest.raises(ValueError):
            ServeConfig(depth=0)
        with pytest.raises(ValueError):
            ServeConfig(batch_bytes=0)
        with pytest.raises(ValueError):
            ServeConfig(max_attempts=0)

    def test_inadmissible_model_raises(self):
        # PBFT hosts no crash faults: f > 0 cannot be served.
        with pytest.raises(ScenarioInapplicable):
            run_serve(
                ServeConfig(algorithm="pbft", n=7, b=2, f=2),
                WorkloadSpec(rate=10.0, duration=0.1),
            )


WORKLOAD = WorkloadSpec(clients=3, rate=60.0, duration=1.0, seed=11)


def _serve(scenario, batch, depth, **overrides):
    config = ServeConfig(
        algorithm="pbft", n=4, b=1, scenario=scenario,
        batch=batch, depth=depth, seed=5, **overrides,
    )
    return run_serve(config, WORKLOAD)


class TestDigestEquivalence:
    """Batched + pipelined serving is digest-equal to slot-at-a-time."""

    @pytest.fixture(scope="class")
    def baseline(self):
        report = _serve("fault-free", batch=1, depth=1)
        assert not report.stalled
        return report

    @pytest.mark.parametrize("batch", [1, 4, 16])
    @pytest.mark.parametrize("depth", [1, 2, 4])
    def test_batch_depth_grid(self, baseline, batch, depth):
        report = _serve("fault-free", batch=batch, depth=depth)
        assert not report.stalled
        assert report.offered == baseline.offered
        assert report.committed_commands == baseline.committed_commands
        assert report.digests_agree
        assert report.digest == baseline.digest
        assert report.log_digest == baseline.log_digest

    @pytest.mark.parametrize(
        "scenario",
        [
            "worst_case",        # all Byzantine slots hosting attack strategies
            "silent_minority",   # silent Byzantine processes
            "partition_heal",    # equivocator + late GST
            "async_then_sync",
            "lossy_channel",
            "flaky_gst",
        ],
    )
    @pytest.mark.parametrize("engine", ["lockstep", "timed"])
    def test_gauntlet_scenarios(self, baseline, scenario, engine):
        report = _serve(scenario, batch=4, depth=2, engine=engine)
        assert not report.stalled
        # Byzantine or lossy serving may retry slots, but the committed
        # sequence never deviates from arrival order.
        assert report.log_digest == baseline.log_digest
        assert report.digest == baseline.digest
        assert report.digests_agree

    def test_crash_scenario_with_crash_tolerant_algorithm(self, baseline):
        config = ServeConfig(
            algorithm="paxos", n=5, b=0, f=2, scenario="crash_storm",
            batch=4, depth=2, seed=5,
        )
        report = run_serve(config, WORKLOAD)
        assert not report.stalled
        assert report.log_digest == baseline.log_digest

    def test_counter_machine_replicates(self):
        arrivals = [(0.1 * i, ("add", i)) for i in range(1, 13)]
        config = ServeConfig(n=4, b=1, batch=4, depth=3, seed=2)
        report = run_serve(
            config,
            arrivals=arrivals,
            machine_factory=CounterMachine,
        )
        assert report.committed_commands == 12
        assert report.digests_agree


class TestBatching:
    def test_batch_cap_respected(self):
        report = _serve("fault-free", batch=4, depth=2)
        sizes = report.telemetry._histograms["smr.batch_size"]
        assert sizes and max(sizes) <= 4

    def test_bytes_cap_splits_batches(self):
        commands = [(0.0, ("set", f"key{i}", "x" * 40)) for i in range(6)]
        config = ServeConfig(n=4, b=1, batch=100, batch_bytes=120, seed=1)
        report = run_serve(config, arrivals=commands)
        assert report.committed_commands == 6
        # ~60-byte commands under a 120-byte cap: at most 2 per slot.
        assert report.slots_committed >= 3

    def test_bytes_cap_never_starves_a_command(self):
        # A single command larger than the cap still ships (alone).
        commands = [(0.0, ("set", "k", "v" * 500))]
        config = ServeConfig(n=4, b=1, batch=8, batch_bytes=16, seed=1)
        report = run_serve(config, arrivals=commands)
        assert report.committed_commands == 1
        assert report.slots_committed == 1


class TestPipelining:
    def test_deeper_pipeline_fewer_simulated_units(self):
        shallow = _serve("fault-free", batch=1, depth=1)
        deep = _serve("fault-free", batch=1, depth=4)
        assert deep.simulated_duration < shallow.simulated_duration
        assert deep.log_digest == shallow.log_digest

    def test_batching_reduces_slots(self):
        single = _serve("fault-free", batch=1, depth=2)
        batched = _serve("fault-free", batch=16, depth=2)
        assert batched.slots_committed < single.slots_committed
        assert batched.committed_commands == single.committed_commands

    def test_latency_improves_with_batching_and_pipelining(self):
        base = _serve("fault-free", batch=1, depth=1)
        fast = _serve("fault-free", batch=16, depth=4)
        assert fast.latency["p99"] < base.latency["p99"]


class TestServeReport:
    def test_latency_percentiles_present(self):
        report = _serve("fault-free", batch=8, depth=2)
        for column in ("count", "min", "max", "mean", "p50", "p95", "p99"):
            assert column in report.latency
        assert (
            report.latency["p50"]
            <= report.latency["p95"]
            <= report.latency["p99"]
            <= report.latency["max"]
        )

    def test_row_is_flat_and_wall_volatile(self):
        row = _serve("fault-free", batch=8, depth=2).to_row()
        assert row["algorithm"] == "pbft"
        assert row["latency_p99"] is not None
        assert "_wall_seconds" in row  # stripped by row_to_json
        assert "telemetry" not in row

    def test_counters_observed(self):
        report = _serve("fault-free", batch=8, depth=2)
        counters = report.telemetry.counters
        assert counters["smr.slots"] == report.slots_committed
        assert counters["smr.commands"] == report.committed_commands
        assert counters["smr.messages"] > 0
        assert counters["smr.rounds"] > 0

    def test_stall_reported_not_raised(self):
        # One attempt under heavy loss with a tiny horizon cannot decide.
        config = ServeConfig(
            n=4, b=1, scenario="lossy_channel", batch=2, depth=2,
            seed=5, max_attempts=1, max_phases=1,
        )
        report = run_serve(config, WORKLOAD)
        assert report.stalled
        assert report.committed_commands < report.offered
        assert report.telemetry.counters["smr.stalled_slots"] == 1


class TestSweep:
    def test_rows_cover_the_grid(self, tmp_path):
        out = tmp_path / "serve.jsonl"
        rows = sweep_serve(
            ServeConfig(n=4, b=1, batch=4, depth=2, seed=9),
            WorkloadSpec(clients=2, rate=40.0, duration=0.5, seed=9),
            rates=(20.0, 40.0),
            scenarios=("fault-free", "worst_case"),
            out=out,
        )
        assert len(rows) == 4
        assert {row["status"] for row in rows} == {"ok"}
        assert all(row["digests_agree"] for row in rows)
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 4
        assert "_wall_seconds" not in lines[0]

    def test_inapplicable_cells_become_rows(self):
        rows = sweep_serve(
            ServeConfig(algorithm="pbft", n=7, b=2, f=2, seed=1),
            WorkloadSpec(clients=2, rate=20.0, duration=0.5, seed=1),
            rates=(20.0,),
            scenarios=("fault-free",),
        )
        assert rows[0]["status"] == "inapplicable"

    def test_cells_are_order_independent(self):
        config = ServeConfig(n=4, b=1, batch=4, depth=2, seed=9)
        workload = WorkloadSpec(clients=2, rate=40.0, duration=0.5, seed=9)
        forward = sweep_serve(config, workload, rates=(20.0, 40.0),
                              scenarios=("fault-free",))
        backward = sweep_serve(config, workload, rates=(40.0, 20.0),
                               scenarios=("fault-free",))

        def canonical(rows):
            # Wall-clock-derived columns are volatile (``_``-prefixed);
            # everything else must be byte-identical at any sweep order.
            return sorted(
                (
                    {
                        key: value
                        for key, value in row.items()
                        if not key.startswith("_")
                    }
                    for row in rows
                ),
                key=lambda row: row["cell"],
            )

        assert canonical(forward) == canonical(backward)

    def test_sweep_output_is_byte_identical_on_rerun(self, tmp_path):
        config = ServeConfig(n=4, b=1, batch=4, depth=2, seed=9)
        workload = WorkloadSpec(clients=2, rate=40.0, duration=0.5, seed=9)
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        for out in (first, second):
            sweep_serve(config, workload, rates=(20.0, 40.0),
                        scenarios=("fault-free", "worst_case"), out=out)
        assert first.read_bytes() == second.read_bytes()

    def test_throughput_is_volatile(self):
        row = _serve("fault-free", batch=8, depth=2).to_row()
        assert "throughput" not in row
        assert row["_throughput"] > 0


#: Canonical-row sha256 and message/round/retry counters of three short
#: pbft (4,1,0) serves, pinned from the implementation before the shared
#: Pcons inbox and the heap-driven serve loop.  Comparing variants with
#: each other cannot catch a change that moves every variant alike.
GOLDEN_SERVES = {
    ("worst_case", "lockstep"): (
        "4a11231b86466f1fcb9f634f865d5174c109880575da3e0be1c5fd4fbb094ce6",
        {"smr.messages": 3984, "smr.rounds": 249,
         "smr.retries": 0, "smr.rejected": 0},
    ),
    ("async_then_sync", "lockstep"): (
        "ffd9404f3606e6f112475526cd2105e8deb8335a0b386c65bba5dd03c2cc2f48",
        {"smr.messages": 13440, "smr.rounds": 840,
         "smr.retries": 5, "smr.rejected": 5},
    ),
    ("async_then_sync", "timed"): (
        "ced0681051c4a0f9221f037fa5fe4d1f3ba892d82eed8b739722f23848138755",
        {"smr.messages": 14208, "smr.rounds": 888,
         "smr.retries": 9, "smr.rejected": 9},
    ),
}


@pytest.mark.parametrize("scenario, engine", sorted(GOLDEN_SERVES))
def test_serve_matches_golden_pin(scenario, engine):
    config = ServeConfig(
        algorithm="pbft", n=4, b=1, f=0, scenario=scenario, engine=engine,
        batch=8, depth=4, seed=3,
    )
    report = run_serve(
        config, WorkloadSpec(clients=2, rate=8.0, duration=60.0, seed=3)
    )
    digest, counters = GOLDEN_SERVES[scenario, engine]
    observed = report.telemetry.counters
    assert {name: observed.get(name, 0) for name in counters} == counters
    row = row_to_json(report.to_row()).encode("utf-8")
    assert hashlib.sha256(row).hexdigest() == digest
