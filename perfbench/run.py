"""Run one benchmark workload and print its metrics; the last stdout line is JSON.

    python3 perfbench/run.py --workload campaign-gauntlet --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout: the program is imported from ``src/``.
With ``--trace 0`` it reports the end-to-end metrics named in
``BENCHMARK.json``, with ``--trace 1`` the per-layer ones (a traced pass
follows each untraced pass over the same input).  Every pass is checked
against the repo's oracles after timing; a failed check reports
``"correct": false`` and counts the whole run as failed.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

#: Fresh interpreters timed from launch to "first unit of work ready".
SETUP_SAMPLES = 9

#: Timed passes a run makes at least, even when one pass outlasts
#: ``--seconds``; runs always end on a whole input cycle.
MIN_PASSES = 3

#: Host-speed samples a set-up probe takes before and after its set-up.
PROBE_SAMPLES = 3

#: Code a set-up sample runs: import, build the workload, start its pool.
#: It samples host speed itself, on its own CPU, around the set-up.
_PROBE = """
import sys
sys.path[:0] = sys.argv[1:3]
from perfbench.speed import reference_seconds
samples = int(sys.argv[6])
before = [reference_seconds() for _ in range(samples)]
from pathlib import Path
from perfbench.workloads import WORKLOADS
WORKLOADS[sys.argv[3]](int(sys.argv[4]), Path(sys.argv[5])).probe()
print("ready", flush=True)
after = [reference_seconds() for _ in range(samples)]
print(sum(before), sum(before + after) / len(before + after), flush=True)
"""


def setup_seconds(name: str, seed: int, work: Path) -> float:
    """Wall time from launching a fresh interpreter to its workload being
    ready, at nominal host speed (see ``perfbench/speed.py``)."""
    from perfbench.speed import NOMINAL_S

    command = [sys.executable, "-c", _PROBE, str(ROOT), str(ROOT / "src")]
    start = perf_counter()
    with subprocess.Popen(
        command + [name, str(seed), str(work), str(PROBE_SAMPLES)],
        stdout=subprocess.PIPE,
        text=True,
    ) as probe:
        ready = probe.stdout.readline()
        elapsed = perf_counter() - start
        sampling = probe.stdout.readline().split()
        probe.wait(timeout=60)
    if ready.strip() != "ready" or len(sampling) != 2 or probe.returncode != 0:
        raise RuntimeError(f"set-up probe for {name} failed (exit {probe.returncode})")
    spent, reference = map(float, sampling)
    return (elapsed - spent) * NOMINAL_S / reference


def throughput(passes, cycle: int, nominal: bool) -> float:
    """Median over input cycles of items per second of work, optionally at
    nominal host speed (see ``perfbench/speed.py``)."""
    from perfbench.speed import NOMINAL_S

    def seconds(p) -> float:
        return p.work_s * NOMINAL_S / p.reference_s if nominal else p.work_s

    return statistics.median(
        sum(p.items for p in passes[start : start + cycle])
        / sum(seconds(p) for p in passes[start : start + cycle])
        for start in range(0, len(passes), cycle)
    )


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child (a pool worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def span_metrics(tracer, passes: int) -> dict:
    """Per-layer figures recorded by the wrapped public functions, per pass."""
    rounds = tracer.counts.get("engine.kernel.rounds", 0)
    metrics = {
        "campaigns.wait_s": tracer.busy("campaigns.wait"),
        "campaigns.sink_s": tracer.busy("campaigns.sink"),
        "campaigns.fold_s": tracer.busy("campaigns.fold"),
        "batch.plan_s": tracer.busy("batch.plan"),
        "engine.kernel.calls": tracer.calls("engine.kernel"),
        "engine.kernel.busy_s": tracer.busy("engine.kernel"),
        "engine.kernel.rounds": rounds,
        "engine.kernel.messages": tracer.counts.get("engine.kernel.messages", 0),
        "engine.assembly.busy_s": tracer.busy("engine.assembly"),
        "scenarios.compile.calls": tracer.calls("scenarios.compile"),
        "scenarios.compile.busy_s": tracer.busy("scenarios.compile"),
        "fuzz.space.busy_s": tracer.busy("fuzz.space"),
        "fuzz.execute.calls": tracer.calls("fuzz.execute"),
        "fuzz.execute.busy_s": tracer.busy("fuzz.execute"),
        "fuzz.execute.self_s": tracer.self_time("fuzz.execute"),
        "fuzz.shrink.busy_s": tracer.busy("fuzz.shrink"),
        "fuzz.shrink.self_s": tracer.self_time("fuzz.shrink"),
        "fuzz.shrink.attempts": tracer.counts.get("fuzz.shrink.attempts", 0),
        "fuzz.corpus.state_s": tracer.busy("fuzz.corpus.state"),
        "fuzz.corpus.append_s": tracer.busy("fuzz.corpus.append"),
    }
    metrics = {name: value / passes for name, value in metrics.items()}
    busy = tracer.busy("engine.kernel")
    metrics["engine.kernel.us_per_round"] = busy / rounds * 1e6 if rounds else 0.0
    return metrics


def measure(workload, seconds: float, trace: bool, *, setup_samples: int = SETUP_SAMPLES) -> dict:
    """Run ``workload`` for ``seconds`` of timed passes; returns the result object."""
    from perfbench.tracing import Tracer, traced

    checked = [workload.run_pass(0)]  # untimed: caches fill, output checked
    plain, pairs = [], []
    measured = 0.0
    index = 0
    cycle = workload.cycle
    while measured < seconds or len(plain) < MIN_PASSES or len(plain) % cycle:
        untraced = workload.run_pass(index)
        plain.append(untraced)
        measured += untraced.wall_s
        if trace:
            with traced(Tracer()) as tracer:
                pairs.append((untraced, workload.run_pass(index, tracer)))
            measured += pairs[-1][1].wall_s
        index += 1
    rss = peak_rss_mb()
    timed = plain + [tracer_pass for _, tracer_pass in pairs]
    checked += timed
    problems = workload.verify(checked)
    for problem in problems:
        print(f"perfbench: {workload.name}: {problem}", file=sys.stderr)
    attempted = sum(p.items for p in timed)
    failed = attempted if problems else sum(p.failed for p in timed)

    if not trace:
        metrics = {
            "setup_s": statistics.median(
                setup_seconds(workload.name, workload.seed, workload.work)
                for _ in range(setup_samples)
            ),
            "throughput_per_s": throughput(plain, cycle, nominal=True),
            "peak_rss_mb": rss,
        }
    else:
        traced_passes = [p for _, p in pairs]
        total = Tracer()
        for p in traced_passes:
            total.merge(p.traced.stats, p.traced.counts)
        metrics = span_metrics(total, len(traced_passes))
        metrics.update(workload.layers(traced_passes))
        metrics[workload.raw_throughput] = throughput(plain, cycle, nominal=False)
        metrics["host.reference_loop_ms"] = 1000 * statistics.median(p.reference_s for p in plain)
        metrics["failed_share"] = failed / attempted
        metrics["trace.coverage"] = statistics.fmean(p.traced.top_s / p.wall_s for p in traced_passes)
        metrics["trace.overhead"] = statistics.median(t.work_s / u.work_s for u, t in pairs) - 1.0
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def with_units(metrics: dict, trace: bool) -> dict:
    """Attach each metric's unit from ``BENCHMARK.json``, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer" if trace else "end_to_end"]
    unknown = set(metrics) - {entry["name"] for entry in listed}
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    return {
        entry["name"]: {"value": metrics.get(entry["name"], 0.0), "unit": entry["unit"]}
        for entry in listed
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        result = measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    result["metrics"] = with_units(result["metrics"], bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
