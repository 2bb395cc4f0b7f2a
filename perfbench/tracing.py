"""Span tracing from outside the program: wrap public functions and time them.

The benchmark traces layers without touching ``src/repro``: a traced pass
rebinds a fixed set of public functions, wherever a ``repro`` module holds
them, to timing wrappers, and restores the originals afterwards.  Spans are
aggregated in memory per name (calls, inclusive busy time, self time), so a
traced pass costs one dict update per call.

Campaign pool workers are forked while the wrappers are installed, so they
trace too.  :func:`chunk_wrapper` sends their totals back on a volatile
``_trace`` field of each chunk's first row, which canonical serialization
strips like every other ``_``-prefixed field.
"""

from __future__ import annotations

import functools
import os
import sys
from contextlib import ExitStack, contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from perfbench.speed import reference_seconds

#: Per-span aggregate: [calls, busy_s, self_s].
Stats = Dict[str, List[float]]

#: ``observe(tracer, result)`` turns a wrapped call's result into counts.
Observe = Callable[["Tracer", object], None]


class Tracer:
    """Aggregated spans and counts for one traced pass."""

    def __init__(self) -> None:
        self.stats: Stats = {}
        self.counts: Dict[str, float] = {}
        #: Time inside outermost spans of this process (trace coverage).
        self.top_s = 0.0
        # One child-time accumulator per open span.
        self._open: List[float] = []

    def add(self, name: str, elapsed: float, self_time: float) -> None:
        entry = self.stats.get(name)
        if entry is None:
            self.stats[name] = [1, elapsed, self_time]
        else:
            entry[0] += 1
            entry[1] += elapsed
            entry[2] += self_time

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def _close(self, name: str, start: float) -> None:
        elapsed = perf_counter() - start
        children = self._open.pop()
        if self._open:
            self._open[-1] += elapsed
        else:
            self.top_s += elapsed
        self.add(name, elapsed, elapsed - children)

    def wrap(self, name: str, fn: Callable, observe: Optional[Observe] = None) -> Callable:
        """``fn`` recorded as span ``name`` (its results fed to ``observe``)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, start)
            if observe is not None:
                observe(self, result)
            return result

        return traced

    def timed_iter(self, name: str, iterable: Iterable) -> Iterator:
        """Yield from ``iterable``, recording each ``next()`` as span ``name``."""
        iterator = iter(iterable)
        while True:
            self._open.append(0.0)
            start = perf_counter()
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self._close(name, start)
            yield item

    def merge(self, stats: Stats, counts: Dict[str, float]) -> None:
        """Fold another process's span totals into this tracer."""
        for name, (calls, busy, own) in stats.items():
            entry = self.stats.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += busy
            entry[2] += own
        for name, value in counts.items():
            self.count(name, value)

    def calls(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def busy(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]


def _count_kernel(tracer: Tracer, outcome) -> None:
    tracer.count("engine.kernel.rounds", outcome.rounds_executed)
    tracer.count("engine.kernel.messages", outcome.messages_sent)


def _count_shrink(tracer: Tracer, result) -> None:
    tracer.count("fuzz.shrink.attempts", result.attempts)


def _span_targets() -> List[Tuple[str, object, str, Optional[Observe]]]:
    """(span name, owner, attribute, observe) for every traced boundary."""
    import repro.engine.assembly as assembly
    import repro.engine.batch.plan as plan
    import repro.engine.kernel as kernel
    import repro.fuzz.classify as classify
    import repro.fuzz.corpus as corpus
    import repro.fuzz.runner as fuzz_runner
    import repro.fuzz.shrink as shrink
    import repro.scenarios.compile as compile_
    from repro.campaigns.aggregate import SummaryFold
    from repro.campaigns.results import ResultSink

    return [
        ("scenarios.compile", compile_, "compile_scenario", None),
        ("engine.assembly", assembly, "build_instance", None),
        ("engine.kernel", kernel, "run_instance", _count_kernel),
        ("batch.plan", plan, "plan_for_run", None),
        ("fuzz.space", fuzz_runner, "candidate_at", None),
        ("fuzz.execute", classify, "execute_candidate", None),
        ("fuzz.shrink", shrink, "shrink_candidate", _count_shrink),
        ("fuzz.corpus.state", corpus, "write_state", None),
        ("fuzz.corpus.append", corpus.FindingLog, "append", None),
        ("campaigns.sink", ResultSink, "append", None),
        ("campaigns.fold", SummaryFold, "add", None),
    ]


def chunk_wrapper(execute_chunk: Callable, tracer: Optional[Tracer] = None) -> Callable:
    """``execute_chunk`` sampling host speed in the worker after each chunk.

    The sample travels back on a volatile ``_reference_s`` field of the
    chunk's first row; with a ``tracer``, so do the chunk's worker-side
    spans (``_trace``).
    """

    @functools.wraps(execute_chunk)
    def sampled_chunk(runs, timings=False, backend=None):
        if tracer is None:
            rows = execute_chunk(runs, timings, backend)
        else:
            outer_stats, outer_counts = tracer.stats, tracer.counts
            tracer.stats, tracer.counts = {}, {}
            start = perf_counter()
            try:
                rows = execute_chunk(runs, timings, backend)
            finally:
                busy = perf_counter() - start
                stats, counts = tracer.stats, tracer.counts
                tracer.stats, tracer.counts = outer_stats, outer_counts
            if rows:
                rows[0]["_trace"] = {
                    "pid": os.getpid(),
                    "busy_s": busy,
                    "stats": stats,
                    "counts": counts,
                }
        if rows:
            rows[0]["_reference_s"] = reference_seconds()
        return rows

    return sampled_chunk


def _rebind(original: object, replacement: object) -> List[Tuple[object, str]]:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``replacement``; returns the (module, name) sites changed."""
    sites = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name == "repro" or module_name.startswith("repro.")
        ):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                sites.append((module, attr))
    return sites


@contextmanager
def rebound(original: Callable, replacement: Callable) -> Iterator[None]:
    """``replacement`` wherever a ``repro`` module holds ``original``, for the block."""
    sites = _rebind(original, replacement)
    try:
        yield
    finally:
        for module, attr in sites:
            setattr(module, attr, original)


@contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    """Install the layer wrappers for the duration of the block."""
    with ExitStack() as undo:
        for name, owner, attr, observe in _span_targets():
            original = getattr(owner, attr)
            wrapper = tracer.wrap(name, original, observe)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                undo.callback(setattr, owner, attr, original)
            else:
                undo.enter_context(rebound(original, wrapper))
        yield tracer
