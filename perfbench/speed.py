"""Host speed, sampled next to the work, for scaling throughput.

On a shared host the interpreter's speed drifts by ±20% within seconds
(CPU time drifts with wall time, so it is not preemption). A fixed
pure-Python reference loop, timed on the CPU doing the work and while the
work runs, tracks that drift. Dividing a pass's time by the loop's time,
relative to its nominal time, gives throughput at nominal host speed. The
loop is benchmark code, so a slower program still reads slower.
"""

from __future__ import annotations

from time import perf_counter

#: Rounds of the reference loop: about 2-3 ms, short enough to sample
#: every few work items.
REFERENCE_ROUNDS = 80

#: The loop time that counts as nominal host speed: a round figure within
#: the range of its median on a 2-core x86-64 VM running CPython 3.11.
NOMINAL_S = 0.003


class _Message:
    __slots__ = ("src", "dst", "value")

    def __init__(self, src: int, dst: int, value: int) -> None:
        self.src = src
        self.dst = dst
        self.value = value


def reference_seconds() -> float:
    """Time one run of the fixed reference loop.

    It mimics the simulator's traffic (small objects allocated per
    round, attribute reads, set and sort work) rather than a tight
    arithmetic loop: a tight loop speeds up and slows down more than the
    program does when the host's speed drifts, and so over-corrects.
    """
    start = perf_counter()
    seen: set = set()
    kept: list = []
    for round_ in range(REFERENCE_ROUNDS):
        box = [
            _Message(src, dst, (src * 31 + dst + round_) % 13)
            for src in range(8)
            for dst in range(8)
        ]
        for message in box:
            if message.value not in seen and message.dst != message.src:
                kept.append((message.src, message.value))
        seen = {message.value for message in box if message.src & 1}
        kept.sort()
        del kept[32:]
    return perf_counter() - start
