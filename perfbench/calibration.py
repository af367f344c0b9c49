"""Machine-speed reference for the benchmark's timings.

The benchmark runs on shared VMs whose CPU throughput changes by up to 2x
over seconds to minutes as neighbouring load comes and goes, without steal
time: a fixed pure-Python loop took 0.16-0.29 s within five minutes, and
CPU time moved with wall time.  A timing is therefore taken together with
the speed of the machine around it: a short, fixed pure-Python kernel is
timed right before and right after each operation, and the operation's
seconds are scaled to a machine on which the kernel takes REFERENCE_S.
The kernel is the benchmark's own code, so a change to the program moves
the scaled times exactly as it moves the raw ones.
"""
from __future__ import annotations

import itertools
import time

# The kernel's fastest time on the 2-core x86-64 VM (Python 3.11) the
# bounds in BENCHMARK.json were set on, in its fast state.
REFERENCE_S = 0.0017
REPEATS = 3


# Multi-word integers for the kernel's XOR part.
_MASKS = [((0x9E3779B97F4A7C15 * (j + 1)) << (3 * j)) | 1 for j in range(64)]


def _kernel() -> int:
    """Dict and sort work, and XORs of multi-word integers over
    itertools.combinations, like the program's inner loops."""
    table: dict[int, int] = {}
    for i in range(8000):
        key = (i * 40503) & 1023
        table[key] = table.get(key, 0) ^ (i << 7)
    acc = sum(sorted(table.values())[::7])
    for a, b in itertools.combinations(_MASKS, 2):
        acc ^= a ^ b
    for a, b, c in itertools.combinations(_MASKS[:24], 3):
        if not a ^ b ^ c:
            acc += 1
    return acc


def sample() -> float:
    """The kernel's fastest time over REPEATS runs, in seconds: the
    machine's speed now, with interrupts filtered out."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


def scale(before: float, after: float) -> float:
    """Factor turning seconds measured between two samples into seconds
    on the reference machine."""
    return 2 * REFERENCE_S / (before + after)
