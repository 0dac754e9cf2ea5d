"""Machine-speed calibration of the end-to-end times.

The benchmark runs on shared machines whose effective CPU speed drifts
by tens of percent over minutes, which would swamp the differences it
exists to show.  So a fixed pure-Python kernel, independent of the
program under test, is timed next to the operations, and a time ``t``
measured while the kernel took ``k`` seconds is reported as
``t * REFERENCE_S / k``: seconds on a machine where the kernel takes
``REFERENCE_S``.  ``k`` is the mean of the calibrations taken just
before and just after the timed work, which tracks the drift better
than either alone.  The raw wall times stay in the result file.

The kernel runs in a fresh child process, so it leaves no memory or
collector state behind in the process whose peak memory is measured.

    python3 perfbench/speed.py      # prints one calibration in seconds
"""

from __future__ import annotations

import subprocess
import sys
import time

#: Kernel seconds of the reference machine: a quiet 2-CPU x86-64
#: virtual machine running CPython 3.11.
REFERENCE_S = 0.075
#: Kernel runs per calibration; the fastest one counts.
REPEATS = 2
_ENTRIES = 200_000


def _kernel() -> int:
    """Build a dict of small tuples larger than the CPU caches and probe
    it at scattered keys: the allocation and memory traffic of the
    profiler's decode and tree building, in miniature.  A cache-resident
    loop tracks the drift of the operations' times far less well."""
    table = {i: (i, i * 7) for i in range(_ENTRIES)}
    total = 0
    for i in range(0, _ENTRIES, 3):
        total += table[(i * 7919) % _ENTRIES][1]
    return total


def _measure() -> float:
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - started)
    return best


def calibrate() -> float:
    """The kernel's current run time in seconds (fastest of ``REPEATS``),
    measured in a child process."""
    done = subprocess.run(
        [sys.executable, __file__], capture_output=True, text=True, check=True, timeout=60
    )
    return float(done.stdout)


def scaled(seconds: float, before: float, after: float) -> float:
    """*seconds* at the reference speed, bracketed by two calibrations."""
    return seconds * REFERENCE_S * 2 / (before + after)


if __name__ == "__main__":
    print(_measure())
