"""How fast the host runs right now, from a fixed reference kernel.

Usage: ``python3 perfbench/hostspeed.py CPU`` pins itself to CPU,
prints ``ready`` and, for each line it reads, prints the seconds
:data:`CALLS` calls of :func:`kernel` took.  ``run.py`` keeps one such
process per CPU of a run and starts them all at once between
repetitions.

The benchmark runs on a few cores of a shared host whose speed drifts:
the same repetition at the same seed takes 1.3x longer in one stretch
of minutes than in the next, on the wall clock and on the CPU clock
alike.  A median over a run cannot remove a drift that lasts longer
than the run, so ``run.py`` scales the run's timings by
:data:`REFERENCE_S` over the kernel's median time in the run.  The
kernel lives here, not in the program, so a change to the program
cannot change it.

Each vCPU drifts on its own, and two busy vCPUs slow each other by a
share that drifts too (0-30% on a 2-core Xeon VM).  So the kernel runs
on the CPUs the repetitions are pinned to, on all of them at once when
the workload has a pool of processes, and a measurement lasts until
the slowest CPU is done, as a pooled run does.

The kernel's mix follows the program's: interpreted loops over ints and
dicts (the scalar engine and the campaign driver), per-row binary
searches on short descending rows (the batched kernel), row sorts of
8192-wide rows (the RBB kernel) and whole-array comparisons.
"""

import os
import sys
import time

#: Kernel calls per measurement (0.3-0.45 s on one vCPU of a 2-core
#: Xeon VM).
CALLS = 60
#: What one measurement on one CPU took there in a typical stretch: the
#: timings are reported in seconds of a host running at that speed.
REFERENCE_S = 0.37


def kernel(np, rows, wide, u) -> int:
    """One call on the inputs :func:`main` builds.

    numpy comes in as an argument so that importing this module (which
    ``run.py`` does for :data:`REFERENCE_S`) does not import numpy.
    """
    acc = 0
    table = {}
    for i in range(20000):
        acc = (acc * 31 + i) % 1000003
        table[i & 1023] = acc
    asc = rows[:, ::-1]
    for r in range(len(asc)):
        acc += int(np.searchsorted(asc[r], 17))
        acc += int(np.searchsorted(asc[r], 40, side="right"))
    for _ in range(4):
        acc += int(-np.sort(-wide, axis=1)[:, 0].sum())
    for _ in range(20):
        acc += int((rows >= 20).sum()) + int(np.cumsum(u).argmax())
    return acc


def main() -> None:
    os.sched_setaffinity(0, {int(sys.argv[1])})
    import numpy as np

    rng = np.random.default_rng(12345)
    rows = np.sort(rng.integers(0, 64, (32, 512)), axis=1)[:, ::-1].copy()
    inputs = (np, rows, rng.integers(0, 16, (4, 8192)), rng.random(64))
    print("ready", flush=True)
    for _ in sys.stdin:
        t0 = time.perf_counter()
        for _ in range(CALLS):
            kernel(*inputs)
        print(time.perf_counter() - t0, flush=True)


if __name__ == "__main__":
    main()
