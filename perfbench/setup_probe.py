"""One set-up sample, run in a fresh interpreter by run.py.

Times `import laff` plus building the workload's inputs (loading its games
and writing its seeded JSON games), which is everything that happens before
the first timed command.  Prints the wall seconds, the main thread's CPU
seconds, and those CPU seconds rescaled to the reference host speed (see
hostspeed.py).  The main thread does all of the set-up; the process's CPU
time would also hold the idle spinning of numpy's BLAS threads, which start
on import and vary from run to run.

    python3 perfbench/setup_probe.py <workload> <seed> <size> <work dir>
"""

import sys
import time

t0, c0 = time.perf_counter(), time.thread_time()

import os  # noqa: E402

from hostspeed import HostSpeed  # noqa: E402

with HostSpeed() as speed:
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                    os.pardir, "src"))
    import laff  # noqa: E402,F401
    from pathlib import Path  # noqa: E402
    from workloads import build_inputs  # noqa: E402

    name, seed, size, work = sys.argv[1:5]
    build_inputs(name, int(seed), size, Path(work))
    wall, cpu = time.perf_counter() - t0, time.thread_time() - c0
print(wall, cpu, speed.rescale(cpu))
