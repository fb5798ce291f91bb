"""Contention regression: solves that share the CPUs must not spin.

Times one `thrifty_cc gen:grid:w=32,h=32 --algo=dolp` solve alone, then
`nproc` copies started at once, each on an `nproc`-wide OpenMP team, and
fails when the median concurrent solve takes more than 5x the median solo
solve.  A team woken for tiny regions spins at their barriers while the
other copies hold the CPUs, so each small iteration costs a time slice;
with every region sized to its work (support::threads_for) the copies run
side by side at about their solo speed.

Usage: python3 contention_test.py <path/to/thrifty_cc>
"""

import os
import re
import statistics
import subprocess
import sys

GRAPH = "gen:grid:w=32,h=32"
BOUND = 5.0
SOLO_RUNS = 5
CONCURRENT_ROUNDS = 3
SOLVE_TIME = re.compile(r" in ([0-9.]+) ms \(best of")


def start(tool, threads):
    env = dict(os.environ, OMP_NUM_THREADS=str(threads))
    return subprocess.Popen([tool, GRAPH, "--algo=dolp"], env=env,
                            stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)


def solve_ms(proc):
    out, _ = proc.communicate()
    if proc.returncode != 0:
        sys.exit(f"thrifty_cc exited with {proc.returncode}:\n{out}")
    match = SOLVE_TIME.search(out)
    if match is None:
        sys.exit(f"no solve time in thrifty_cc output:\n{out}")
    return float(match.group(1))


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    tool = sys.argv[1]
    nproc = len(os.sched_getaffinity(0))
    solo = [solve_ms(start(tool, nproc)) for _ in range(SOLO_RUNS)]
    concurrent = []
    for _ in range(CONCURRENT_ROUNDS):
        procs = [start(tool, nproc) for _ in range(nproc)]
        concurrent.extend(solve_ms(p) for p in procs)
    solo_median = statistics.median(solo)
    concurrent_median = statistics.median(concurrent)
    print(f"nproc {nproc}: solo median {solo_median:.3f} ms {solo}")
    print(f"{nproc} at once: median {concurrent_median:.3f} ms {concurrent}")
    limit = BOUND * solo_median
    if concurrent_median > limit:
        sys.exit(f"FAIL: concurrent median {concurrent_median:.3f} ms > "
                 f"{BOUND}x solo median ({limit:.3f} ms)")
    print(f"ok: concurrent median within {BOUND}x solo median")


if __name__ == "__main__":
    main()
