#!/usr/bin/env python3
"""Gates a change on BENCHMARK.json's end-to-end bounds against a base commit.

Run from anywhere inside the repository:

    python3 scripts/perf_gate.py --base origin/main

Exports <base> with `git archive` into a temporary directory and runs
`perfbench/run.py --trace 0` of both checkouts on every BENCHMARK.json
workload: three pairs, seeds 1-3, the side that goes first alternating
from pair to pair, `run_seconds` from BENCHMARK.json.  Prints one table
per workload and exits 1 when, on any workload, the median of an
end-to-end metric is worse than the base's by more than that metric's
`bound` (direction from `better`), or when any run of the change reports
`failed > 0` or does not finish.  A workload or metric the base does not
report is printed but not gated.  Both sides run on the same machine in
the same session, so the bounds compare like with like.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
# One run includes the first build of its checkout's perfbench.
RUN_TIMEOUT_S = 1800


def relative_worsening(parent, change, better):
    """How much worse `change` is than `parent`, as a fraction of `parent`."""
    delta = (change - parent) / parent
    return delta if better == "lower" else -delta


def compare(spec, parent_runs, change_runs):
    """Judges the change's runs against the parent's.

    `parent_runs` and `change_runs` map a workload name to the list of its
    run records (perfbench/run.py's last output line, parsed), with None
    for a run that did not finish.  Returns (rows, failures): one row per
    (workload, metric) for printing, and one message per gate failure.
    """
    bounds = {entry["name"]: entry for entry in spec["end_to_end"]}
    rows, failures = [], []
    for workload in (entry["name"] for entry in spec["workloads"]):
        changes = change_runs.get(workload, [])
        parents = [run for run in parent_runs.get(workload, []) if run is not None]
        if not changes:
            failures.append(f"{workload}: the change has no run")
        for run in changes:
            if run is None:
                failures.append(f"{workload}: a run of the change did not finish")
            elif run["failed"] > 0:
                failures.append(f"{workload}: a run of the change failed "
                                f"{run['failed']} of {run['attempted']} operations")
        finished = [run for run in changes if run is not None]
        for name, entry in bounds.items():
            row = {"workload": workload, "metric": name, "bound": entry["bound"],
                   "parent": None, "change": None, "worse": None, "verdict": "ok"}
            values = [run["metrics"][name]["value"] for run in finished
                      if name in run["metrics"]]
            if values:
                row["change"] = statistics.median(values)
            base = [run["metrics"][name]["value"] for run in parents
                    if name in run["metrics"]]
            if base:
                row["parent"] = statistics.median(base)
            if row["change"] is None:
                if finished:
                    row["verdict"] = "MISSING"
                    failures.append(f"{workload}: the change does not report {name}")
                else:
                    row["verdict"] = "no run"
            elif row["parent"] is None:
                row["verdict"] = "not gated (base lacks it)"
            else:
                row["worse"] = relative_worsening(row["parent"], row["change"],
                                                  entry["better"])
                if row["worse"] > entry["bound"]:
                    row["verdict"] = "WORSE"
                    failures.append(
                        f"{workload}: {name} median {row['change']:.4g} {entry['unit']} is "
                        f"{row['worse']:+.1%} against the base's {row['parent']:.4g}, "
                        f"beyond the {entry['bound']:.0%} bound")
            rows.append(row)
    return rows, failures


def format_rows(rows):
    """Renders the comparison as one table per workload."""
    def number(value):
        return "-" if value is None else f"{value:.4g}"

    lines, workload = [], None
    header = f"  {'metric':<14}{'base':>12}{'change':>12}{'worse by':>10}{'bound':>8}  verdict"
    for row in rows:
        if row["workload"] != workload:
            workload = row["workload"]
            lines += ["", workload, header]
        worse = "-" if row["worse"] is None else f"{row['worse']:+.1%}"
        lines.append(f"  {row['metric']:<14}{number(row['parent']):>12}"
                     f"{number(row['change']):>12}{worse:>10}{row['bound']:>8.0%}"
                     f"  {row['verdict']}")
    return "\n".join(lines)


def git(*args):
    done = subprocess.run(["git", *args], cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if done.returncode:
        sys.exit(f"perf_gate: git {' '.join(args)}: {done.stderr.strip()}")
    return done.stdout


def export_base(ref, into):
    """Writes the tree of `ref` into the directory `into`."""
    sha = git("rev-parse", "--verify", f"{ref}^{{commit}}").strip()
    archive = subprocess.Popen(["git", "archive", "--format=tar", sha], cwd=ROOT,
                               stdout=subprocess.PIPE)
    unpacked = subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() or unpacked.returncode:
        sys.exit(f"perf_gate: could not export {ref} ({sha})")
    return sha


def perfbench(checkout, workload, seed, seconds):
    """Runs one --trace 0 measurement; returns its record, or None."""
    # Each checkout builds into its own .bench_build/.
    env = {key: value for key, value in os.environ.items() if key != "CARGO_TARGET_DIR"}
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    try:
        done = subprocess.run(command, cwd=checkout, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        return None
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True,
                        help="commit to compare against, e.g. the pull request's base")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    parent_runs, change_runs = {}, {}
    with tempfile.TemporaryDirectory(prefix="perf_gate-") as scratch:
        base = Path(scratch)
        sha = export_base(args.base, base)
        print(f"perf_gate: base {args.base} = {sha}", file=sys.stderr)
        sides = (("base", base, parent_runs), ("change", ROOT, change_runs))
        for workload in (entry["name"] for entry in spec["workloads"]):
            for pair, seed in enumerate(SEEDS):
                order = sides if pair % 2 == 0 else sides[::-1]
                for side, checkout, runs in order:
                    started = time.monotonic()
                    record = perfbench(checkout, workload, seed, seconds)
                    runs.setdefault(workload, []).append(record)
                    outcome = "did not finish" if record is None else \
                        f"failed {record['failed']}/{record['attempted']}"
                    print(f"perf_gate: {workload} seed {seed} {side}: {outcome}, "
                          f"{time.monotonic() - started:.0f} s", file=sys.stderr)

    rows, failures = compare(spec, parent_runs, change_runs)
    print(format_rows(rows))
    print()
    if failures:
        print("perf_gate: FAIL")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print("perf_gate: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
