#!/usr/bin/env python3
"""End-to-end benchmark of the thrifty connected-components system.

Run from the repository root:

    python3 perfbench/run.py --workload skewed_batch --seed 1 --seconds 20 --trace 0

Builds perfbench/ (and the library beside it) in Release mode, generates
the workload's inputs from the seed, measures, and prints as the last line
of standard output one JSON object with the keys correct, attempted,
failed and metrics.  --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer metrics from a traced run (spans
are written to <build>/work/<workload>/trace.json).  See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("skewed_batch", "road_batch", "serve_mixed", "sharded_stream")
# setup_s is the median of at least this many set-ups, each in its own
# process, repeated until they add up to SETUP_MIN_SECONDS: quick set-ups
# need many samples for a steady median.
SETUP_MIN_REPS = 3
SETUP_MIN_SECONDS = 3.0
# Every child must end well inside the benchmark's 180 s limit per run.
CHILD_TIMEOUT_S = 150
# A fixed mmap threshold turns off glibc's dynamic one, under which freed
# large blocks stay resident depending on the order threads free them; with
# it, peak_rss_mb measures live data and repeats from run to run.
CHILD_ENV = {**os.environ, "MALLOC_MMAP_THRESHOLD_": "131072"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures once, then rebuilds incrementally; returns the binary."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"the thrifty sources are missing under {ROOT}")
    cmake_dir = build_dir() / "cmake"
    log = build_dir() / "build.log"
    cmake_dir.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (cmake_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(cmake_dir), "--target", "thrifty_perfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT, cwd=ROOT).returncode:
                with open(log) as text:
                    sys.stderr.write("".join(text.readlines()[-30:]))
                fail(f"build failed (log: {log})")
    return cmake_dir / "thrifty_perfbench"


def child(binary, args):
    """Runs the measured binary; returns the JSON of its last stdout line."""
    done = subprocess.run([str(binary), *args], stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT, env=CHILD_ENV)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{' '.join(args[:3])} exited with {done.returncode}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    binary = build()

    work = build_dir() / "work" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--dir", str(work)]
    setup = [child(binary, ["setup", *common, "--reference"])["setup_s"]]
    while len(setup) < SETUP_MIN_REPS or sum(setup) < SETUP_MIN_SECONDS:
        setup.append(child(binary, ["setup", *common])["setup_s"])
    result = child(binary, ["run", *common, "--seconds", str(args.seconds),
                            "--trace", str(args.trace)])

    measured = dict(result["metrics"])
    if args.trace == 0:
        measured["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics, not_exercised = {}, []
    for entry in wanted:
        name = entry["name"]
        if name in measured:
            got = measured.pop(name)
            if got["unit"] != entry["unit"]:
                fail(f"{name}: unit {got['unit']} differs from BENCHMARK.json's {entry['unit']}")
            metrics[name] = {"value": got["value"], "unit": entry["unit"]}
        elif args.trace:
            # The workload does not run this layer; 0 marks it as not exercised.
            not_exercised.append(name)
            metrics[name] = {"value": 0, "unit": entry["unit"]}
        else:
            fail(f"{args.workload} did not report end-to-end metric {name}")
    if measured:
        fail(f"metrics missing from BENCHMARK.json: {sorted(measured)}")

    info = dict(result["info"])
    info["setup_s_samples"] = setup
    info["not_exercised"] = not_exercised
    if args.trace:
        info["trace_file"] = os.path.relpath(work / "trace.json", ROOT)
    record = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    results = build_dir() / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, "info": info}, indent=1) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(record))


if __name__ == "__main__":
    main()
