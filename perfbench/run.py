#!/usr/bin/env python3
"""Layered benchmark for the sap simulator and partition advisor.

Run from the root of a sap checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first run configures and builds perfbench/ (the repository's `sap`
library plus the perfbench driver) as a Release build under
$CARGO_TARGET_DIR (default .bench_build); later runs rebuild
incrementally.  The driver's human-readable lines are passed through, and
the last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end_to_end metrics of BENCHMARK.json, --trace 1
the per_layer ones and writes a Chrome trace next to the build.  See
perfbench/README.md for the workloads and how to read the numbers.
"""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]+$")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return REPO / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not (REPO / "CMakeLists.txt").is_file() or not (REPO / "src").is_dir():
        fail(f"{REPO} is not a sap source tree (CMakeLists.txt and src/ missing)")
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", "4"])
    for step in steps:
        proc = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(step))
    return out / "perfbench"


def run_driver(exe, args):
    # Nothing in the environment may change what is measured: the driver
    # pins engine, optimizer, scheduler and workers through arguments, and
    # the SAPART_* knobs are dropped on top of that.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SAPART_")}
    try:
        proc = subprocess.run([str(exe)] + args, stdout=subprocess.PIPE,
                              text=True, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {RUN_TIMEOUT_S} s")
    return proc


def load_spec():
    path = REPO / "BENCHMARK.json"
    if not path.is_file():
        fail("BENCHMARK.json missing")
    return json.loads(path.read_text())


def joint_rows():
    """kernel -> (joint pick, joint %) from the committed A9 artifact."""
    path = REPO / "BENCH_ablation_joint.json"
    if not path.is_file():
        return None
    artifact = json.loads(path.read_text())
    columns = artifact["columns"]
    kernel = columns.index("kernel")
    pick = columns.index("joint pick")
    joint = columns.index("joint")
    return {row[kernel]: (row[pick], row[joint]) for row in artifact["rows"]}


def check_records(records):
    """Mismatches between the advisor's picks and BENCH_ablation_joint.json."""
    rows = joint_rows()
    if rows is None:
        return ["BENCH_ablation_joint.json missing"]
    errors = []
    for kernel, record in records.items():
        pick, fraction = record.split("\t")
        expected = rows.get(kernel)
        if expected != (pick, fraction):
            errors.append(f"{kernel}: advised {pick} at {fraction}, "
                          f"BENCH_ablation_joint.json has {expected}")
    return errors


def run(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose from {names}")
    exe = build()
    driver_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_path = build_dir() / f"trace-{args.workload}-{args.seed}.json"
        driver_args += ["--trace-out", str(trace_path)]
    proc = run_driver(exe, driver_args)
    lines = proc.stdout.splitlines()
    result = None
    for line in lines:
        if line.startswith("PERFBENCH "):
            result = json.loads(line[len("PERFBENCH "):])
        else:
            print(line)
    if proc.returncode != 0 or result is None:
        fail(f"driver exited with {proc.returncode}")

    attempted = result["attempted"]
    failed = result["failed"]
    errors = list(result["errors"])
    if result["check_records"]:
        mismatches = check_records(result["check_records"])
        attempted += len(result["check_records"])
        failed += len(mismatches)
        errors += mismatches
    for error in errors:
        print(f"error: {error}")
    print(f"error_rate: {failed / attempted if attempted else 1.0} "
          f"({failed} of {attempted} requests and checks)")

    metrics = {m["name"]: {"value": m["value"], "unit": m["unit"]}
               for m in result["metrics"]}
    declared = spec["per_layer" if args.trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != expected:
        fail(f"metrics do not match BENCHMARK.json: missing "
             f"{sorted(set(expected) - set(got))}, extra "
             f"{sorted(set(got) - set(expected))}, unit mismatches "
             f"{sorted(n for n in got if n in expected and got[n] != expected[n])}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def self_test():
    """The driver's own checks plus the metric-name contract."""
    spec = load_spec()
    problems = []
    seen = set()
    for section in ("end_to_end", "per_layer"):
        for metric in spec[section]:
            name, unit = metric["name"], metric["unit"]
            if not NAME_RE.match(name) or len(name) > 64:
                problems.append(f"bad metric name {name!r}")
            if not UNIT_RE.match(unit) or len(unit) > 16:
                problems.append(f"bad unit {unit!r} of {name}")
            if name in seen:
                problems.append(f"metric {name} declared twice")
            seen.add(name)
    for workload in spec["workloads"]:
        if not NAME_RE.match(workload["name"]):
            problems.append(f"bad workload name {workload['name']!r}")
    for problem in problems:
        print(f"FAIL {problem}")
    proc = run_driver(build(), ["--self-test"])
    print(proc.stdout, end="")
    ok = not problems and proc.returncode == 0
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        sys.exit(self_test())
    if not args.workload:
        parser.error("--workload is required")
    run(args)


if __name__ == "__main__":
    main()
