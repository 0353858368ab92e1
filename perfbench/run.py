#!/usr/bin/env python3
"""Entry point of the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout. Builds the harness and the library from the
checkout's sources into .bench_build/perfbench (incremental after the first
run), runs one workload in one process, checks its result line against
BENCHMARK.json and prints that line last. --selftest runs every workload at
a reduced size to check that the seed is honoured and that same-seed runs
repeat exactly.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
EXE = BUILD / "lncl_perfbench"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "lncl_perfbench",
                  "-j", jobs])
    with open(log_path, "a") as log:
        for step in steps:
            try:
                code = subprocess.run(step, cwd=ROOT, stdout=log,
                                      stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                fail(f"build step timed out: {' '.join(step)}")
            if code != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build step failed ({code}): {' '.join(step)}")


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"missing {path}")
    return json.loads(path.read_text())


def run_harness(workload, seed, seconds, trace, small=False):
    """Runs one workload; returns (stdout lines, context dict, result dict)."""
    cmd = [str(EXE), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if small:
        cmd.append("--small")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        fail(f"{workload} exited with {proc.returncode}")
    try:
        context = json.loads(lines[-2])
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        fail(f"{workload}: unparsable result: {e}")
    return lines[:-1], context, result


def check_result(result, spec, trace):
    """The result line must carry exactly the metrics BENCHMARK.json names
    for this trace mode, each with its declared unit and a finite value."""
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}")
    if result["attempted"] < 1:
        fail("no operation attempted")
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(declared):
        fail(f"metrics differ from BENCHMARK.json: missing "
             f"{sorted(set(declared) - set(got))}, extra "
             f"{sorted(set(got) - set(declared))}")
    for name, m in got.items():
        if m.get("unit") != declared[name]:
            fail(f"{name}: unit {m.get('unit')} != {declared[name]}")
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{name}: value {value!r} is not a finite number")


def selftest(spec):
    """Reduced-size runs: the same seed repeats digests and scores exactly,
    the traced fit matches the untraced one, another seed changes both."""
    scores = ("student_score", "teacher_score", "inference_score")
    for workload in [w["name"] for w in spec["workloads"]]:
        summaries = {}
        for trace, seed, rep in [(0, 1, 0), (0, 1, 1), (0, 2, 0), (1, 1, 0)]:
            _, context, result = run_harness(workload, seed, 1, trace,
                                             small=True)
            check_result(result, spec, trace)
            if not result["correct"]:
                fail(f"{workload}: failed operations at seed {seed}")
            if context["context"]["seed"] != seed:
                fail(f"{workload}: seed {seed} not honoured")
            summaries[(trace, seed, rep)] = context["summary"]
        base = summaries[(0, 1, 0)]
        again = summaries[(0, 1, 1)]
        if again != base:
            fail(f"{workload}: same-seed runs differ: {base} vs {again}")
        traced = summaries[(1, 1, 0)]["fit_digests"][0]
        if traced != base["fit_digests"][0]:
            fail(f"{workload}: traced fit digest {traced} != untraced "
                 f"{base['fit_digests'][0]}")
        other = summaries[(0, 2, 0)]
        if (other["fit_digests"] == base["fit_digests"]
                or all(other[f] == base[f] for f in scores)):
            fail(f"{workload}: seeds 1 and 2 give the same fits or scores")
        print(f"selftest {workload}: ok (digests {base['fit_digests']}, "
              f"scores {[round(base[f], 4) for f in scores]})")
    print("selftest: ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    spec = load_spec()
    build()
    if args.selftest:
        selftest(spec)
        return
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"--workload must be one of {names}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    lines, _, result = run_harness(args.workload, args.seed, seconds,
                                   args.trace)
    check_result(result, spec, args.trace)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
