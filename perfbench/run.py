#!/usr/bin/env python3
"""Runs one workload of the Strings host-time benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It builds perfbench/ (and with it the
repository's src/ libraries) into .bench_build/, runs the workload, checks
the result line against BENCHMARK.json and prints that line as the last line
of stdout. Build output goes to stderr. It exits non-zero, without a result
line, when the build fails or the result is malformed, and with the result
line when the program's outputs failed their checks ("correct": false).
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    if not (BUILD / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return BUILD / "perfbench"


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json promises for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]}


def check(result, trace):
    if set(result) != RESULT_KEYS:
        return f"result keys {sorted(result)} are not {sorted(RESULT_KEYS)}"
    got = {(name, m["unit"]) for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        return f"metrics differ from BENCHMARK.json: missing {sorted(want - got)}, extra {sorted(got - want)}"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number of at least 1"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    binary = build()
    out_dir = BUILD / "out" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run(
        [str(binary), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out", str(out_dir)],
        stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    problem = "no result line" if result is None else check(result, args.trace)
    if problem:
        print(f"perfbench: {problem} (exit code {proc.returncode})", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
