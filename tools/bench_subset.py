#!/usr/bin/env python3
"""Prints the entries of a BENCH report whose labels start with a prefix.

    python3 tools/bench_subset.py BENCH_baseline.json micro_benchmarks/ perf/

The output is itself a report, in the layout bench/common writes (one entry
a line, values compact), so bench_gate reads it and a bench binary run with
STRINGS_BENCH_REPORT pointing at it merges into it.
"""
import json
import sys


def main():
    if len(sys.argv) < 3:
        sys.exit("usage: bench_subset.py <report.json> <prefix>...")
    with open(sys.argv[1]) as f:
        report = json.load(f)
    prefixes = tuple(sys.argv[2:])
    lines = [json.dumps(label) + ": " + json.dumps(entry, separators=(",", ":"))
             for label, entry in report.items() if label.startswith(prefixes)]
    print("{\n  " + ",\n  ".join(lines) + "\n}" if lines else "{}")


if __name__ == "__main__":
    main()
