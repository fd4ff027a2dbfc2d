#!/usr/bin/env python3
"""Prints the entries of a BENCH report whose labels start with a prefix.

    python3 tools/bench_subset.py BENCH_baseline.json micro_benchmarks/ perf/
    python3 tools/bench_subset.py BENCH_new.json "" > BENCH_baseline.json

The output is itself a report, in the layout bench/common writes (one entry
a line, values compact), so bench_gate reads it and a bench binary run with
STRINGS_BENCH_REPORT pointing at it merges into it.

It drops the host-dependent wall_s and events_per_sec from every entry
that also carries a virtual-time metric (a scenario entry), so a
re-recorded baseline keeps no wall-clock number bench_gate would compare
against another host. Entries with no virtual-time metric (the kernel
micro_benchmarks/ and the perf/ records) keep theirs. Every number is
copied as written, so an unchanged entry stays byte for byte.
"""
import json
import sys

VIRTUAL_TIME = ("makespan_s", "p50_s", "p99_s", "jain")
WALL_CLOCK = ("wall_s", "events_per_sec")


class Number(str):
    """A number kept as the report wrote it, so a copied entry is
    byte-identical to its source line."""


def render(entry):
    return "{" + ",".join(
        json.dumps(m) + ":" + (v if isinstance(v, Number) else json.dumps(v))
        for m, v in entry.items()) + "}"


def main():
    args = sys.argv[1:]
    if len(args) < 2:
        sys.exit("usage: bench_subset.py <report.json> <prefix>...")
    with open(args[0]) as f:
        report = json.load(f, parse_float=Number, parse_int=Number)
    prefixes = tuple(args[1:])
    lines = []
    for label, entry in report.items():
        if not label.startswith(prefixes):
            continue
        if any(m in entry for m in VIRTUAL_TIME):
            entry = {m: v for m, v in entry.items() if m not in WALL_CLOCK}
        lines.append(json.dumps(label) + ": " + render(entry))
    print("{\n  " + ",\n  ".join(lines) + "\n}" if lines else "{}")


if __name__ == "__main__":
    main()
