#!/bin/sh
# Prints the lines added, removed and net per top-level directory, from
# `git diff --numstat` between a base revision and the working tree (tracked
# files; binary files count 0; files at the repository root count under
# "."). Run it from anywhere inside the repository:
#
#   tools/net_lines.sh [base]      # base defaults to HEAD~1
set -eu
base=${1:-HEAD~1}
if ! git rev-parse --verify --quiet "$base^{commit}" >/dev/null; then
  echo "net_lines: unknown revision '$base'" >&2
  exit 2
fi
printf '%-12s %8s %8s %8s\n' dir added removed net
git diff --numstat --no-renames "$base" | awk -F '\t' '
  {
    slash = index($3, "/")
    dir = slash ? substr($3, 1, slash - 1) : "."
    add = $1 == "-" ? 0 : $1
    del = $2 == "-" ? 0 : $2
    added[dir] += add; removed[dir] += del
    total_added += add; total_removed += del
  }
  END {
    for (d in added) {
      printf "1 %-12s %8s %8s %+8d\n", d, "+" added[d], "-" removed[d],
             added[d] - removed[d]
    }
    printf "2 %-12s %8s %8s %+8d\n", "total", "+" total_added,
           "-" total_removed, total_added - total_removed
  }' | sort -k1,1n -k2,2 | cut -c3-
