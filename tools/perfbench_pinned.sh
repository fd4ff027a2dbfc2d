#!/bin/sh
# Runs one perfbench workload with --seed 1 and fails unless the virtual-time
# digest it prints matches the workload's pin in
# tests/data/perfbench_digests.txt. Run it from the repository root:
#
#   tools/perfbench_pinned.sh <workload> <further perfbench/run.py options>
#
# e.g. tools/perfbench_pinned.sh dense_8x4_mqfq --seconds 1 --trace 1
set -eu
workload=$1
shift
pins=tests/data/perfbench_digests.txt
want=$(awk -v w="$workload" '$1 == w { print $2 }' "$pins")
if [ -z "$want" ]; then
  echo "perfbench_pinned: no digest pinned for $workload in $pins" >&2
  exit 1
fi
log=$(mktemp)
trap 'rm -f "$log"' EXIT
rc=0
python3 perfbench/run.py --workload "$workload" --seed 1 "$@" >"$log" || rc=$?
cat "$log"
[ "$rc" -eq 0 ] || exit "$rc"
got=$(sed -n 's/^# digest \([0-9a-f]*\) .*/\1/p' "$log")
if [ "$got" != "$want" ]; then
  echo "perfbench_pinned: $workload digest '$got', pinned $want ($pins)" >&2
  exit 1
fi
echo "perfbench_pinned: $workload digest $got matches the pin"
