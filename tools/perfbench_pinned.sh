#!/bin/sh
# Runs one perfbench workload with --seed 1 and fails unless the virtual-time
# digest it prints matches the workload's pin in
# tests/data/perfbench_digests.txt. With --trace 1 it also fails unless the
# result line's simcore.events matches the pinned kernel event count. For
# telemetry_2x2_obs it also checks the stream, trace and metrics the run
# exported against tests/data/perfbench_obs_artifacts.sha256. Run it from
# the repository root:
#
#   tools/perfbench_pinned.sh <workload> <further perfbench/run.py options>
#
# e.g. tools/perfbench_pinned.sh dense_8x4_mqfq --seconds 1 --trace 1
set -eu
workload=$1
shift
pins=tests/data/perfbench_digests.txt
want=$(awk -v w="$workload" '$1 == w { print $2 }' "$pins")
want_events=$(awk -v w="$workload" '$1 == w { print $3 }' "$pins")
if [ -z "$want" ] || [ -z "$want_events" ]; then
  echo "perfbench_pinned: no digest and event count pinned for $workload" \
    "in $pins" >&2
  exit 1
fi
traced=0
prev=
for arg in "$@"; do
  if [ "$prev $arg" = "--trace 1" ] || [ "$arg" = "--trace=1" ]; then
    traced=1
  fi
  prev=$arg
done
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
if [ "$workload" = telemetry_2x2_obs ]; then
  sha256sum -c tests/data/perfbench_obs_artifacts.sha256
fi
[ "$traced" -eq 1 ] || exit 0
got_events=$(tail -n 1 "$log" | python3 -c \
  'import json, sys; print(int(json.load(sys.stdin)["metrics"]["simcore.events"]["value"]))')
if [ "$got_events" != "$want_events" ]; then
  echo "perfbench_pinned: $workload simcore.events $got_events," \
    "pinned $want_events ($pins)" >&2
  exit 1
fi
echo "perfbench_pinned: $workload simcore.events $got_events matches the pin"
