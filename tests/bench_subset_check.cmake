# Cuts BENCH_baseline.json's kernel entries with tools/bench_subset.py, as
# CI's perf-smoke job does, and compares the cut against itself: bench_gate
# must read it, find all eleven entries and pass clean. Usage:
#   cmake -DPYTHON=<python3> -DGATE=<bench_gate> -DSRC=<source dir>
#         -DOUT=<subset path> -P bench_subset_check.cmake
execute_process(
  COMMAND ${PYTHON} ${SRC}/tools/bench_subset.py ${SRC}/BENCH_baseline.json
    micro_benchmarks/ perf/
  OUTPUT_FILE ${OUT} RESULT_VARIABLE cut)
if(NOT cut EQUAL 0)
  message(FATAL_ERROR "bench_subset.py exited ${cut}")
endif()
execute_process(COMMAND ${GATE} ${OUT} ${OUT}
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE gate)
if(NOT gate EQUAL 0 OR
   NOT out MATCHES "11 baseline entries, .* 0 warnings, 0 failures")
  message(FATAL_ERROR "bench_gate exited ${gate} on ${OUT}:\n${out}${err}")
endif()
