# Drives run_scenario on one scenario and pins every artifact byte-for-byte
# against the committed goldens in tests/data/golden/. This is the kernel
# refactors' determinism gate: fibers, the event queue, and the flat
# tables may change wall-clock speed, never virtual-time behaviour.
#
# Artifact-specific normalization, mirrored exactly by the regeneration
# recipe in tests/data/golden/ (see docs/simcore.md):
#  - trace.json is pinned by SHA-256 (the file is megabytes);
#  - stdout drops "written to <path>" echo lines (they embed output paths);
#  - analyze reports rewrite `.cpp:<line>` to `.cpp:LINE` (ANALYSIS_SITE
#    embeds __LINE__, which moves on unrelated edits).
#
# A scenario with a committed <name>.stream.sha256 also gets a second,
# streamed run (--trace --stream --exemplars 3): the telemetry JSONL, with
# its 10 ms windows, per-window exemplar ids and trailing exemplar lines,
# is pinned by SHA-256 after strip_sim_series (stream_normalize.cmake)
# drops the kernel's own sim/... series. It is a separate run because
# streaming registers sim/... instruments that would change the plain
# run's metrics CSV.
#
# Arguments: -DCMD=<run_scenario> -DNAME=<scenario stem>
#            -DSRC_DIR=<repo root> -DWORK_DIR=<scratch dir>
include(${CMAKE_CURRENT_LIST_DIR}/stream_normalize.cmake)

foreach(arg CMD NAME SRC_DIR WORK_DIR)
  if(NOT DEFINED ${arg})
    message(FATAL_ERROR "golden_scenario_check: missing -D${arg}")
  endif()
endforeach()

set(golden_dir "${SRC_DIR}/tests/data/golden")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(trace "${WORK_DIR}/${NAME}.trace.json")
set(metrics "${WORK_DIR}/${NAME}.metrics.csv")
set(analyze "${WORK_DIR}/${NAME}.analyze.txt")
set(stdout "${WORK_DIR}/${NAME}.stdout.txt")

# The stdout golden echoes the scenario path as given, so invoke with the
# repo-root-relative path from the repo root.
execute_process(
  COMMAND ${CMD} scenarios/${NAME}.scenario
          --trace ${trace} --metrics ${metrics} --analyze ${analyze}
  WORKING_DIRECTORY ${SRC_DIR}
  OUTPUT_FILE ${stdout}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "run_scenario ${NAME} exited with ${rc}")
endif()

# Trace: SHA-256 against the pinned digest.
file(SHA256 "${trace}" got_sha)
file(READ "${golden_dir}/${NAME}.trace.sha256" want_sha)
string(STRIP "${want_sha}" want_sha)
if(NOT got_sha STREQUAL want_sha)
  message(FATAL_ERROR
    "${NAME}: trace.json diverged\n  got  ${got_sha}\n  want ${want_sha}")
endif()

# Metrics: raw byte compare.
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          "${metrics}" "${golden_dir}/${NAME}.metrics.csv"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${NAME}: metrics.csv diverged from golden")
endif()

# Stdout: drop the "written to" echo lines, then compare.
file(READ "${stdout}" got_out)
string(REGEX REPLACE "[^\n]*written to[^\n]*\n" "" got_out "${got_out}")
file(READ "${golden_dir}/${NAME}.stdout.txt" want_out)
if(NOT got_out STREQUAL want_out)
  message(FATAL_ERROR "${NAME}: stdout diverged from golden")
endif()

# Analyze report: normalize ANALYSIS_SITE line numbers, then compare.
file(READ "${analyze}" got_an)
string(REGEX REPLACE "\\.cpp:[0-9]+" ".cpp:LINE" got_an "${got_an}")
file(READ "${golden_dir}/${NAME}.analyze.txt" want_an)
if(NOT got_an STREQUAL want_an)
  message(FATAL_ERROR "${NAME}: analyze report diverged from golden")
endif()

if(EXISTS "${golden_dir}/${NAME}.stream.sha256")
  set(stream "${WORK_DIR}/${NAME}.stream.jsonl")
  execute_process(
    COMMAND ${CMD} scenarios/${NAME}.scenario
            --trace ${WORK_DIR}/${NAME}.stream.trace.json
            --stream ${stream} --exemplars 3
    WORKING_DIRECTORY ${SRC_DIR}
    OUTPUT_QUIET
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "run_scenario ${NAME} --stream exited with ${rc}")
  endif()
  file(READ "${stream}" got_stream)
  strip_sim_series(got_stream)
  string(SHA256 got_sha "${got_stream}")
  file(READ "${golden_dir}/${NAME}.stream.sha256" want_sha)
  string(STRIP "${want_sha}" want_sha)
  if(NOT got_sha STREQUAL want_sha)
    message(FATAL_ERROR
      "${NAME}: stream.jsonl diverged\n  got  ${got_sha}\n  want ${want_sha}")
  endif()
endif()

message(STATUS "${NAME}: all artifacts byte-identical to goldens")
