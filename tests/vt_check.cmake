# Runs one smoke command from the repo root and pins its stdout, as a
# SHA-256, against its line in tests/data/vt_manifest.sha256 (the `vt`
# ctest label). The manifest covers every bench --quick stdout that has no
# golden of its own and every scenarios/*.scenario run_scenario output, so
# a change that moves virtual time anywhere in them fails here by name.
#
# Normalization is golden_scenario_check.cmake's stdout rule: lines that
# echo an output path ("written to") are dropped before hashing.
#
# Every run prints its manifest line ("vt-manifest: <sha256>  <name>"), so
# re-pinning after an intended change is one command from the repo root:
#   ctest --test-dir build -L vt -V | sed -n 's/.*vt-manifest: //p' |
#     sort -k2 > tests/data/vt_manifest.sha256
#
# Arguments: -DCMD=<binary> -DARGS=<;-list> -DNAME=<manifest name>
#            -DSRC_DIR=<repo root>
foreach(arg CMD NAME SRC_DIR)
  if(NOT DEFINED ${arg})
    message(FATAL_ERROR "vt_check: missing -D${arg}")
  endif()
endforeach()

execute_process(COMMAND ${CMD} ${ARGS}
                WORKING_DIRECTORY ${SRC_DIR}
                OUTPUT_VARIABLE out
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${CMD} ${ARGS} exited with ${rc}")
endif()
string(REGEX REPLACE "[^\n]*written to[^\n]*\n" "" out "${out}")
string(SHA256 got "${out}")
message(STATUS "vt-manifest: ${got}  ${NAME}")

file(STRINGS "${SRC_DIR}/tests/data/vt_manifest.sha256" lines
     REGEX "  ${NAME}$")
if(NOT lines)
  message(FATAL_ERROR "${NAME}: no line in tests/data/vt_manifest.sha256")
endif()
string(REGEX REPLACE "  .*" "" want "${lines}")
if(NOT got STREQUAL want)
  message(FATAL_ERROR
    "${NAME}: stdout moved\n  got  ${got}\n  want ${want}")
endif()
