# Compares a telemetry stream with its committed golden, `sim/...` series
# dropped (stream_normalize.cmake); the golden is stored without them.
#
# Arguments: -DGOT=<stream.jsonl> -DGOLDEN=<golden .jsonl>
include(${CMAKE_CURRENT_LIST_DIR}/stream_normalize.cmake)
file(READ "${GOT}" got)
strip_sim_series(got)
file(READ "${GOLDEN}" want)
if(NOT got STREQUAL want)
  message(FATAL_ERROR "${GOT} diverged from ${GOLDEN}")
endif()
