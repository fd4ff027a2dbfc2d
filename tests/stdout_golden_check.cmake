# Runs a command and pins its stdout byte for byte against a committed
# golden in tests/data/golden/. Usage:
#   cmake -DCMD=<binary> -DARGS=<;-list> -DGOLDEN=<file> -DOUT=<file>
#         -P stdout_golden_check.cmake
foreach(arg CMD GOLDEN OUT)
  if(NOT DEFINED ${arg})
    message(FATAL_ERROR "stdout_golden_check: missing -D${arg}")
  endif()
endforeach()

execute_process(COMMAND ${CMD} ${ARGS} OUTPUT_FILE ${OUT} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${CMD} ${ARGS} exited with ${rc}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${CMD} ${ARGS}: stdout ${OUT} differs from ${GOLDEN}")
endif()
