# Runs BIN and byte-compares its stdout with the file GOLDEN.
#
#   cmake -DBIN=<program> -DGOLDEN=<file> -P check_stdout.cmake
#
# Fails on a nonzero exit or on any byte of difference.
execute_process(COMMAND ${BIN}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${status}")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "stdout of ${BIN} differs from ${GOLDEN}:\n${actual}")
endif()
