# Runs CMD (a ;-separated command line) and fails unless it exits with
# EXIT_CODE and its combined stdout/stderr contains EXPECT. ctest's own
# PASS_REGULAR_EXPRESSION ignores the exit code, so a run that printed the
# right words but carried on would pass it.
#
#   cmake -DCMD=<exe>;<arg>... -DEXIT_CODE=2 -DEXPECT=<text> -P expect_exit.cmake
execute_process(COMMAND ${CMD} RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
message("${out}${err}")
if(NOT rc STREQUAL "${EXIT_CODE}")
  message(FATAL_ERROR "exit code ${rc}, want ${EXIT_CODE}")
endif()
string(FIND "${out}${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "output lacks \"${EXPECT}\"")
endif()
