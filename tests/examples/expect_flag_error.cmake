# Runs one example binary with an unknown flag and expects the error to be
# reported, never to escape main: exit status 1 and an "error:" line naming
# the flag on stderr.
#
#   cmake -DEXAMPLE=<binary> -P expect_flag_error.cmake
if(NOT EXAMPLE)
  message(FATAL_ERROR "pass -DEXAMPLE=<binary>")
endif()
execute_process(COMMAND "${EXAMPLE}" --bogus
                RESULT_VARIABLE result
                OUTPUT_QUIET
                ERROR_VARIABLE stderr
                TIMEOUT 30)
if(NOT result STREQUAL "1")
  message(FATAL_ERROR
          "${EXAMPLE} --bogus exited with '${result}', expected 1\n${stderr}")
endif()
if(NOT stderr MATCHES "error: [^\n]*--bogus")
  message(FATAL_ERROR
          "${EXAMPLE} --bogus did not report the flag on stderr:\n${stderr}")
endif()
