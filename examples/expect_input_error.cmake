# Runs an example on an input it cannot read and checks that it fails
# cleanly: exit status 2 and the reader's message on stderr.
#
#   cmake -DEXAMPLE=<binary> -DINPUT=<path> -DMESSAGE=<regex> -P expect_input_error.cmake
execute_process(COMMAND "${EXAMPLE}" "${INPUT}"
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE stderr)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "expected exit status 2, got '${status}'; stderr: ${stderr}")
endif()
if(NOT stderr MATCHES "${MESSAGE}")
  message(FATAL_ERROR "stderr does not match '${MESSAGE}': ${stderr}")
endif()
