# Runs PROGRAM with the space-separated ARGS and fails unless it exits with
# EXPECT_CODE and its stderr matches the regex EXPECT_STDERR. A crash (e.g.
# SIGABRT from a failed check) reports a non-numeric result and fails too.
#
#   cmake -DPROGRAM=... -DARGS="..." -DEXPECT_CODE=1 -DEXPECT_STDERR=... \
#         -P expect_exit.cmake
separate_arguments(arg_list UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${arg_list}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code STREQUAL "${EXPECT_CODE}")
  message(FATAL_ERROR "expected exit code ${EXPECT_CODE}, got '${code}'\n"
                      "stdout: ${out}\nstderr: ${err}")
endif()
if(NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "stderr does not match '${EXPECT_STDERR}':\n${err}")
endif()
