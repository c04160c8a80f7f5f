# Runs PROGRAM with ARGS (one string, split like a shell command line) and
# fails unless it exits nonzero with a message on stderr matching EXPECT.
#
#   cmake -DPROGRAM=path/to/s3asim "-DARGS=--procs 4 --groups abc" \
#         "-DEXPECT=error: .*'groups'" -P expect_rejected.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND ${PROGRAM} ${args}
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(status EQUAL 0)
  message(FATAL_ERROR "'${ARGS}' was accepted:\n${out}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR
    "'${ARGS}' failed without a message matching '${EXPECT}':\n${err}")
endif()
