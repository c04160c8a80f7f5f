# Runs the s3asim CLI on a tiny workload with `OPTION VALUE` and fails
# unless it exits nonzero with an error naming the option ('name' or
# --name).
#
#   cmake -DS3ASIM=path/to/s3asim -DOPTION=--groups -DVALUE=abc \
#         -P expect_rejected.cmake
execute_process(
  COMMAND ${S3ASIM} --procs 4 --set query_count=2 ${OPTION} ${VALUE}
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
string(REGEX REPLACE "^--" "" name "${OPTION}")
if(status EQUAL 0)
  message(FATAL_ERROR "${OPTION} ${VALUE} was accepted:\n${out}")
endif()
if(NOT err MATCHES "error: .*('${name}'|${OPTION})")
  message(FATAL_ERROR
    "${OPTION} ${VALUE} failed without naming the option:\n${err}")
endif()
