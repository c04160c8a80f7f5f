# Runs s3asim_bench on SCENARIOS (one string, space-separated) serially and
# with --jobs 4, each into a fresh directory under WORK_DIR, and fails unless
# both runs exit 0 and write the same CSV files byte for byte.
#
#   cmake -DBENCH=path/to/s3asim_bench -DWORK_DIR=/tmp/x \
#         "-DSCENARIOS=ablation_resume ablation_sieve" \
#         -P bench_jobs_identical.cmake
separate_arguments(scenarios UNIX_COMMAND "${SCENARIOS}")
foreach(jobs 1 4)
  set(dir "${WORK_DIR}/jobs${jobs}")
  file(REMOVE_RECURSE "${dir}")
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env S3ASIM_RESULTS_DIR=${dir}
            ${BENCH} --jobs ${jobs} ${scenarios}
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "--jobs ${jobs} exited ${status}:\n${out}\n${err}")
  endif()
  file(GLOB csvs RELATIVE "${dir}" "${dir}/*.csv")
  list(SORT csvs)
  set(csvs_${jobs} "${csvs}")
endforeach()

if(NOT csvs_1 STREQUAL csvs_4)
  message(FATAL_ERROR "CSV lists differ: '${csvs_1}' vs '${csvs_4}'")
endif()
if(csvs_1 STREQUAL "")
  message(FATAL_ERROR "no CSV was written")
endif()
foreach(csv IN LISTS csvs_1)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            "${WORK_DIR}/jobs1/${csv}" "${WORK_DIR}/jobs4/${csv}"
    RESULT_VARIABLE differs)
  if(differs)
    message(FATAL_ERROR "${csv} differs between --jobs 1 and --jobs 4")
  endif()
endforeach()
