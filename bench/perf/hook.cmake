# Build file of the perf_suite benchmark.  It adds the harness to the
# project's own build, with the project's build type and options, without
# editing any of the project's CMakeLists.txt files:
#
#   cmake -S . -B build-perf \
#         -DCMAKE_PROJECT_INCLUDE=$PWD/bench/perf/hook.cmake \
#         -DS3ASIM_BUILD_TESTS=OFF -DS3ASIM_BUILD_EXAMPLES=OFF
#   cmake --build build-perf --target perf_suite
#
# CMake includes this file at the end of the top-level project() call,
# before the project sets CMAKE_CXX_STANDARD or adds src/, so the target
# names its standard itself; s3asim::core is resolved at generate time.
if(PROJECT_NAME STREQUAL "s3asim" AND NOT TARGET perf_suite)
  add_executable(perf_suite
    ${CMAKE_CURRENT_LIST_DIR}/perf_suite.cpp
    ${CMAKE_CURRENT_LIST_DIR}/probes.cpp
    ${CMAKE_CURRENT_LIST_DIR}/spans.cpp
    ${CMAKE_CURRENT_LIST_DIR}/workloads.cpp)
  set_target_properties(perf_suite PROPERTIES
    CXX_STANDARD 20
    CXX_STANDARD_REQUIRED ON
    CXX_EXTENSIONS OFF)
  target_link_libraries(perf_suite PRIVATE s3asim::core s3asim_warnings)
endif()
