# Fails when a source file under SRC_DIR uses something that can make a
# simulated result depend on the host: thread-local state, host clocks,
# host entropy, C library randomness or wall time, unordered containers
# (their iteration order is unspecified) or ordered containers keyed by a
# pointer (ordered by allocation address).  Each hit prints `file:line:
# rule`.  Lines that start with `//` are skipped.
#
#   cmake -DSRC_DIR=path/to/src -P determinism_lint.cmake
#
# Allowed: the frame pool's thread-local free lists (they report only
# host.* gauges) and the scheduler's host-clock profiler.
cmake_minimum_required(VERSION 3.20)

set(allowed
  sim/frame_pool.hpp
  sim/scheduler.hpp
  sim/scheduler.cpp)

# Rule names and CMake regexes, in pairs.
set(rules
  "thread_local" "thread_local"
  "std::chrono clock" "(steady|system|high_resolution)_clock"
  "std::random_device" "random_device"
  "rand(" "(^|[^A-Za-z0-9_])s?rand\\("
  "time(" "(^|[^A-Za-z0-9_])time\\("
  "unordered container" "unordered_(multi)?(map|set)"
  "ordered container keyed by a pointer" "(map|set)<[^,<>]*\\*")

if(NOT IS_DIRECTORY "${SRC_DIR}")
  message(FATAL_ERROR "SRC_DIR '${SRC_DIR}' is not a directory")
endif()
file(GLOB_RECURSE sources RELATIVE "${SRC_DIR}"
  "${SRC_DIR}/*.hpp" "${SRC_DIR}/*.cpp" "${SRC_DIR}/*.h" "${SRC_DIR}/*.cc")
list(SORT sources)
list(LENGTH rules rule_words)
math(EXPR last_rule "${rule_words} - 1")

set(hits 0)
set(scanned 0)
foreach(source IN LISTS sources)
  if(source IN_LIST allowed)
    continue()
  endif()
  math(EXPR scanned "${scanned} + 1")
  file(READ "${SRC_DIR}/${source}" text)
  # Split into lines without CMake's list syntax getting in the way: `;`,
  # `\`, `[` and `]` are replaced first (no rule matches them).
  string(REPLACE ";" "," text "${text}")
  string(REPLACE "\\" "/" text "${text}")
  string(REPLACE "[" "(" text "${text}")
  string(REPLACE "]" ")" text "${text}")
  string(REPLACE "\n" ";" lines "${text}")
  set(number 0)
  foreach(line IN LISTS lines)
    math(EXPR number "${number} + 1")
    if(line MATCHES "^[ \t]*//")
      continue()
    endif()
    foreach(i RANGE 0 ${last_rule} 2)
      math(EXPR j "${i} + 1")
      list(GET rules ${i} rule)
      list(GET rules ${j} pattern)
      if(line MATCHES "${pattern}")
        message("src/${source}:${number}: ${rule}")
        math(EXPR hits "${hits} + 1")
      endif()
    endforeach()
  endforeach()
endforeach()

if(hits GREATER 0)
  message(FATAL_ERROR "determinism lint: ${hits} hit(s) in ${scanned} files")
endif()
message("determinism lint: ${scanned} files clean")
