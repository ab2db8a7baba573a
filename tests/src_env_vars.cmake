# Fails when a source file under src/ calls getenv on a REVNIC_* variable
# outside the allowed set below, so process-wide settings cannot grow back
# unnoticed. Run as:
#   cmake -DSRC_DIR=<repo>/src -P tests/src_env_vars.cmake
cmake_minimum_required(VERSION 3.16)

set(allowed
    REVNIC_NATIVE_CC)  # host C compiler for the native tier

file(GLOB_RECURSE sources ${SRC_DIR}/*.cc ${SRC_DIR}/*.h)
if(NOT sources)
  message(FATAL_ERROR "no sources under SRC_DIR='${SRC_DIR}'")
endif()
set(found "")
set(unexpected "")
foreach(source IN LISTS sources)
  file(STRINGS ${source} lines REGEX "getenv\\(\"REVNIC_")
  foreach(line IN LISTS lines)
    string(REGEX MATCHALL "getenv\\(\"REVNIC_[A-Z0-9_]+" calls "${line}")
    foreach(call IN LISTS calls)
      string(REPLACE "getenv(\"" "" name "${call}")
      list(APPEND found ${name})
      if(NOT name IN_LIST allowed)
        file(RELATIVE_PATH where ${SRC_DIR} ${source})
        list(APPEND unexpected "src/${where}: ${name}")
      endif()
    endforeach()
  endforeach()
endforeach()
list(REMOVE_DUPLICATES found)
list(LENGTH found count)
if(unexpected)
  list(JOIN unexpected "\n  " report)
  message(FATAL_ERROR "src/ reads REVNIC_* variables outside the allowed set:\n  ${report}")
endif()
message(STATUS "src/ reads ${count} REVNIC_* variables: ${found}")
