# Fails when a native run into the default work dir (native::DefaultWorkDir)
# leaves its revnic_native_<pid>/ directory behind after the process exits.
# Runs driver_inspector's native race with TMPDIR pointed at a fresh
# directory, then looks for leftovers. Run as:
#   cmake -DINSPECTOR=<build>/driver_inspector -DWORK=<scratch dir> \
#         -P tests/native_workdir.cmake
cmake_minimum_required(VERSION 3.16)

if(NOT INSPECTOR OR NOT WORK)
  message(FATAL_ERROR "set INSPECTOR and WORK")
endif()
file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})
set(ENV{TMPDIR} ${WORK})
execute_process(
  COMMAND ${INSPECTOR} --driver rtl8029 --stage emit --native-run --native-frames 2000
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(out MATCHES "native run skipped: [^\n]*")
  # The toolchain probe failed; ctest reports the entry as skipped.
  message(STATUS "${CMAKE_MATCH_0}")
  return()
endif()
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "driver_inspector --native-run exited ${rc}:\n${out}\n${err}")
endif()
file(GLOB leftovers ${WORK}/revnic_native_*)
if(leftovers)
  message(FATAL_ERROR "native run left work dirs behind: ${leftovers}")
endif()
file(REMOVE_RECURSE ${WORK})
message(STATUS "native run left no revnic_native_* directory")
