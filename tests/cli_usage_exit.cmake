# Runs `pup_cli serve --index <missing file> FLAG VALUE` and requires the
# usage text on stderr and exit code 2. The index path does not exist, so
# a value that slips past flag validation fails with exit 1 (index load)
# or aborts, never with 2.
#
#   cmake -DCLI=path/to/pup_cli -DFLAG=--cache -DVALUE=-1 -P cli_usage_exit.cmake
execute_process(
  COMMAND "${CLI}" serve --index does-not-exist.pupc "${FLAG}" "${VALUE}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "pup_cli serve ${FLAG} ${VALUE}: exit ${rc}, want 2\n${err}")
endif()
if(NOT err MATCHES "usage: pup_cli")
  message(FATAL_ERROR "pup_cli serve ${FLAG} ${VALUE}: no usage text\n${err}")
endif()
