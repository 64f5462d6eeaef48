# Runs an example binary with one malformed numeric flag and requires a
# non-zero exit and a stderr message naming the flag: a bad number must
# not silently fall back to the flag's default.
#
#   cmake -DEXAMPLE=path/to/quickstart -DFLAG=--threads -DVALUE=xyz \
#         -P example_rejects.cmake
execute_process(
  COMMAND "${EXAMPLE}" "${FLAG}" "${VALUE}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE} ${FLAG} ${VALUE}: exit 0, want non-zero")
endif()
if(NOT err MATCHES "malformed number ${FLAG}=${VALUE}")
  message(FATAL_ERROR "${EXAMPLE} ${FLAG} ${VALUE}: exit ${rc}, stderr does not name the flag\n${err}")
endif()
