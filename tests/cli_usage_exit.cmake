# Runs `pup_cli CMD <required args> FLAG VALUE` and requires the usage
# text on stderr and exit code 2. The required arguments name files and
# directories that do not exist, so a value that slips past flag
# validation fails with exit 1 (load or save) or aborts, never with 2.
#
#   cmake -DCLI=path/to/pup_cli -DCMD=serve -DFLAG=--cache -DVALUE=-1 \
#         -P cli_usage_exit.cmake
if(CMD STREQUAL "serve")
  set(args serve --index does-not-exist.pupc)
elseif(CMD STREQUAL "train")
  set(args train --items does-not-exist.csv
      --interactions does-not-exist.csv)
elseif(CMD STREQUAL "generate")
  set(args generate --out-dir does-not-exist/sub)
else()
  message(FATAL_ERROR "unknown CMD '${CMD}'")
endif()
execute_process(
  COMMAND "${CLI}" ${args} "${FLAG}" "${VALUE}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "pup_cli ${CMD} ${FLAG} ${VALUE}: exit ${rc}, want 2\n${err}")
endif()
if(NOT err MATCHES "usage: pup_cli")
  message(FATAL_ERROR "pup_cli ${CMD} ${FLAG} ${VALUE}: no usage text\n${err}")
endif()
