# Trains MODEL for one epoch on a tiny synthetic world with
# `pup_cli train --export-index` and requires exit code RC. RC 1 means
# the model has no folded dot-product state: the refusal message must be
# on stderr and no index file written. RC 0 means the index must exist.
#
#   cmake -DCLI=path/to/pup_cli -DWORK=scratch/dir -DMODEL=deepfm -DRC=1 \
#         -P cli_export_index.cmake
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
execute_process(
  COMMAND "${CLI}" generate --out-dir "${WORK}" --preset yelp --scale 0.02
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "pup_cli generate: exit ${rc}\n${err}")
endif()
execute_process(
  COMMAND "${CLI}" train --items "${WORK}/items.csv"
          --interactions "${WORK}/interactions.csv" --model "${MODEL}"
          --epochs 1 --dim 8 --threads 1 --export-index "${WORK}/model.index"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL RC)
  message(FATAL_ERROR "pup_cli train --model ${MODEL} --export-index: "
                      "exit ${rc}, want ${RC}\n${err}")
endif()
if(RC EQUAL 1)
  if(NOT err MATCHES "no folded dot-product state")
    message(FATAL_ERROR "${MODEL}: no refusal message\n${err}")
  endif()
  if(EXISTS "${WORK}/model.index")
    message(FATAL_ERROR "${MODEL}: refused, yet wrote an index")
  endif()
elseif(NOT EXISTS "${WORK}/model.index")
  message(FATAL_ERROR "${MODEL}: exit 0 but no index written")
endif()
