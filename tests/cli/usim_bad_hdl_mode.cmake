# usim must reject an unknown --hdl-mode with exit code 2 and name the valid
# modes. `codegen` is checked by name: it was once an executor, so a stale
# script may still pass it.
#
# Usage: cmake -DUSIM=<path to usim> -DNETLIST=<any netlist> -P usim_bad_hdl_mode.cmake
foreach(mode codegen fast)
  execute_process(COMMAND "${USIM}" "${NETLIST}" "--hdl-mode=${mode}"
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "--hdl-mode=${mode}: expected exit 2, got ${rc}\n${out}${err}")
  endif()
  if(NOT err MATCHES "bad --hdl-mode '${mode}' \\(ast\\|bytecode\\)")
    message(FATAL_ERROR "--hdl-mode=${mode}: unexpected message:\n${err}")
  endif()
endforeach()
