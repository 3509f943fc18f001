# CTest script: proves the Analysis and Placing phases can run as separate
# processes through the Plan artifact.  Run 1 analyzes and saves the plan
# (`save-plan=`); run 2 loads it (`load-plan=`) without tracing or analysis.
# The loaded plan must reproduce the in-process HARL scheme's simulated
# throughput and layout exactly, through the binary and the CSV encoding.
if(NOT DEFINED HARL_SIM OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "pass -DHARL_SIM=<harl_sim binary> -DWORK_DIR=<dir>")
endif()

set(workload workload=ior procs=8 file=256M request=512K requests=24)
# Table rows: label, read MB/s, write MB/s, total MB/s, regions, detail.
set(row_pattern " +([0-9.]+) +([0-9.]+) +([0-9.]+) +([0-9]+) +(region-level[^\n]*)")

# Once through each encoding: binary, then CSV (picked by the ".csv" suffix).
foreach(plan_name harl_sim_roundtrip.plan harl_sim_roundtrip.plan.csv)
  set(plan_file ${WORK_DIR}/${plan_name})

  execute_process(
    COMMAND ${HARL_SIM} ${workload} schemes=harl save-plan=${plan_file}
    OUTPUT_VARIABLE analysis_out
    ERROR_VARIABLE analysis_err
    RESULT_VARIABLE analysis_rc)
  if(NOT analysis_rc EQUAL 0)
    message(FATAL_ERROR "analysis run failed (${analysis_rc}): ${analysis_err}")
  endif()
  if(plan_name MATCHES "\\.csv$")
    file(STRINGS ${plan_file} first_line LIMIT_COUNT 1)
    if(NOT first_line STREQUAL "harl-plan-csv-v1")
      message(FATAL_ERROR "${plan_file} is not a CSV plan: '${first_line}'")
    endif()
  endif()

  execute_process(
    COMMAND ${HARL_SIM} ${workload} schemes=64K load-plan=${plan_file}
    OUTPUT_VARIABLE placing_out
    ERROR_VARIABLE placing_err
    RESULT_VARIABLE placing_rc)
  if(NOT placing_rc EQUAL 0)
    message(FATAL_ERROR "placing run failed (${placing_rc}): ${placing_err}")
  endif()

  if(NOT analysis_out MATCHES "\nHARL${row_pattern}")
    message(FATAL_ERROR "no HARL row in analysis output:\n${analysis_out}")
  endif()
  set(harl_row "${CMAKE_MATCH_1}|${CMAKE_MATCH_2}|${CMAKE_MATCH_3}|${CMAKE_MATCH_4}|${CMAKE_MATCH_5}")

  if(NOT placing_out MATCHES "\nplan${row_pattern}")
    message(FATAL_ERROR "no plan row in placing output:\n${placing_out}")
  endif()
  set(plan_row "${CMAKE_MATCH_1}|${CMAKE_MATCH_2}|${CMAKE_MATCH_3}|${CMAKE_MATCH_4}|${CMAKE_MATCH_5}")

  if(NOT harl_row STREQUAL plan_row)
    message(FATAL_ERROR "loaded plan ${plan_name} diverged from in-process "
                        "analysis:\n  HARL: ${harl_row}\n  plan: ${plan_row}")
  endif()
  # The CSV round trip must reproduce the binary one's row exactly.
  if(DEFINED first_row AND NOT plan_row STREQUAL first_row)
    message(FATAL_ERROR "${plan_name} row differs from the binary plan's:\n"
                        "  binary: ${first_row}\n  csv: ${plan_row}")
  endif()
  set(first_row "${plan_row}")
  message(STATUS "round trip ok (${plan_name}): ${plan_row}")
endforeach()
