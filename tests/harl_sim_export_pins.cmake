# CTest script: the observability exports of two small runs are pinned by
# SHA-256.  The recorder, the health monitor and the time series may change
# how they compute, never what they write: every metrics, timeseries and
# trace byte must stay as it was when these hashes were recorded.
#
#   * "multiregion": a 4-region HARL plan next to a 64K baseline, with the
#     health monitor armed and all three exports (the model-error predictor
#     prices both a RegionLayout and a VariedStripeLayout);
#   * "population": a 4-file, 2-tenant namespace with a 5 ms SLO and a GC
#     straggler, so the per-server, per-op and per-tenant health.slo.*
#     series, a straggler_flagged instant and the trace ring
#     (trace-events=) all reach the exports.
#
# A run whose exports differ prints each file's hash next to the pinned one.
# When an export is meant to change, record the new hashes in the same
# change and say why in CHANGES.md.
if(NOT DEFINED HARL_SIM OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "pass -DHARL_SIM=<binary> -DWORK_DIR=<dir>")
endif()

set(multiregion_args
  workload=multiregion procs=8 schemes=64K,harl health=1)
set(multiregion_metrics
  baadde77a681583b4b03ba45014afc24f332644c8c5c71ba675da3cecb0e142a)
set(multiregion_timeseries
  fbd5dc73156512b83510dd67f4c485954b230776f5a26f53c224d13cf2d8a960)
set(multiregion_trace
  9e76e6535b0fe6c93fc0454ce5ca666f846c193d90ed215c9d4729f12a2b66e6)

set(population_args
  files=4 tenants=2 schemes=64K,harl slo-ms=5
  gc-pause-ms=60 gc-period=0.1 gc-factor=8 trace-events=20000)
set(population_metrics
  9312526214f972b0484ac6db843290f6ee61565fc3670bcdac5030f115763728)
set(population_timeseries
  81d63a2188b41100eb7a2ddac7e0dc04579613a0bd17cd1eb95cc6ceefdd76fc)
set(population_trace
  97b489ee2592e22c9c018b562073de35f262a4ab512e60f5fbb42ade6ba2b5c9)

set(mismatches "")
foreach(run multiregion population)
  set(prefix ${WORK_DIR}/export_pins_${run})
  file(REMOVE ${prefix}_metrics.json ${prefix}_timeseries.json
       ${prefix}_trace.json)
  execute_process(
    COMMAND ${HARL_SIM} ${${run}_args}
            metrics-out=${prefix}_metrics.json
            timeseries-out=${prefix}_timeseries.json
            trace-out=${prefix}_trace.json
    OUTPUT_VARIABLE run_out
    ERROR_VARIABLE run_err
    RESULT_VARIABLE run_rc)
  if(NOT run_rc EQUAL 0)
    message(FATAL_ERROR "${run} run failed (${run_rc}): ${run_err}")
  endif()
  foreach(export metrics timeseries trace)
    set(path ${prefix}_${export}.json)
    if(NOT EXISTS ${path})
      message(FATAL_ERROR "${run} run did not write ${path}")
    endif()
    file(SHA256 ${path} hash)
    if(NOT hash STREQUAL ${run}_${export})
      string(APPEND mismatches
             "\n  ${run} ${export}: ${hash} (pinned ${${run}_${export}})")
    endif()
  endforeach()
endforeach()

if(mismatches)
  message(FATAL_ERROR "observability exports changed:${mismatches}")
endif()
message(STATUS "export pins ok: 6 exports match")
