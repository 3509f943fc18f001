# CTest script: telemetry-plane smoke through the real harl_sim binary.
# A GC-pause straggler run with `health=1 timeseries-out=` at threads=4
# must (a) write the windowed time-series/health JSON, (b) be byte-identical
# to the same run with threads=0 (serial), and (c) pass
# `obs_report.py --timeseries --check --require-health` — i.e. at least one
# server is flagged and the SLO regression localizes to the injected server.
# A third run adds `metrics-out=` and `trace-out=` to the same recipe: its
# time series must be byte-identical to the health-only run, its metrics
# must carry the health.* families and its trace the straggler instants.
# The Python validation and the HTML dashboard are skipped (with a notice)
# when no python3 is on PATH.
if(NOT DEFINED HARL_SIM OR NOT DEFINED WORK_DIR OR NOT DEFINED OBS_REPORT)
  message(FATAL_ERROR
          "pass -DHARL_SIM=<binary> -DWORK_DIR=<dir> -DOBS_REPORT=<script>")
endif()

set(ts_pool ${WORK_DIR}/telemetry_smoke_pool.json)
set(ts_serial ${WORK_DIR}/telemetry_smoke_serial.json)
set(ts_all ${WORK_DIR}/telemetry_smoke_all.json)
set(metrics_all ${WORK_DIR}/telemetry_smoke_metrics.json)
set(trace_all ${WORK_DIR}/telemetry_smoke_trace.json)
set(dashboard ${WORK_DIR}/telemetry_smoke_dashboard.html)
file(REMOVE ${ts_pool} ${ts_serial} ${ts_all} ${metrics_all} ${trace_all}
     ${dashboard})

# Deterministic straggler: server 0 spends 60ms of every 100ms in GC at 8x
# service time, the 5ms SLO separates its submissions from the fleet's.
set(run_args
  workload=ior procs=8 requests=64 schemes=harl
  gc-pause-ms=60 gc-period=0.1 gc-factor=8 gc-server=0
  slo-ms=5 health=1)

execute_process(
  COMMAND ${HARL_SIM} ${run_args} threads=4 timeseries-out=${ts_pool}
  OUTPUT_VARIABLE run_out
  ERROR_VARIABLE run_err
  RESULT_VARIABLE run_rc)
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR "telemetry run failed (${run_rc}): ${run_err}")
endif()
if(NOT EXISTS ${ts_pool})
  message(FATAL_ERROR "run did not write ${ts_pool}")
endif()
file(SIZE ${ts_pool} ts_size)
if(ts_size EQUAL 0)
  message(FATAL_ERROR "${ts_pool} is empty")
endif()

# The summary table must still appear on stdout: telemetry is additive.
if(NOT run_out MATCHES "HARL")
  message(FATAL_ERROR "telemetry run lost its normal output:\n${run_out}")
endif()

# Same run serially: the telemetry export must not depend on the pool that
# runs the planner and the measured runs, so the two files must be
# byte-identical.
execute_process(
  COMMAND ${HARL_SIM} ${run_args} threads=0 timeseries-out=${ts_serial}
  OUTPUT_VARIABLE serial_out
  ERROR_VARIABLE serial_err
  RESULT_VARIABLE serial_rc)
if(NOT serial_rc EQUAL 0)
  message(FATAL_ERROR "serial telemetry run failed (${serial_rc}): ${serial_err}")
endif()
file(SHA256 ${ts_pool} pool_hash)
file(SHA256 ${ts_serial} serial_hash)
if(NOT pool_hash STREQUAL serial_hash)
  message(FATAL_ERROR "timeseries output differs between threads=4 and "
                      "the serial run:\n  ${ts_pool}\n  ${ts_serial}")
endif()

# Same run with every export: the health monitor lives inside the recorder,
# so adding metrics-out= and trace-out= must leave the time series as it
# was, and both exports must show what the monitor found.
execute_process(
  COMMAND ${HARL_SIM} ${run_args} threads=4 timeseries-out=${ts_all}
          metrics-out=${metrics_all} trace-out=${trace_all}
  OUTPUT_VARIABLE all_out
  ERROR_VARIABLE all_err
  RESULT_VARIABLE all_rc)
if(NOT all_rc EQUAL 0)
  message(FATAL_ERROR "all-exports telemetry run failed (${all_rc}): "
                      "${all_err}")
endif()
file(SHA256 ${ts_all} all_hash)
if(NOT all_hash STREQUAL pool_hash)
  message(FATAL_ERROR "timeseries output changes when metrics-out= and "
                      "trace-out= are added:\n  ${ts_pool}\n  ${ts_all}")
endif()
file(READ ${metrics_all} metrics_json)
foreach(family "health.straggler_flagged" "health.slo.")
  string(FIND "${metrics_json}" "\"${family}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${metrics_all} lacks the ${family} metrics")
  endif()
endforeach()
file(READ ${trace_all} trace_json)
string(FIND "${trace_json}" "\"name\": \"straggler_flagged\"" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${trace_all} lacks a straggler_flagged instant")
endif()

find_program(PYTHON3 NAMES python3 python)
if(NOT PYTHON3)
  message(STATUS "python3 not found; wrote, size-checked and byte-compared "
                 "${ts_pool} only")
  return()
endif()

execute_process(
  COMMAND ${PYTHON3} ${OBS_REPORT} --timeseries ${ts_pool} --require-health
          --html ${dashboard} --check
  OUTPUT_VARIABLE check_out
  ERROR_VARIABLE check_err
  RESULT_VARIABLE check_rc)
if(NOT check_rc EQUAL 0)
  message(FATAL_ERROR "obs_report.py --check --require-health failed "
                      "(${check_rc}):\n${check_out}${check_err}")
endif()

# The self-contained dashboard must exist and actually contain the charts.
if(NOT EXISTS ${dashboard})
  message(FATAL_ERROR "obs_report did not write ${dashboard}")
endif()
file(READ ${dashboard} dash_html)
if(NOT dash_html MATCHES "<svg" OR NOT dash_html MATCHES "FLAGGED")
  message(FATAL_ERROR "dashboard lacks charts or the flagged-server table:\n"
                      "${dashboard}")
endif()

message(STATUS "telemetry smoke ok: ${check_out}")
