# CTest script: failure/rebuild-storm smoke through the real harl_sim binary.
# A 4-file, 2-tenant population run that kills the last data server at 50ms
# must (a) write the windowed time-series/health JSON at threads=4,
# (b) be byte-identical to the same run with threads=0 (serial), (c) report
# the storm on stdout — degraded reads served from replicas and rebuild
# traffic drained — and (d) pass
# `obs_report.py --timeseries --check --require-tenant`, i.e. the health
# block carries a reconciling per-tenant SLO attainment table.
# The Python validation is skipped (with a notice) when no python3 is on PATH.
if(NOT DEFINED HARL_SIM OR NOT DEFINED WORK_DIR OR NOT DEFINED OBS_REPORT)
  message(FATAL_ERROR
          "pass -DHARL_SIM=<binary> -DWORK_DIR=<dir> -DOBS_REPORT=<script>")
endif()

set(ts_pool ${WORK_DIR}/rebuild_smoke_pool.json)
set(ts_serial ${WORK_DIR}/rebuild_smoke_serial.json)
file(REMOVE ${ts_pool} ${ts_serial})

# Deterministic storm: 4 files over 2 tenants, replicated (the default),
# server 7 (last SServer of the default 4+4 cluster) dies at 50ms — early
# enough that reads and the rebuild drain contend with foreground I/O.
set(run_args
  files=4 tenants=2 procs=4 file=8M request=256K schemes=harl
  fail-server=7 fail-at=0.05 health=1 slo-ms=50)

execute_process(
  COMMAND ${HARL_SIM} ${run_args} threads=4 timeseries-out=${ts_pool}
  OUTPUT_VARIABLE run_out
  ERROR_VARIABLE run_err
  RESULT_VARIABLE run_rc)
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR "rebuild-storm run failed (${run_rc}): ${run_err}")
endif()
if(NOT EXISTS ${ts_pool})
  message(FATAL_ERROR "run did not write ${ts_pool}")
endif()
file(SIZE ${ts_pool} ts_size)
if(ts_size EQUAL 0)
  message(FATAL_ERROR "${ts_pool} is empty")
endif()

# The storm must be visible in the run summary: degraded reads actually
# happened and the rebuild moved bytes.
if(NOT run_out MATCHES "degraded read")
  message(FATAL_ERROR "no degraded reads reported:\n${run_out}")
endif()
if(NOT run_out MATCHES "rebuild [0-9]")
  message(FATAL_ERROR "no rebuild traffic reported:\n${run_out}")
endif()
if(NOT run_out MATCHES "tenant SLO attainment")
  message(FATAL_ERROR "no per-tenant SLO attainment line:\n${run_out}")
endif()

# Same storm serially: failure injection, degraded reads and rebuild
# scheduling must not depend on the pool that runs the per-file pipelines,
# so the telemetry files must be byte-identical.
execute_process(
  COMMAND ${HARL_SIM} ${run_args} threads=0 timeseries-out=${ts_serial}
  OUTPUT_VARIABLE serial_out
  ERROR_VARIABLE serial_err
  RESULT_VARIABLE serial_rc)
if(NOT serial_rc EQUAL 0)
  message(FATAL_ERROR "serial rebuild-storm run failed (${serial_rc}): "
                      "${serial_err}")
endif()
file(SHA256 ${ts_pool} pool_hash)
file(SHA256 ${ts_serial} serial_hash)
if(NOT pool_hash STREQUAL serial_hash)
  message(FATAL_ERROR "timeseries output differs between threads=4 and "
                      "the serial run:\n  ${ts_pool}\n  ${ts_serial}")
endif()

find_program(PYTHON3 NAMES python3 python)
if(NOT PYTHON3)
  message(STATUS "python3 not found; wrote, size-checked and byte-compared "
                 "${ts_pool} only")
  return()
endif()

execute_process(
  COMMAND ${PYTHON3} ${OBS_REPORT} --timeseries ${ts_pool} --require-tenant
          --check
  OUTPUT_VARIABLE check_out
  ERROR_VARIABLE check_err
  RESULT_VARIABLE check_rc)
if(NOT check_rc EQUAL 0)
  message(FATAL_ERROR "obs_report.py --check --require-tenant failed "
                      "(${check_rc}):\n${check_out}${check_err}")
endif()

message(STATUS "rebuild-storm smoke ok: ${check_out}")
