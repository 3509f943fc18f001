# CTest script: a population run on a fleet without HServers is pinned by
# SHA-256.
#
# hservers=0 leaves the HServer tier empty: it keeps tier index 0 and the
# four SServers are tier 1, in the cluster, the calibration and every plan.
# Replicas and GC pauses choose among tiers with servers only.  The table
# harl_sim prints must stay byte for byte what it was when this hash was
# recorded, at threads=0 and at threads=4.  When the output is meant to
# change, record the new hash in the same change and say why in CHANGES.md.
if(NOT DEFINED HARL_SIM OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "pass -DHARL_SIM=<binary> -DWORK_DIR=<dir>")
endif()

set(args hservers=0 sservers=4 files=3 tenants=1 procs=4 schemes=64K,harl)
set(pinned_stdout
  273f467fefbdf7c11c0ca71bf6b7b7e9129093f9ccbecee65dc327050105376e)

set(mismatches "")
foreach(threads 0 4)
  execute_process(
    COMMAND ${HARL_SIM} ${args} threads=${threads}
    WORKING_DIRECTORY ${WORK_DIR}
    OUTPUT_VARIABLE run_out
    ERROR_VARIABLE run_err
    RESULT_VARIABLE run_rc)
  if(NOT run_rc EQUAL 0)
    message(FATAL_ERROR "threads=${threads} run failed (${run_rc}): ${run_err}")
  endif()
  string(SHA256 out_hash "${run_out}")
  if(NOT out_hash STREQUAL pinned_stdout)
    string(APPEND mismatches
           "\n  threads=${threads} stdout: ${out_hash}"
           " (pinned ${pinned_stdout})\n${run_out}")
  endif()
endforeach()

if(mismatches)
  message(FATAL_ERROR "empty-tier population output changed:${mismatches}")
endif()
message(STATUS "empty-tier pin ok: stdout at threads=0 and 4")
