# CTest script: the outputs of the benchmark's planning lines, and of the
# runner's collective and independent paths, are pinned by SHA-256.
#
#   * "ior": the ior-plan line (a 64K baseline next to a HARL plan of one
#     1 MiB-request region).  Its stdout and the Plan artifact it saves
#     (save-plan=) must stay byte for byte what they were when these hashes
#     were recorded, at threads=0 and at threads=4.
#   * "population": the population line (32 files of 3 rotating shapes over
#     4 tenants, a third of them sequential-IOR twins); its stdout at
#     threads=0.
#   * "btio": a 16-rank BTIO run, the runner's collective path (barriers and
#     two-phase collective writes with many extents per rank); its stdout at
#     threads=0.
#   * "ior_small": a 64-rank independent IOR run under two fixed layouts, the
#     runner's independent path without a planner; its stdout at threads=0.
#
# The plan is saved under a relative name inside WORK_DIR, so the "saved
# HARL plan ... to <file>" line of stdout does not depend on the build
# directory.  When an output is meant to change, record the new hashes in
# the same change and say why in CHANGES.md.
if(NOT DEFINED HARL_SIM OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "pass -DHARL_SIM=<binary> -DWORK_DIR=<dir>")
endif()

set(ior_args
  workload=ior procs=64 file=2G request=1M requests=64 schemes=64K,harl)
set(plan_name run_pins_ior.plan)
set(pinned_ior_stdout
  1d565cf2803e5e736344c8714ad050be596034530a28e68516384e0488fad542)
set(pinned_ior_plan
  0f3cad105dd898dff921513acdcd4b7dbf0b56e1348c56eeb2a367cdcd813071)

set(population_args files=32 tenants=4 schemes=64K,harl)
set(pinned_population_stdout
  1b8d5a20023c04b05520446b7ade5cbc98493a75ade4f44e2c9a63e2916191a3)

set(btio_args workload=btio procs=16 schemes=64K,harl)
set(pinned_btio_stdout
  d957e13319b8c631e39cb6f4351749e406318bc1c422307f0b453caf7b12dd6f)

set(ior_small_args
  workload=ior procs=64 file=1G request=256K requests=32 schemes=64K,256K)
set(pinned_ior_small_stdout
  3bccf5a17a4269929f4e05b3143dd68a0895e18adb8797743fb2e00266b59c48)

function(run_harl_sim label)
  execute_process(
    COMMAND ${HARL_SIM} ${ARGN}
    WORKING_DIRECTORY ${WORK_DIR}
    OUTPUT_VARIABLE run_out
    ERROR_VARIABLE run_err
    RESULT_VARIABLE run_rc)
  if(NOT run_rc EQUAL 0)
    message(FATAL_ERROR "${label} run failed (${run_rc}): ${run_err}")
  endif()
  string(SHA256 out_hash "${run_out}")
  set(out_hash ${out_hash} PARENT_SCOPE)
  set(run_out "${run_out}" PARENT_SCOPE)
endfunction()

set(mismatches "")
foreach(threads 0 4)
  file(REMOVE ${WORK_DIR}/${plan_name})
  run_harl_sim("ior threads=${threads}"
               ${ior_args} threads=${threads} save-plan=${plan_name})
  if(NOT EXISTS ${WORK_DIR}/${plan_name})
    message(FATAL_ERROR "ior threads=${threads} run did not write ${plan_name}")
  endif()
  file(SHA256 ${WORK_DIR}/${plan_name} plan_hash)
  if(NOT out_hash STREQUAL pinned_ior_stdout)
    string(APPEND mismatches
           "\n  ior threads=${threads} stdout: ${out_hash}"
           " (pinned ${pinned_ior_stdout})\n${run_out}")
  endif()
  if(NOT plan_hash STREQUAL pinned_ior_plan)
    string(APPEND mismatches
           "\n  ior threads=${threads} plan: ${plan_hash}"
           " (pinned ${pinned_ior_plan})")
  endif()
endforeach()

foreach(line population btio ior_small)
  run_harl_sim("${line}" ${${line}_args} threads=0)
  if(NOT out_hash STREQUAL pinned_${line}_stdout)
    string(APPEND mismatches
           "\n  ${line} stdout: ${out_hash}"
           " (pinned ${pinned_${line}_stdout})\n${run_out}")
  endif()
endforeach()

if(mismatches)
  message(FATAL_ERROR "planning-line outputs changed:${mismatches}")
endif()
message(STATUS "run pins ok: ior stdout and plan at threads=0 and 4, "
               "population, btio and ior_small stdout")
