# CTest script: the aged-fleet calibration path is pinned by SHA-256.
#
# aging= gives the HServers and the SServers per-device speed factors, so
# calibration probes one aged device per distinct factor
# (measured_device_factors) and Algorithm 2 searches member prefixes.  The
# table harl_sim prints and the Plan artifact it saves (save-plan=) must
# stay byte for byte what they were when these hashes were recorded, at
# threads=0 and at threads=4.
#
# The plan is saved under a relative name inside WORK_DIR, so the "saved
# HARL plan ... to <file>" line of stdout does not depend on the build
# directory.  When an output is meant to change, record the new hashes in
# the same change and say why in CHANGES.md.
if(NOT DEFINED HARL_SIM OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "pass -DHARL_SIM=<binary> -DWORK_DIR=<dir>")
endif()

set(args aging=hserver=1:1:1:1:2:3,sserver=1:4 schemes=64K,harl)
set(plan_name aged_fleet_pin.plan)
set(pinned_stdout
  036e92b64d1917a21fa46c4fd31f7ac53b24f0c02f6b0dc4f4c04525e95468ac)
set(pinned_plan
  44cda05b67468dcd7141e903b3efa3eb666422a40df459101d87b6b9dcf07f2a)

set(mismatches "")
foreach(threads 0 4)
  file(REMOVE ${WORK_DIR}/${plan_name})
  execute_process(
    COMMAND ${HARL_SIM} ${args} threads=${threads} save-plan=${plan_name}
    WORKING_DIRECTORY ${WORK_DIR}
    OUTPUT_VARIABLE run_out
    ERROR_VARIABLE run_err
    RESULT_VARIABLE run_rc)
  if(NOT run_rc EQUAL 0)
    message(FATAL_ERROR "threads=${threads} run failed (${run_rc}): ${run_err}")
  endif()
  if(NOT EXISTS ${WORK_DIR}/${plan_name})
    message(FATAL_ERROR "threads=${threads} run did not write ${plan_name}")
  endif()
  string(SHA256 out_hash "${run_out}")
  file(SHA256 ${WORK_DIR}/${plan_name} plan_hash)
  if(NOT out_hash STREQUAL pinned_stdout)
    string(APPEND mismatches
           "\n  threads=${threads} stdout: ${out_hash} (pinned ${pinned_stdout})"
           "\n${run_out}")
  endif()
  if(NOT plan_hash STREQUAL pinned_plan)
    string(APPEND mismatches
           "\n  threads=${threads} plan: ${plan_hash} (pinned ${pinned_plan})")
  endif()
endforeach()

if(mismatches)
  message(FATAL_ERROR "aged-fleet outputs changed:${mismatches}")
endif()
message(STATUS "aged-fleet pin ok: stdout and plan match at threads=0 and 4")
