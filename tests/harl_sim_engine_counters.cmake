# CTest script: pins the event engine's counters through the real harl_sim
# binary.  How pending events are routed inside the simulator (resource
# lanes, generic lanes, heap) is free to change; what it dispatches is not.
# `events` and `peak queue` (every pending event, lane backlog included) of
# each measured run must stay exactly these values.
if(NOT DEFINED HARL_SIM)
  message(FATAL_ERROR "pass -DHARL_SIM=<harl_sim binary>")
endif()

# expect_counters(<args> <label> <events> <peak> [<label> <events> <peak>]...)
function(expect_counters args)
  separate_arguments(run_args UNIX_COMMAND "${args}")
  execute_process(
    COMMAND ${HARL_SIM} ${run_args} seed=7 threads=0 stats=1
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "harl_sim ${args} failed (${rc}): ${err}")
  endif()
  string(FIND "${out}" "== event engine (measured runs) ==" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "no engine stats table for ${args}:\n${out}")
  endif()
  string(SUBSTRING "${out}" ${at} -1 table)
  set(expected ${ARGN})
  list(LENGTH expected n)
  math(EXPR last "${n} - 1")
  foreach(i RANGE 0 ${last} 3)
    math(EXPR j "${i} + 1")
    math(EXPR k "${i} + 2")
    list(GET expected ${i} label)
    list(GET expected ${j} events)
    list(GET expected ${k} peak)
    if(NOT table MATCHES "\n${label} +${events} +${peak} ")
      message(FATAL_ERROR
              "${args}: expected ${label} events=${events} "
              "peak queue=${peak}:\n${table}")
    endif()
  endforeach()
endfunction()

expect_counters(
  "workload=ior procs=4 file=64M request=512K requests=8 schemes=64K,harl"
  64K 1552 32 HARL 1552 32)
expect_counters("files=32 tenants=4 schemes=64K,harl"
  64K 147804 2001 HARL 276324 3518)
