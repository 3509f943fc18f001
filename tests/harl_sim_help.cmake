# CTest script: pins `harl_sim help` to the option table the binary actually
# parses.  usage() prints the same kOptions rows that parse and validate the
# arguments, so drift inside the binary is structurally impossible; this test
# guards the remaining seams: every documented key must appear in the help
# text as `key=`, and an unknown key must be rejected with a pointer to help
# rather than silently ignored (the pre-table behavior).
if(NOT DEFINED HARL_SIM)
  message(FATAL_ERROR "pass -DHARL_SIM=<harl_sim binary>")
endif()

execute_process(
  COMMAND ${HARL_SIM} help
  OUTPUT_VARIABLE help_out
  ERROR_VARIABLE help_err
  RESULT_VARIABLE help_rc)
if(NOT help_rc EQUAL 0)
  message(FATAL_ERROR "harl_sim help failed (${help_rc}): ${help_err}")
endif()

# Every key the binary parses, including the observability flags.  The
# usage table prints each key at the start of its own (indented) line.
set(known_keys
  workload procs request file requests coverage drift drift-factor
  zipf-theta zipf-reads zipf-phases grid dumps
  hservers sservers clients device-spread aging device-blind
  schemes cache-budget cache-devices cache-chunk cache-policy cache-blind
  seed threads stats
  save-plan load-plan metrics-out trace-out trace-events
  timeseries-out timeseries-interval health slo-ms
  gc-pause-ms gc-period gc-factor gc-server
  files tenants zipf-tenant-theta replicas fail-server fail-at)
foreach(key IN LISTS known_keys)
  if(NOT help_out MATCHES "\n +${key} ")
    message(FATAL_ERROR "help output is missing documented key '${key}':\n"
                        "${help_out}")
  endif()
endforeach()

# Unknown keys must be an error that names the option and points at help.
execute_process(
  COMMAND ${HARL_SIM} workload=ior no-such-option=1
  OUTPUT_VARIABLE bogus_out
  ERROR_VARIABLE bogus_err
  RESULT_VARIABLE bogus_rc)
if(bogus_rc EQUAL 0)
  message(FATAL_ERROR "harl_sim accepted an unknown option")
endif()
if(NOT "${bogus_out}${bogus_err}" MATCHES "no-such-option")
  message(FATAL_ERROR "unknown-option error does not name the bad key:\n"
                      "${bogus_out}${bogus_err}")
endif()

# The rejection must list the valid keys so a typo like `cache-buget=` is a
# guided error, not a silent fall-through.  Every documented key must appear
# in the suggestion list.
execute_process(
  COMMAND ${HARL_SIM} workload=ior cache-buget=64M
  OUTPUT_VARIABLE typo_out
  ERROR_VARIABLE typo_err
  RESULT_VARIABLE typo_rc)
if(typo_rc EQUAL 0)
  message(FATAL_ERROR "harl_sim accepted the misspelled key 'cache-buget'")
endif()
set(typo_all "${typo_out}${typo_err}")
if(NOT typo_all MATCHES "valid keys")
  message(FATAL_ERROR "unknown-option error does not list valid keys:\n"
                      "${typo_all}")
endif()
foreach(key IN LISTS known_keys)
  if(NOT typo_all MATCHES "${key}")
    message(FATAL_ERROR "valid-keys list is missing '${key}':\n${typo_all}")
  endif()
endforeach()

# Configs the model cannot honour must fail and name the offending key:
# a failure without replicas (the dead server would keep serving), more
# tenants than files, a tenant skew that leaves a tenant without a file
# (matched by its message), and a GC pause with no cycle.  So must malformed
# values: trailing characters, negative counts, a negative rand seed, a
# non-number, and a negative device factor, and the keys and scheme of the
# deleted adaptive re-layout (DESIGN.md §11).  Each entry is
# "<expected key>|<args...>" with args separated by spaces.
set(bad_configs
  "replicas|files=4 replicas=0 fail-server=2 fail-at=0.01"
  "tenants|files=2 tenants=4"
  "would own no file|files=4 tenants=4 zipf-tenant-theta=3"
  "gc-period|gc-pause-ms=60 gc-period=0"
  "procs|procs=16x"
  "hservers|hservers=-1"
  "schemes|schemes=rand-1"
  "threads|threads=abc"
  "aging|aging=hserver=1:-2:1:1:1:1"
  "adapt|adapt=1"
  "migrate-bw|migrate-bw=1M"
  "harl-adaptive|schemes=harl-adaptive")
foreach(entry IN LISTS bad_configs)
  string(REPLACE "|" ";" parts "${entry}")
  list(GET parts 0 bad_key)
  list(GET parts 1 bad_args)
  separate_arguments(bad_args)
  execute_process(
    COMMAND ${HARL_SIM} ${bad_args} schemes=64K requests=8
    OUTPUT_VARIABLE bad_out
    ERROR_VARIABLE bad_err
    RESULT_VARIABLE bad_rc)
  if(bad_rc EQUAL 0)
    message(FATAL_ERROR "harl_sim accepted the bad config '${entry}'")
  endif()
  if(NOT bad_err MATCHES "${bad_key}")
    message(FATAL_ERROR "error for '${entry}' does not name '${bad_key}':\n"
                        "${bad_out}${bad_err}")
  endif()
endforeach()

list(LENGTH known_keys n_keys)
message(STATUS "help lists all ${n_keys} documented keys; unknown keys "
               "rejected")
