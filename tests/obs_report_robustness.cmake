# CTest script: tools/obs_report.py --check must fail CLEANLY on malformed
# input — empty files, truncated JSON, valid JSON of the wrong shape and a
# histogram with non-monotone quantiles all exit non-zero with an
# "obs_report: FAIL:" message, never a raw Python traceback (a traceback in
# CI reads as a tool crash, not a data problem).
if(NOT DEFINED WORK_DIR OR NOT DEFINED OBS_REPORT)
  message(FATAL_ERROR "pass -DWORK_DIR=<dir> -DOBS_REPORT=<script>")
endif()

find_program(PYTHON3 NAMES python3 python)
if(NOT PYTHON3)
  message(STATUS "python3 not found; skipping obs_report robustness checks")
  return()
endif()

set(bad_file ${WORK_DIR}/obs_report_bad_input.json)

# content .. expected message fragment (EMPTY marks a zero-byte file; cmake
# lists silently drop empty elements, so it cannot be spelled literally)
set(cases
  "EMPTY|Expecting value"                 # empty file
  "{\"schemes\": |Expecting value"        # truncated mid-object
  "null|must be an object"                # wrong shape: JSON null
  "[1, 2]|must be an object"              # wrong shape: list root
  "{\"no_schemes\": 1}|no schemes array"  # right shape, missing envelope
)
foreach(case IN LISTS cases)
  string(REPLACE "|" ";" parts "${case}")
  list(GET parts 0 content)
  list(GET parts 1 expect)
  if(content STREQUAL "EMPTY")
    set(content "")
  endif()
  file(WRITE ${bad_file} "${content}")
  foreach(mode metrics timeseries)
    if(mode STREQUAL "metrics")
      set(cmd ${PYTHON3} ${OBS_REPORT} ${bad_file} --check)
    else()
      set(cmd ${PYTHON3} ${OBS_REPORT} --timeseries ${bad_file} --check)
    endif()
    execute_process(
      COMMAND ${cmd}
      OUTPUT_VARIABLE out
      ERROR_VARIABLE err
      RESULT_VARIABLE rc)
    set(all "${out}${err}")
    if(rc EQUAL 0)
      message(FATAL_ERROR
              "obs_report accepted malformed ${mode} input '${content}'")
    endif()
    if(all MATCHES "Traceback")
      message(FATAL_ERROR "obs_report crashed with a traceback on "
                          "'${content}' (${mode}):\n${all}")
    endif()
    if(NOT all MATCHES "obs_report: FAIL")
      message(FATAL_ERROR "obs_report failed without a clear FAIL message "
                          "on '${content}' (${mode}):\n${all}")
    endif()
    if(NOT all MATCHES "${expect}")
      message(FATAL_ERROR "obs_report error for '${content}' (${mode}) "
                          "lacks '${expect}':\n${all}")
    endif()
  endforeach()
endforeach()

# A histogram series is a quantile sketch too: well-formed JSON whose
# histogram reports p95 < p50 must fail the monotonicity check sketches get.
file(WRITE ${bad_file} [=[
{"schemes": [{"label": "HARL", "report": {"metrics": [
  {"name": "request.t_t", "type": "histogram", "labels": {}, "count": 2,
   "sum": 3, "min": 1, "max": 2, "mean": 1.5, "p50": 1.9, "p95": 1.2,
   "p99": 2, "buckets": [[1, 1.03125, 1], [2, 2.0625, 1]]}]}}]}
]=])
execute_process(
  COMMAND ${PYTHON3} ${OBS_REPORT} ${bad_file} --check
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
set(all "${out}${err}")
if(rc EQUAL 0 OR all MATCHES "Traceback" OR
   NOT all MATCHES "obs_report: FAIL: .*histogram quantiles not monotone")
  message(FATAL_ERROR "non-monotone histogram quantiles not rejected with "
                      "a clear FAIL message:\n${all}")
endif()

# A missing file is an OSError, not a traceback, either.
execute_process(
  COMMAND ${PYTHON3} ${OBS_REPORT} ${WORK_DIR}/does_not_exist.json --check
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(rc EQUAL 0 OR "${out}${err}" MATCHES "Traceback")
  message(FATAL_ERROR "missing metrics file not handled cleanly:\n${out}${err}")
endif()

file(REMOVE ${bad_file})
message(STATUS "obs_report rejects malformed input with clean FAIL messages")
