# CTest script: Algorithm 1 explainability smoke through the real harl_trace
# binary.  `gen` produces a synthetic trace, `divide` re-runs region division
# on it with a tight threshold + chunk cap so the run exercises threshold
# tuning, prints the split-point and region tables, and dumps the full
# per-request CV trajectory as CSV (one row per trace record plus header).
if(NOT DEFINED HARL_TRACE OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "pass -DHARL_TRACE=<binary> -DWORK_DIR=<dir>")
endif()

set(trace_file ${WORK_DIR}/divide_smoke_trace.bin)
set(csv_file ${WORK_DIR}/divide_smoke_cv.csv)
file(REMOVE ${trace_file} ${csv_file})

execute_process(
  COMMAND ${HARL_TRACE} gen ${trace_file} requests=2000 file=512M min=4K
          max=2M seed=7
  RESULT_VARIABLE gen_rc
  ERROR_VARIABLE gen_err)
if(NOT gen_rc EQUAL 0)
  message(FATAL_ERROR "harl_trace gen failed (${gen_rc}): ${gen_err}")
endif()

execute_process(
  COMMAND ${HARL_TRACE} divide ${trace_file} threshold=0.1 chunk=8M
          csv=${csv_file}
  OUTPUT_VARIABLE div_out
  ERROR_VARIABLE div_err
  RESULT_VARIABLE div_rc)
if(NOT div_rc EQUAL 0)
  message(FATAL_ERROR "harl_trace divide failed (${div_rc}): ${div_err}")
endif()

foreach(needle IN ITEMS "region\\(s\\)" "tuning round" "split points"
        "region boundaries")
  if(NOT div_out MATCHES "${needle}")
    message(FATAL_ERROR "divide output missing '${needle}':\n${div_out}")
  endif()
endforeach()

# A misspelled key must be rejected by name, not silently ignored.
execute_process(
  COMMAND ${HARL_TRACE} regions ${trace_file} threshhold=2
  OUTPUT_VARIABLE typo_out
  ERROR_VARIABLE typo_err
  RESULT_VARIABLE typo_rc)
if(typo_rc EQUAL 0 OR NOT typo_err MATCHES "threshhold")
  message(FATAL_ERROR "regions accepted or did not name the unknown key "
                      "'threshhold' (${typo_rc}):\n${typo_out}${typo_err}")
endif()

if(NOT EXISTS ${csv_file})
  message(FATAL_ERROR "divide did not write ${csv_file}")
endif()
file(STRINGS ${csv_file} csv_lines)
list(LENGTH csv_lines csv_len)
list(GET csv_lines 0 csv_header)
if(NOT csv_header STREQUAL "index,offset,size,cv,relative_change,split")
  message(FATAL_ERROR "unexpected CSV header: ${csv_header}")
endif()
# Header + one trajectory sample per trace record.
if(NOT csv_len EQUAL 2001)
  message(FATAL_ERROR "expected 2001 CSV lines, got ${csv_len}")
endif()

# The trajectory must mark at least one split (last column 1) when the run
# reports more than one region.
if(div_out MATCHES "-> 1 region")
  message(FATAL_ERROR "smoke config should split the trace:\n${div_out}")
endif()
set(found_split FALSE)
foreach(line IN LISTS csv_lines)
  if(line MATCHES ",1$")
    set(found_split TRUE)
    break()
  endif()
endforeach()
if(NOT found_split)
  message(FATAL_ERROR "no split markers in ${csv_file}")
endif()
message(STATUS "divide smoke ok")
