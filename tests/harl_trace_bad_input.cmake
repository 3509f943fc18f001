# CTest script: harl_trace must reject malformed trace and Plan artifact
# files, and positional paths that are mistyped options, with one clear
# error.  Every run below must exit non-zero, and its stderr must name what
# was wrong (the line and field of a text file, the truncation or record of
# a binary one, the mistyped argument), never a bare library message
# ("stoull") or an allocation failure ("bad_alloc").
if(NOT DEFINED HARL_TRACE OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "pass -DHARL_TRACE=<binary> -DWORK_DIR=<dir>")
endif()

set(dir ${WORK_DIR}/bad_input)
file(REMOVE_RECURSE ${dir})
file(MAKE_DIRECTORY ${dir})

# expect_rejected(<command> <file> <regex>...): runs `harl_trace <command>
# <file>`; stderr must match every regex.
function(expect_rejected command file)
  execute_process(
    COMMAND ${HARL_TRACE} ${command} ${file}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(rc EQUAL 0)
    message(FATAL_ERROR "${command} accepted ${file}:\n${out}")
  endif()
  if(err MATCHES "stoull|stoul|stod|bad_alloc")
    message(FATAL_ERROR "${command} ${file}: library error leaked:\n${err}")
  endif()
  foreach(needle IN LISTS ARGN)
    if(NOT err MATCHES "${needle}")
      message(FATAL_ERROR
        "${command} ${file}: stderr lacks '${needle}':\n${err}")
    endif()
  endforeach()
endfunction()

# Trace CSV: one defect per file, each in the third line.
set(header "pid,rank,fd,op,offset,size,t_start,t_end\n")
set(good "1,0,3,read,0,4096,0,0.5\n")
set(trace_defects
  "size16x|1,0,3,read,4096,16x,1,1.5|size"
  "negative|1,0,3,read,4096,-5,1,1.5|size"
  "nan|1,0,3,read,4096,5,nan,1.5|t_start"
  "huge|1,0,3,read,4096,18446744073709551616,1,1.5|size"
  "op|1,0,3,erase,4096,5,1,1.5|op")
foreach(entry IN LISTS trace_defects)
  string(REPLACE "|" ";" parts "${entry}")
  list(GET parts 0 name)
  list(GET parts 1 row)
  list(GET parts 2 field)
  set(file ${dir}/${name}.csv)
  file(WRITE ${file} "${header}${good}${row}\n")
  foreach(command IN ITEMS stats regions)
    expect_rejected(${command} ${file} "trace CSV line 3" "${field}")
  endforeach()
endforeach()

# Plan artifact CSV: one defect per file, each in the fourth or fifth line.
set(plan_header "harl-plan-csv-v1\nfingerprint,1\ntiers,2,4\n")
set(region "region,0,4096,4096\n")
set(plan_defects
  "devnan|devtier,0,nan,1|line 4, factor"
  "devneg|devtier,0,-1,1|line 4, factor"
  "devspace|devtier,0, 1,1|line 4, factor"
  "hitinf|${region}cache,1,1,1024,64,lru,inf|line 5, hit rate"
  "negoffset|region,0,4096,4096\nregion,-4096,4096,4096|line 5, offset"
  "negstripe|region,0,-4096,4096|line 4, stripe")
foreach(entry IN LISTS plan_defects)
  string(REPLACE "|" ";" parts "${entry}")
  list(GET parts 0 name)
  list(GET parts 1 rows)
  list(GET parts 2 where)
  set(file ${dir}/${name}.plan.csv)
  file(WRITE ${file} "${plan_header}${rows}\n")
  expect_rejected(plan ${file} "plan CSV ${where}")
endforeach()

# Binary defects need NUL bytes, which CMake strings cannot hold; printf
# writes them.
find_program(PRINTF printf)
if(NOT PRINTF)
  message(FATAL_ERROR "printf not found: cannot write the binary defects")
endif()
function(write_bytes file bytes)
  execute_process(COMMAND ${PRINTF} "${bytes}" OUTPUT_FILE ${file}
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "printf failed writing ${file}")
  endif()
endfunction()

set(z4 "\\000\\000\\000\\000")
# 16 bytes: magic and a count of 2^40 records, no records.
write_bytes(${dir}/count.bin "HARLTRC1${z4}\\000\\001\\000\\000")
# One record whose op byte is 7.
write_bytes(${dir}/op7.bin
  "HARLTRC1\\001\\000\\000\\000${z4}${z4}${z4}${z4}\\007${z4}${z4}\\001${z4}\\000\\000\\000${z4}${z4}${z4}${z4}")
foreach(command IN ITEMS stats regions)
  expect_rejected(${command} ${dir}/count.bin "truncated binary trace")
  expect_rejected(${command} ${dir}/op7.bin
                  "binary trace record 0: op is not read or write")
endforeach()

# 56 bytes: a version-1 plan over tiers {6, 2} claiming 2^27 regions, with
# only the first region's offset present.
write_bytes(${dir}/regions.plan
  "HARLPLAN\\001\\000\\000\\000\\002\\000\\000\\000${z4}${z4}\\006\\000\\000\\000${z4}\\002\\000\\000\\000${z4}\\000\\000\\000\\010${z4}${z4}${z4}")
file(SIZE ${dir}/regions.plan plan_size)
if(NOT plan_size EQUAL 56)
  message(FATAL_ERROR "regions.plan is ${plan_size} bytes, not 56")
endif()
expect_rejected(plan ${dir}/regions.plan "truncated plan artifact")

# A positional path in the key=value form of an option is a mistyped option,
# not a file name: the command must fail, name the argument, and write
# nothing.
set(good_trace ${dir}/good.csv)
file(WRITE ${good_trace} "${header}${good}")
foreach(entry IN ITEMS "gen;out=t.trace" "convert;${good_trace};out=t.bin")
  list(GET entry -1 arg)
  list(JOIN entry " " call)
  execute_process(
    COMMAND ${HARL_TRACE} ${entry}
    WORKING_DIRECTORY ${dir}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(rc EQUAL 0)
    message(FATAL_ERROR "harl_trace ${call} accepted ${arg}:\n${out}")
  endif()
  string(FIND "${err}" "'${arg}' is a key=value option" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "harl_trace ${call}: stderr lacks '${arg}':\n${err}")
  endif()
  if(EXISTS ${dir}/${arg})
    message(FATAL_ERROR "harl_trace ${call} wrote a file named ${arg}")
  endif()
endforeach()

message(STATUS "bad input rejected")
