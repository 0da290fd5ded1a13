# Records or checks the host's huge-page configuration around the test
# suite (and around CI's paper-ledger bench runs): HugePages_Total from
# /proc/meminfo and the THP `enabled` mode. Tests and benches map from the
# pool the host already provides (provisioning is the administrator's
# step: CI's hugepages action, or `hugectl pool N`); none may resize the
# pool or switch the THP mode.
#
#   cmake -DMODE=record -DSTATE=<file> -P HostHugepageState.cmake
#   cmake -DMODE=check  -DSTATE=<file> -P HostHugepageState.cmake
#
# `check` fails, naming both states, if either value moved since `record`.

function(read_host_state out)
  set(total "absent")
  if(EXISTS /proc/meminfo)
    file(STRINGS /proc/meminfo lines REGEX "^HugePages_Total:")
    if(lines)
      string(REGEX REPLACE "^HugePages_Total:[ \t]*([0-9]+).*" "\\1" total
             "${lines}")
    endif()
  endif()
  set(thp "absent")
  set(thp_file /sys/kernel/mm/transparent_hugepage/enabled)
  if(EXISTS ${thp_file})
    file(READ ${thp_file} raw)
    string(REGEX MATCH "\\[[a-z]+\\]" thp "${raw}")
  endif()
  set(${out} "HugePages_Total=${total} thp_enabled=${thp}" PARENT_SCOPE)
endfunction()

if(NOT DEFINED STATE)
  message(FATAL_ERROR "HostHugepageState: pass -DSTATE=<file>")
endif()
read_host_state(now)
if(MODE STREQUAL "record")
  file(WRITE ${STATE} "${now}")
  message(STATUS "host huge-page state: ${now}")
elseif(MODE STREQUAL "check")
  if(NOT EXISTS ${STATE})
    message(FATAL_ERROR "HostHugepageState: no recorded state at ${STATE}")
  endif()
  file(READ ${STATE} before)
  if(NOT before STREQUAL now)
    message(FATAL_ERROR
      "the run changed the host's huge-page configuration: "
      "before [${before}], after [${now}]")
  endif()
  message(STATUS "host huge-page state unchanged: ${now}")
else()
  message(FATAL_ERROR "HostHugepageState: MODE must be record or check")
endif()
