# Runs `cxlalloc_inspect --list-points` and checks the inventory: the
# tool exits 0, every line is id<TAB>kind<TAB>name<TAB>site, ids are
# unique, and each kind has the expected number of points.
#
#   cmake -DINSPECT=<cxlalloc_inspect> -DCRASH=27 -DFAULT=5 -DDEFECT=5 \
#         -P check_list_points.cmake

execute_process(COMMAND ${INSPECT} --list-points
                OUTPUT_VARIABLE out RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "--list-points exited with status ${status}")
endif()

string(REGEX MATCHALL "[^\n]+" lines "${out}")
set(ids)
foreach(kind crash fault defect)
    set(count_${kind} 0)
endforeach()
foreach(line IN LISTS lines)
    string(REPLACE "\t" ";" fields "${line}")
    list(LENGTH fields nfields)
    if(NOT nfields EQUAL 4)
        message(FATAL_ERROR "malformed line: ${line}")
    endif()
    list(GET fields 0 id)
    list(GET fields 1 kind)
    if(NOT DEFINED count_${kind})
        message(FATAL_ERROR "unknown kind '${kind}' in: ${line}")
    endif()
    list(APPEND ids ${id})
    math(EXPR count_${kind} "${count_${kind}} + 1")
endforeach()

set(unique ${ids})
list(REMOVE_DUPLICATES unique)
list(LENGTH ids nids)
list(LENGTH unique nunique)
if(NOT nids EQUAL nunique)
    message(FATAL_ERROR "duplicate ids in: ${ids}")
endif()

foreach(kind crash fault defect)
    string(TOUPPER ${kind} expected)
    if(NOT count_${kind} EQUAL ${${expected}})
        message(FATAL_ERROR
                "${count_${kind}} ${kind} points listed, expected ${${expected}}")
    endif()
endforeach()
message(STATUS "${nids} points: ${count_crash} crash, ${count_fault} fault, "
               "${count_defect} defect")
