# Runs a command and checks its exit status and output:
#
#   cmake -DCOMMAND="<exe>;<arg>;..." -DSTATUS=<n> -DMATCH=<regex> \
#         -P expect_exit.cmake
#
# Fails unless the command exits with STATUS and its combined stdout and
# stderr match MATCH (a gate that must refuse an input exits nonzero for
# the stated reason, not for any reason).

execute_process(COMMAND ${COMMAND}
                OUTPUT_VARIABLE out ERROR_VARIABLE err
                RESULT_VARIABLE status)
if(NOT status EQUAL STATUS)
    message(FATAL_ERROR "exit status ${status}, expected ${STATUS}:\n"
                        "${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "${MATCH}")
    message(FATAL_ERROR "output does not match '${MATCH}':\n${out}${err}")
endif()
