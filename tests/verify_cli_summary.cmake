# lemons-lint prints one summary line per file, led by the file name.
# A name carrying control bytes must reach the terminal as \xNN, the
# escaping the diagnostic lines use, never as the raw bytes: an ESC
# among them would drive the reader's terminal.
#
# Usage:
#   cmake -DLINT=<lemons-lint> -DWORKDIR=<scratch dir>
#         -P verify_cli_summary.cmake

if(NOT LINT OR NOT WORKDIR)
    message(FATAL_ERROR "verify_cli_summary.cmake needs LINT and WORKDIR")
endif()

string(ASCII 27 esc)
set(spec "${WORKDIR}/summary${esc}[2J.lemons")
file(WRITE "${spec}" "[design]\nalpha = 10\nbeta = 12\nlab = 91250\n")

execute_process(COMMAND ${LINT} ${spec}
                OUTPUT_VARIABLE stdout
                ERROR_VARIABLE stderr
                RESULT_VARIABLE status)
file(REMOVE "${spec}")

if(NOT status EQUAL 0)
    message(FATAL_ERROR "expected exit 0, got ${status}:\n${stdout}${stderr}")
endif()
string(FIND "${stdout}" "${esc}" raw)
if(NOT raw EQUAL -1)
    message(FATAL_ERROR "raw ESC byte in the summary line")
endif()
string(FIND "${stdout}" "summary\\x1b[2J.lemons: 0 error(s), 0 warning(s)"
       escaped)
if(escaped EQUAL -1)
    message(FATAL_ERROR "expected the file name as summary\\x1b[2J.lemons "
                        "in the summary line; got:\n${stdout}")
endif()
