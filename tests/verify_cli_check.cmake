# Negative-control driver for the lemons-lint CLI: run it on a
# seeded-violation config and assert that it (a) exits 1, the exit
# for error findings (2 is a usage error), and (b) emits every
# expected stable diagnostic code, as "[V002]" in the text report or
# as "code":"V002" in the --json envelope.
#
# Usage:
#   cmake -DLINT=<lemons-lint> -DCONFIG=<file.lemons>
#         -DEXPECT_CODES=V201,V202 [-DFLAGS=--analyze,--werror]
#         -P verify_cli_check.cmake
#
# FLAGS defaults to --verify; pass a comma-separated list to exercise
# other modes (e.g. --analyze,--werror for warning-severity A-codes,
# or --json).

if(NOT LINT OR NOT CONFIG OR NOT EXPECT_CODES)
    message(FATAL_ERROR "verify_cli_check.cmake needs LINT, CONFIG and "
                        "EXPECT_CODES")
endif()
if(NOT FLAGS)
    set(FLAGS "--verify")
endif()
string(REPLACE "," ";" flag_list "${FLAGS}")

execute_process(COMMAND ${LINT} ${flag_list} ${CONFIG}
                OUTPUT_VARIABLE stdout
                ERROR_VARIABLE stderr
                RESULT_VARIABLE status)

if(NOT status EQUAL 1)
    message(FATAL_ERROR "expected exit 1 from ${LINT} ${FLAGS} "
                        "${CONFIG}, got ${status}; output:\n"
                        "${stdout}${stderr}")
endif()

string(REPLACE "," ";" expected "${EXPECT_CODES}")
foreach(code IN LISTS expected)
    string(FIND "${stdout}${stderr}" "[${code}]" at)
    string(FIND "${stdout}" "\"code\":\"${code}\"" jsonAt)
    if(at EQUAL -1 AND jsonAt EQUAL -1)
        message(FATAL_ERROR "expected [${code}] in the diagnostics for "
                            "${CONFIG}; output:\n${stdout}${stderr}")
    endif()
endforeach()
