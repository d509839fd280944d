# Run one or more commands and require their concatenated stdout to
# match a checked-in golden file byte for byte. Invoked by ctest as:
#
#   cmake -DCMD0="<exe> <args...>" [-DCMD1="<exe> <args...>" ...] \
#         -DGOLDEN=<file> -DOUT=<scratch> -P run_golden.cmake
#
# The goldens pin the user-visible output of the figure harnesses and
# noctool on fixed seeds: any formatting, ordering or numeric drift —
# including drift introduced by a "transparent" instrumentation layer —
# fails the test. Regenerate a golden only for an intentional output
# change, by re-running the commands above it in tests/CMakeLists.txt
# and concatenating their stdout in order.

if(NOT DEFINED CMD0 OR NOT DEFINED GOLDEN OR NOT DEFINED OUT)
    message(FATAL_ERROR "run_golden.cmake needs -DCMD0, -DGOLDEN, -DOUT")
endif()

file(WRITE "${OUT}" "")
set(i 0)
while(DEFINED CMD${i})
    separate_arguments(cmd_list UNIX_COMMAND "${CMD${i}}")
    execute_process(
        COMMAND ${cmd_list}
        OUTPUT_FILE "${OUT}.part"
        ERROR_VARIABLE stderr_text
        RESULT_VARIABLE run_rc)
    if(NOT run_rc EQUAL 0)
        message(FATAL_ERROR "command failed (exit ${run_rc}): ${CMD${i}}\n"
                            "${stderr_text}")
    endif()
    file(READ "${OUT}.part" part_text)
    file(APPEND "${OUT}" "${part_text}")
    file(REMOVE "${OUT}.part")
    math(EXPR i "${i} + 1")
endwhile()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files "${GOLDEN}" "${OUT}"
    RESULT_VARIABLE same_rc)
if(NOT same_rc EQUAL 0)
    execute_process(COMMAND diff -u "${GOLDEN}" "${OUT}"
                    OUTPUT_VARIABLE diff_text)
    message(FATAL_ERROR "output differs from golden ${GOLDEN}:\n"
                        "${diff_text}")
endif()
