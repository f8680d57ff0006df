# Run BENCH with --json=OUT, then require that it exited 0 (every claim it
# checks held) and that OUT matches the checked-in EXPECTED byte for byte.
#   cmake -DBENCH=<exe> -DOUT=<path> -DEXPECTED=<path> -P compare_json.cmake
execute_process(COMMAND ${BENCH} --json=${OUT} RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with status ${status}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${EXPECTED}
                RESULT_VARIABLE differs)
if(differs)
  find_program(DIFF diff)
  if(DIFF)
    execute_process(COMMAND ${DIFF} -u ${EXPECTED} ${OUT})
  endif()
  message(FATAL_ERROR "${OUT} differs from ${EXPECTED}. If the change in "
                      "simulated results is intended, copy the new file over "
                      "the checked-in one and say why in the commit.")
endif()
