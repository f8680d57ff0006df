# Run BENCH with --json=OUT, then require that it exited 0 (every claim it
# checks held) and that OUT matches the checked-in EXPECTED byte for byte.
#   cmake -DBENCH=<exe> -DOUT=<path> -DEXPECTED=<path> -P compare_json.cmake
# With -DSTDOUT=ON, BENCH runs with the arguments in ARGS (if any) instead,
# and OUT is what it prints on stdout (the examples' transcripts).
if(STDOUT)
  execute_process(COMMAND ${BENCH} ${ARGS} OUTPUT_FILE ${OUT} RESULT_VARIABLE status)
else()
  execute_process(COMMAND ${BENCH} --json=${OUT} RESULT_VARIABLE status)
endif()
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
