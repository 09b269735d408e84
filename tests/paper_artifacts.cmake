# Regenerates every sweep-backed paper artifact with
# `qcarch sweep specs/<spec>.json` and compares each output byte for
# byte against the committed BENCH_*.json trajectory. Every mismatch
# is reported (SEND_ERROR) and makes the script exit non-zero.
#
#   cmake -DQCARCH=<qcarch> -DSOURCE_DIR=<repo> -DWORK_DIR=<scratch>
#         -P tests/paper_artifacts.cmake

# spec name = committed trajectory suffix (BENCH_<suffix>.json)
set(artifacts
    fig15_arch=fig15_arch
    fig8_throughput=fig8_throughput
    level2_scaling=level2
    fig4_grid=fig4_sweep
    paper_tables=paper_tables
    fig4_paper=fig4_paper
    fig16_tiles=fig16_tiles)

file(MAKE_DIRECTORY ${WORK_DIR})
foreach(pair ${artifacts})
  string(REPLACE "=" ";" pair "${pair}")
  list(GET pair 0 spec)
  list(GET pair 1 bench)
  set(out ${WORK_DIR}/BENCH_${bench}.json)
  execute_process(
    COMMAND ${QCARCH} sweep ${SOURCE_DIR}/specs/${spec}.json
            --threads 4 --quiet --out ${out}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(SEND_ERROR "qcarch sweep specs/${spec}.json exited ${rc}")
    continue()
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${SOURCE_DIR}/BENCH_${bench}.json ${out}
    RESULT_VARIABLE differs)
  if(differs)
    message(SEND_ERROR
            "specs/${spec}.json no longer reproduces "
            "BENCH_${bench}.json byte for byte (see ${out})")
  else()
    message(STATUS "specs/${spec}.json == BENCH_${bench}.json")
  endif()
endforeach()
