# Machine-readable bench output contract: every `--micro` bench exits 0,
# prints at least one RECORD line, and every RECORD line has the shape
# scripts/run_benches.sh parses (`RECORD <section> key=value ...`, one
# token per value). Invoked by CTest as:
#   cmake -DBENCH_DIR=<dir with the bench binaries> -P bench_record_shape.cmake
# Each failed expectation records a SEND_ERROR; cmake keeps running the
# remaining checks and exits nonzero at the end (test fails).

if(NOT BENCH_DIR)
  message(FATAL_ERROR "BENCH_DIR not set")
endif()

foreach(bench IN ITEMS bench_persistence bench_index_micro
                       bench_adaptive_convergence bench_range_pushdown)
  execute_process(
    COMMAND "${BENCH_DIR}/${bench}" --micro
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE code
    TIMEOUT 120)
  if(NOT code STREQUAL "0")
    message(SEND_ERROR "[${bench}] expected exit 0, got ${code}\n${err}")
  endif()
  # Split stdout into lines (';' would split a CMake list, so drop it).
  string(REPLACE ";" "," out "${out}")
  string(REPLACE "\n" ";" lines "${out}")
  set(records 0)
  foreach(line IN LISTS lines)
    if(line MATCHES "^RECORD")
      math(EXPR records "${records} + 1")
      if(NOT line MATCHES "^RECORD [a-z_]+( [a-z_0-9]+=[^ =]+)+$")
        message(SEND_ERROR "[${bench}] malformed record: ${line}")
      endif()
    endif()
  endforeach()
  if(records EQUAL 0)
    message(SEND_ERROR "[${bench}] printed no RECORD line\n${out}")
  endif()
  message(STATUS "[${bench}] ${records} records (exit ${code})")
endforeach()
