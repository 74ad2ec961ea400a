# Perf-trajectory collector (the `bench_regress` target).
#
# Runs the hand-timed kernel bench with T2C_BENCH_JSON set and wraps its
# document in one schema'd file at the repo root, so every PR can diff
# runtime numbers against the committed baseline (the t2c_perf_diff tool
# consumes two of these):
#
#   {
#     "schema": "t2c.bench.v1",
#     "benches": {
#       "bench_kernels": {
#         "build_info": {"git_sha":..., "compiler":..., ...},
#         "rows": [{"name":..., "reps":..., "min_ms":..., "mean_ms":...,
#                   "p50_ms":..., "p95_ms":..., "stddev_ms":...}, ...]
#       }
#     }
#   }
#
# (Per-bench values were bare row arrays before the min/stddev upgrade;
# t2c_perf_diff still reads that legacy form.)
#
# Invoked in script mode:
#   cmake -DBENCH_KERNELS=<exe> -DOUT_JSON=<repo>/BENCH_runtime.json
#         -DWORK_DIR=<build>/bench_regress -P tools/bench_regress.cmake

foreach(var BENCH_KERNELS OUT_JSON WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "bench_regress.cmake: ${var} not set")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORK_DIR}")

set(row_json "${WORK_DIR}/bench_kernels.json")
message(STATUS "bench_regress: running bench_kernels")
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env "T2C_BENCH_JSON=${row_json}"
          "${BENCH_KERNELS}"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE run_out
  ERROR_VARIABLE run_err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "bench_regress: bench_kernels failed (${rc})\n${run_out}\n${run_err}")
endif()
if(NOT EXISTS "${row_json}")
  message(FATAL_ERROR "bench_regress: bench_kernels wrote no ${row_json}")
endif()
file(READ "${row_json}" rows)
string(STRIP "${rows}" rows)

file(WRITE "${OUT_JSON}"
     "{\n  \"schema\": \"t2c.bench.v1\",\n  \"benches\": {\n"
     "    \"bench_kernels\": ${rows}\n  }\n}\n")
message(STATUS "bench_regress: wrote ${OUT_JSON}")
