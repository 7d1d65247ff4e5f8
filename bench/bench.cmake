# Bench binaries land directly in build/bench/ (and nothing else does), so
# `for b in build/bench/*; do $b; done` runs every table/figure harness.
set(NUMAPROF_BENCH_DIR ${CMAKE_BINARY_DIR}/bench)

function(numaprof_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE numaprof_apps numaprof_core numaprof_osopt)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${NUMAPROF_BENCH_DIR})
endfunction()

numaprof_bench(table1_sampling_config)
numaprof_bench(table2_overhead)
numaprof_bench(fig1_distributions)
numaprof_bench(fig2_firsttouch)
numaprof_bench(fig3_lulesh)
numaprof_bench(lulesh_power7_mrk)
numaprof_bench(fig4_7_amg)
numaprof_bench(fig8_9_blackscholes)
numaprof_bench(fig10_umt)
numaprof_bench(speedup_summary)
numaprof_bench(ablation_bins)
numaprof_bench(ablation_context)
numaprof_bench(ablation_lpi_threshold)
numaprof_bench(trace_timeline)
numaprof_bench(ablation_fabric)
numaprof_bench(ablation_schedule)
numaprof_bench(ablation_os_migration)
numaprof_bench(micro_merge)
numaprof_bench(export_throughput)
numaprof_bench(ingest_throughput)
target_link_libraries(ingest_throughput PRIVATE numaprof_ingest)

numaprof_bench(micro_tool_paths)

# matrix_kernels has a custom main (BENCH lines + BENCH_matrix.json
# aggregate, broken-vs-fixed validity gate); it shares the grid cell
# recipe with tests/matrix_grid_test.cpp via tests/matrix_support.hpp.
add_executable(matrix_kernels ${CMAKE_SOURCE_DIR}/bench/matrix_kernels.cpp)
target_link_libraries(matrix_kernels PRIVATE numaprof_apps numaprof_core)
target_include_directories(matrix_kernels PRIVATE ${CMAKE_SOURCE_DIR}/tests)
set_target_properties(matrix_kernels PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${NUMAPROF_BENCH_DIR})

# micro_io has a custom main (BENCH lines + BENCH_io.json aggregate,
# Analyzer-report validity gate over every load path).
add_executable(micro_io ${CMAKE_SOURCE_DIR}/bench/micro_io.cpp)
target_link_libraries(micro_io PRIVATE numaprof_apps numaprof_core)
set_target_properties(micro_io PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${NUMAPROF_BENCH_DIR})

# monitor_refresh has a custom main (BENCH lines + BENCH_monitor.json
# aggregate, determinism/frame-shape validity gates).
add_executable(monitor_refresh ${CMAKE_SOURCE_DIR}/bench/monitor_refresh.cpp)
target_link_libraries(monitor_refresh PRIVATE
  numaprof_apps numaprof_core numaprof_monitor)
set_target_properties(monitor_refresh PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${NUMAPROF_BENCH_DIR})

# micro_lint has a custom main (BENCH lines + BENCH_lint.json aggregate,
# validity-checked lint_paths/cache runs).
add_executable(micro_lint ${CMAKE_SOURCE_DIR}/bench/micro_lint.cpp)
target_link_libraries(micro_lint PRIVATE numaprof_lint)
set_target_properties(micro_lint PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${NUMAPROF_BENCH_DIR})
