# Telemetry smoke gate, driven by ctest (see bench/CMakeLists.txt).
#
# For each §5 bench: run at FDBSCAN_BENCH_SCALE=0.02 with 1 worker and
# with 8 workers, validate both BENCH_*.json files against the schema,
# then diff them with tools/bench_compare.py at a 0% counter budget
# (--skip-wall: only the deterministic work counters are required to be
# bit-identical across thread counts).
#
# Then run fig4_nsweep once more with FDBSCAN_TRACE on: the emitted
# Chrome trace must pass tools/trace_summary.py --validate (balanced
# name-matched B/E pairs, monotone per-track timestamps), the summary
# must render, the traced telemetry must carry per-kernel aggregates,
# and the traced run's summed wall time must stay within 5% (+ absolute
# slack) of the untraced 8-worker run — the tracing overhead budget of
# DESIGN.md §8.
#
# Then run fig4_nsweep once more with FDBSCAN_BENCH_CANCEL_TOKEN=1 (an
# uncancelled CancelToken installed around every entry, putting the
# per-chunk cancellation polls on the measured path): counters must stay
# bit-exact and the summed wall time within 2% (+ slack) of the plain
# 8-worker run — the cancellation-overhead budget of DESIGN.md §10.
#
# service_throughput (in SERVICE_BENCHES) is additionally gated on the
# service contract: under-capacity closed loops reject nothing and build
# one index per dataset; engineered overloads reject exactly their
# overflow; terminal counts partition submitted. It also carries the
# sharded-equivalence entry (SHARD_BENCHES): --gate-shards requires
# zero equivalence failures across the worker x shard sweep and a
# nonzero halo volume, so the gate cannot pass vacuously.
#
# stream_throughput (in STREAM_BENCHES) is gated on the streaming-session
# contract (--gate-stream): every sliding-window query equivalent to a
# from-scratch run over the live set, every query after an expiry doing
# exactly that run's distance computations, and warm sub-threshold
# appends rebuilding nothing.
#
# Then run fig4_nsweep once more with the observability plane fully lit
# (FDBSCAN_LOG to a file at debug level): counters must stay bit-exact
# and the summed wall time within 2% (+ slack) of a fresh back-to-back
# plain run — the observability-overhead budget of DESIGN.md §13.
# Finally,
# tools/fdbscan_statusz.py --run spawns service_throughput, signals it
# with SIGUSR1 mid-run, and validates the dumped statusz snapshot
# (Prometheus text parses, bucket sums equal counts, terminal counts
# partition submitted).
#
# Expects: PYTHON, BENCH_DIR, COMPARE, SUMMARY, STATUSZ, WORK_DIR.

cmake_policy(SET CMP0057 NEW)  # IN_LIST operator in script mode

set(SMOKE_BENCHES
  fig4_nsweep
  fig4_minpts
  fig6_cosmo_minpts
  table_densefrac
  table_memory
  table_phases
  ablation_traversal
  service_throughput
  stream_throughput
)

# Benches whose entries share an Engine: after the 1-vs-8 diff they are
# additionally gated on the amortization contract (entries marked
# engine_warm must report 0 index_rebuilds / workspace_reallocs).
set(AMORTIZED_BENCHES fig4_minpts ablation_traversal)

# Benches carrying "service" telemetry blocks: gated on the
# ClusterService contract (tools/bench_compare.py --gate-service).
set(SERVICE_BENCHES service_throughput)

# Benches carrying a sharded-equivalence entry: gated on the sharding
# contract (tools/bench_compare.py --gate-shards) — sharded labels match
# single-engine labels at every worker x shard combination, and the
# equivalence is non-vacuous (multi-shard runs happened, halo volume
# nonzero).
set(SHARD_BENCHES service_throughput)

# Benches carrying streaming-session entries: gated on the stream
# contract (tools/bench_compare.py --gate-stream) — every streamed query
# equivalent to a from-scratch run over the live set, queries after an
# expiry doing that run's exact work, warm sub-threshold appends
# rebuilding nothing.
set(STREAM_BENCHES stream_throughput)

file(MAKE_DIRECTORY ${WORK_DIR})

foreach(bench ${SMOKE_BENCHES})
  if(NOT EXISTS ${BENCH_DIR}/${bench})
    message(FATAL_ERROR "bench_smoke: missing bench binary ${BENCH_DIR}/${bench}")
  endif()

  foreach(threads 1 8)
    set(out ${WORK_DIR}/BENCH_${bench}_t${threads}.json)
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E env
        FDBSCAN_BENCH_SCALE=0.02
        FDBSCAN_NUM_THREADS=${threads}
        FDBSCAN_BENCH_OUT=${out}
        FDBSCAN_BENCH_DATE=smoke
        ${BENCH_DIR}/${bench}
      RESULT_VARIABLE rc
      OUTPUT_VARIABLE run_out
      ERROR_VARIABLE run_err)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR
        "bench_smoke: ${bench} (threads=${threads}) exited ${rc}\n${run_out}\n${run_err}")
    endif()
    if(NOT EXISTS ${out})
      message(FATAL_ERROR
        "bench_smoke: ${bench} (threads=${threads}) wrote no telemetry file ${out}")
    endif()

    execute_process(
      COMMAND ${PYTHON} ${COMPARE} --validate ${out}
      RESULT_VARIABLE rc
      OUTPUT_VARIABLE val_out
      ERROR_VARIABLE val_err)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR
        "bench_smoke: schema validation failed for ${out}\n${val_out}\n${val_err}")
    endif()
  endforeach()

  execute_process(
    COMMAND ${PYTHON} ${COMPARE} --skip-wall
      ${WORK_DIR}/BENCH_${bench}_t1.json
      ${WORK_DIR}/BENCH_${bench}_t8.json
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE cmp_out
    ERROR_VARIABLE cmp_err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "bench_smoke: 1-vs-8 worker counter drift in ${bench}\n${cmp_out}\n${cmp_err}")
  endif()
  message(STATUS "bench_smoke: ${bench} ok\n${cmp_out}")

  if(bench IN_LIST AMORTIZED_BENCHES)
    execute_process(
      COMMAND ${PYTHON} ${COMPARE} --gate-amortized
        ${WORK_DIR}/BENCH_${bench}_t1.json
        ${WORK_DIR}/BENCH_${bench}_t8.json
      RESULT_VARIABLE rc
      OUTPUT_VARIABLE amo_out
      ERROR_VARIABLE amo_err)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR
        "bench_smoke: amortization gate failed in ${bench}\n${amo_out}\n${amo_err}")
    endif()
    message(STATUS "bench_smoke: ${bench} amortization ok\n${amo_out}")
  endif()

  if(bench IN_LIST SERVICE_BENCHES)
    execute_process(
      COMMAND ${PYTHON} ${COMPARE} --gate-service
        ${WORK_DIR}/BENCH_${bench}_t1.json
        ${WORK_DIR}/BENCH_${bench}_t8.json
      RESULT_VARIABLE rc
      OUTPUT_VARIABLE svc_out
      ERROR_VARIABLE svc_err)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR
        "bench_smoke: service gate failed in ${bench}\n${svc_out}\n${svc_err}")
    endif()
    message(STATUS "bench_smoke: ${bench} service contract ok\n${svc_out}")
  endif()

  if(bench IN_LIST SHARD_BENCHES)
    execute_process(
      COMMAND ${PYTHON} ${COMPARE} --gate-shards
        ${WORK_DIR}/BENCH_${bench}_t1.json
        ${WORK_DIR}/BENCH_${bench}_t8.json
      RESULT_VARIABLE rc
      OUTPUT_VARIABLE shd_out
      ERROR_VARIABLE shd_err)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR
        "bench_smoke: shard gate failed in ${bench}\n${shd_out}\n${shd_err}")
    endif()
    message(STATUS "bench_smoke: ${bench} shard contract ok\n${shd_out}")
  endif()

  if(bench IN_LIST STREAM_BENCHES)
    execute_process(
      COMMAND ${PYTHON} ${COMPARE} --gate-stream
        ${WORK_DIR}/BENCH_${bench}_t1.json
        ${WORK_DIR}/BENCH_${bench}_t8.json
      RESULT_VARIABLE rc
      OUTPUT_VARIABLE stm_out
      ERROR_VARIABLE stm_err)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR
        "bench_smoke: stream gate failed in ${bench}\n${stm_out}\n${stm_err}")
    endif()
    message(STATUS "bench_smoke: ${bench} stream contract ok\n${stm_out}")
  endif()
endforeach()

# --- Traced run: trace validity + telemetry aggregates + overhead gate ---

set(trace_bench fig4_nsweep)
set(trace_json ${WORK_DIR}/smoke_trace.json)
set(traced_telemetry ${WORK_DIR}/BENCH_${trace_bench}_traced.json)
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env
    FDBSCAN_BENCH_SCALE=0.02
    FDBSCAN_NUM_THREADS=8
    FDBSCAN_BENCH_OUT=${traced_telemetry}
    FDBSCAN_BENCH_DATE=smoke
    FDBSCAN_TRACE=${trace_json}
    ${BENCH_DIR}/${trace_bench}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE run_out
  ERROR_VARIABLE run_err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "bench_smoke: traced ${trace_bench} exited ${rc}\n${run_out}\n${run_err}")
endif()
if(NOT EXISTS ${trace_json})
  message(FATAL_ERROR
    "bench_smoke: traced run wrote no trace file ${trace_json}")
endif()

execute_process(
  COMMAND ${PYTHON} ${SUMMARY} --validate ${trace_json}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE val_out
  ERROR_VARIABLE val_err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "bench_smoke: trace schema validation failed for ${trace_json}\n${val_out}\n${val_err}")
endif()

execute_process(
  COMMAND ${PYTHON} ${SUMMARY} --top 5 ${trace_json}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE sum_out
  ERROR_VARIABLE sum_err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "bench_smoke: trace summary failed for ${trace_json}\n${sum_out}\n${sum_err}")
endif()
message(STATUS "bench_smoke: trace summary\n${sum_out}")

execute_process(
  COMMAND ${PYTHON} ${COMPARE} --validate ${traced_telemetry}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE val_out
  ERROR_VARIABLE val_err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "bench_smoke: schema validation failed for ${traced_telemetry}\n${val_out}\n${val_err}")
endif()
file(READ ${traced_telemetry} traced_doc)
if(NOT traced_doc MATCHES "\"kernels\":")
  message(FATAL_ERROR
    "bench_smoke: traced telemetry ${traced_telemetry} carries no per-kernel aggregates")
endif()

# Tracing-overhead gate: counters must stay bit-exact and the summed wall
# time within the §8 budget of the untraced 8-worker run.
execute_process(
  COMMAND ${PYTHON} ${COMPARE} --skip-wall --wall-sum-budget-pct 5
    ${WORK_DIR}/BENCH_${trace_bench}_t8.json
    ${traced_telemetry}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE cmp_out
  ERROR_VARIABLE cmp_err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "bench_smoke: tracing overhead gate failed for ${trace_bench}\n${cmp_out}\n${cmp_err}")
endif()
message(STATUS "bench_smoke: traced ${trace_bench} ok\n${cmp_out}")

# --- Cancellation-overhead gate ------------------------------------------
# The same bench with an (uncancelled) CancelToken installed around every
# entry: the per-chunk token polls must cost <= 2% summed wall time and
# must not perturb the deterministic work counters at all.

set(cancel_bench fig4_nsweep)
set(cancel_telemetry ${WORK_DIR}/BENCH_${cancel_bench}_cancel_token.json)
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env
    FDBSCAN_BENCH_SCALE=0.02
    FDBSCAN_NUM_THREADS=8
    FDBSCAN_BENCH_OUT=${cancel_telemetry}
    FDBSCAN_BENCH_DATE=smoke
    FDBSCAN_BENCH_CANCEL_TOKEN=1
    ${BENCH_DIR}/${cancel_bench}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE run_out
  ERROR_VARIABLE run_err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "bench_smoke: cancel-token ${cancel_bench} exited ${rc}\n${run_out}\n${run_err}")
endif()

execute_process(
  COMMAND ${PYTHON} ${COMPARE} --skip-wall --wall-sum-budget-pct 2
    ${WORK_DIR}/BENCH_${cancel_bench}_t8.json
    ${cancel_telemetry}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE cmp_out
  ERROR_VARIABLE cmp_err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "bench_smoke: cancellation overhead gate failed for ${cancel_bench}\n${cmp_out}\n${cmp_err}")
endif()
message(STATUS "bench_smoke: cancel-token ${cancel_bench} ok\n${cmp_out}")

# --- Observability-overhead gate ------------------------------------------
# The same bench with the structured log fully lit (file sink at debug
# level, so every suppressed-event check AND every emission is on the
# measured path): counters must stay bit-exact and the summed wall time
# within the 2% DESIGN.md §13 budget. A 2% wall budget is well below
# the run-to-run noise of a smoke-scale sweep, so the baseline is a
# fresh plain run taken immediately before (not the minutes-old t8
# run), and the logged run gets a best-of-2: the gate asks "is the obs
# plane's cost >2%", not "did the machine drift since the t8 pass".

set(obs_bench fig4_nsweep)
set(obs_baseline ${WORK_DIR}/BENCH_${obs_bench}_obsbase.json)
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env
    FDBSCAN_BENCH_SCALE=0.02
    FDBSCAN_NUM_THREADS=8
    FDBSCAN_BENCH_OUT=${obs_baseline}
    FDBSCAN_BENCH_DATE=smoke
    ${BENCH_DIR}/${obs_bench}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE run_out
  ERROR_VARIABLE run_err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "bench_smoke: obs-overhead baseline ${obs_bench} exited ${rc}\n${run_out}\n${run_err}")
endif()

set(obs_gate_ok FALSE)
foreach(attempt RANGE 1 2)
  set(obs_telemetry ${WORK_DIR}/BENCH_${obs_bench}_obs${attempt}.json)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env
      FDBSCAN_BENCH_SCALE=0.02
      FDBSCAN_NUM_THREADS=8
      FDBSCAN_BENCH_OUT=${obs_telemetry}
      FDBSCAN_BENCH_DATE=smoke
      FDBSCAN_LOG=${WORK_DIR}/smoke_obs_log.jsonl
      FDBSCAN_LOG_LEVEL=debug
      ${BENCH_DIR}/${obs_bench}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE run_out
    ERROR_VARIABLE run_err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "bench_smoke: obs-overhead ${obs_bench} exited ${rc}\n${run_out}\n${run_err}")
  endif()

  execute_process(
    COMMAND ${PYTHON} ${COMPARE} --skip-wall --wall-sum-budget-pct 2
      ${obs_baseline}
      ${obs_telemetry}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE cmp_out
    ERROR_VARIABLE cmp_err)
  if(rc EQUAL 0)
    set(obs_gate_ok TRUE)
    break()
  endif()
  message(STATUS
    "bench_smoke: obs-overhead attempt ${attempt} over budget, retrying\n${cmp_out}")
endforeach()
if(NOT obs_gate_ok)
  message(FATAL_ERROR
    "bench_smoke: observability overhead gate failed for ${obs_bench}\n${cmp_out}\n${cmp_err}")
endif()
message(STATUS "bench_smoke: obs-overhead ${obs_bench} ok\n${cmp_out}")

# --- Live statusz check ----------------------------------------------------
# Spawn service_throughput, SIGUSR1 it mid-run, and validate the dumped
# snapshot: Prometheus text parses, histogram bucket sums equal their
# counts, and the fdbscan_service_* terminal counters partition
# submitted (the ISSUE's acceptance criterion for the dump path).

execute_process(
  COMMAND ${PYTHON} ${STATUSZ} --run ${BENCH_DIR}/service_throughput
    --workdir ${WORK_DIR}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE stz_out
  ERROR_VARIABLE stz_err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "bench_smoke: live statusz check failed\n${stz_out}\n${stz_err}")
endif()
message(STATUS "bench_smoke: live statusz ok\n${stz_out}")
