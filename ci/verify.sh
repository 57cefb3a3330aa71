#!/usr/bin/env bash
# Tier-1 verification: configure, build everything, run the test suite,
# record the hot-path perf trajectory (BENCH_core.json), and check that the
# public face (README, DESIGN anchors) stays in sync with the code.
#
# One entry point for every CI leg (.github/workflows/ci.yml):
#   --build-type=<Release|Debug>   default Release
#   --sanitize=<asan|tsan>         sanitizer build (own build dir)
#   --no-bench                     skip the perf smoke (Debug/sanitizer legs)
#   --quick-tests                  run `ctest -L quick` only (sanitizer legs
#                                  skip the socket/fork-heavy `slow` label)
#   --test-label=<label>           run only tests carrying a ctest label
#                                  (the lossy-link leg passes `lossy`:
#                                  fault-injection, reliability and registry
#                                  tests, including the 20%-loss parity pins)
#   --avx=<AUTO|ON|OFF>            forwarded as -DDMFSGD_ENABLE_AVX: the avx2
#                                  CI leg passes ON (configure fails rather
#                                  than silently building scalar-only)
set -euo pipefail

cd "$(dirname "$0")/.."

build_type=Release
sanitize=""
run_bench=1
avx=AUTO
test_label_args=()
for arg in "$@"; do
  case "$arg" in
    --build-type=*) build_type="${arg#*=}" ;;
    --sanitize=*)   sanitize="${arg#*=}" ;;
    --no-bench)     run_bench=0 ;;
    --quick-tests)  test_label_args=(-L quick) ;;
    --test-label=*) test_label_args=(-L "${arg#*=}") ;;
    --avx=*)        avx="${arg#*=}" ;;
    *) echo "usage: ci/verify.sh [--build-type=T] [--sanitize=asan|tsan]" \
            "[--no-bench] [--quick-tests] [--test-label=L]" \
            "[--avx=AUTO|ON|OFF]" >&2; exit 2 ;;
  esac
done

# ---------------------------------------------------------------- docs ----
# The docs checks run first: they are cheap and a missing README should fail
# fast, before a long build.  Every failure is reported — the check never
# stops at the first missing item.
docs_failures=()

if [[ ! -f README.md ]]; then
  docs_failures+=("README.md is missing")
fi

# Every example must be discoverable from the README.
if [[ -f README.md ]]; then
  for example in examples/*.cpp; do
    name=$(basename "$example")
    if ! grep -q "$name" README.md; then
      docs_failures+=("$example is not mentioned in README.md")
    fi
  done
fi

# The tracked perf record must carry every scenario and summary scalar the
# docs promise — in particular the batched-message-plane entries (DESIGN.md
# §13).  A bench refactor that silently drops a scenario would otherwise
# leave a stale record in place; ci/promote_bench.sh replaces the file only
# with artifacts that pass the same shape.  The check is on shape only:
# the recorded ann_index_build_seconds_n1m (386 s, hw_threads = 1) is the
# serial build that preceded the batched one (DESIGN.md §16), while current
# runs build over the hw-thread pool — compare values only at equal
# hw_threads until the record is regenerated.
if [[ ! -f BENCH_core.json ]]; then
  docs_failures+=("BENCH_core.json (the tracked perf record) is missing")
else
  for required in \
      '"async_drain/burst-seq' '"async_drain/coalesced-seq' \
      '"async_coalesced_event_gain"' '"async_intershard_frame_gain"' \
      '"async_pair_lookahead_window_gain"' '"sgd_update_speedup"' \
      '"async_drain_parallel_scaling"' '"async_distributed_scaling"' \
      '"coo_round_speedup"' '"round_throughput/coo-compiled' \
      '"async_drain/distributed-2proc-rawlink' \
      '"async_drain/distributed-2proc-reliable' \
      '"async_drain/distributed-2proc-lossy5' \
      '"intershard_retransmit_overhead"' \
      '"intershard_lossy_window_throughput"' \
      '"ann_query/index' '"ann_query/brute-force' \
      '"ann_recall_at_10"' '"ann_qps_speedup"' \
      '"ann_query/index/n1000000' '"ann_recall_at_10_n1m"' \
      '"ann_qps_speedup_n1m"' '"ann_index_build_seconds_n1m"' \
      '"svc_mixed/' '"svc_ingest/' '"svc_query/' \
      '"svc_mixed/n1000000' '"svc_query_parallel_scaling"' \
      '"svc_query_p50_ms"' '"svc_query_p99_ms"' \
      '"svc_ingest_throughput"' '"svc_coord_staleness"' \
      '"svc_staleness_budget"'; do
    if ! grep -qF "$required" BENCH_core.json; then
      docs_failures+=("BENCH_core.json lacks $required — regenerate with bench_bench_core (or ci/promote_bench.sh)")
    fi
  done
fi

# The ANN query plane (DESIGN.md §16) is opt-in through --index on the peer
# selection demo; the README must keep the flag discoverable.
if [[ -f README.md ]] && ! grep -q -- '--index' README.md; then
  docs_failures+=("README.md does not document the --index flag")
fi

# The fault/reliability demo flags (DESIGN.md §15) gate the multi-host story;
# the README must keep the lossy-link and rendezvous modes discoverable.
if [[ -f README.md ]]; then
  for flag in '--drop' '--reliable' '--registry' '--kill-after'; do
    if ! grep -q -- "$flag" README.md; then
      docs_failures+=("README.md does not document the $flag flag")
    fi
  done
fi

# Every "DESIGN.md §N" a source comment (or workflow file) cites must resolve
# to a real section header, so renumbering DESIGN.md can't silently strand
# references.  The first grep captures the whole citation span — including
# list forms like "DESIGN.md §6, §8, §9" — so every listed section is checked.
for section in $(grep -rhoE "DESIGN\.md §[0-9]+((, ?| and )§[0-9]+)*" \
                   src bench examples tests ci .github 2>/dev/null \
                   | grep -oE "[0-9]+" | sort -un); do
  if ! grep -qE "^## §${section}[^0-9]" DESIGN.md; then
    docs_failures+=("a code comment cites DESIGN.md §${section}, which does not exist")
  fi
done

if [[ ${#docs_failures[@]} -ne 0 ]]; then
  for failure in "${docs_failures[@]}"; do
    echo "docs check: $failure" >&2
  done
  echo "docs check failed (${#docs_failures[@]} problem(s))" >&2
  exit 1
fi
echo "docs check passed"

# ---------------------------------------------------------------- build ----
# Sanitizer builds get their own directory so a plain rebuild never links
# against instrumented objects; the default build dir stays `build`.
build_dir=build
if [[ -n "$sanitize" ]]; then
  build_dir="build-$sanitize"
fi

cmake_args=(-B "$build_dir" -S . -DCMAKE_BUILD_TYPE="$build_type"
            -DDMFSGD_SANITIZE="$sanitize" -DDMFSGD_ENABLE_AVX="$avx")
# ccache keeps the CI matrix warm; harmless to omit locally.
if command -v ccache >/dev/null 2>&1; then
  cmake_args+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi
cmake "${cmake_args[@]}"
cmake --build "$build_dir" -j"$(nproc)"
# (The empty-array guard keeps `set -u` happy on bash < 4.4.)
(cd "$build_dir" && ctest --output-on-failure -j"$(nproc)" \
   ${test_label_args[@]+"${test_label_args[@]}"})

# Perf smoke (quick tier): fused SGD kernels vs the frozen seed baseline,
# parallel full-matrix sweep, end-to-end round throughput.  Catches perf-path
# build breaks in CI.  Writes into the build dir — the tracked
# BENCH_core.json is the curated full-run trajectory record and must only be
# replaced by a deliberate full `bench_bench_core BENCH_core.json` run on a
# multi-core host, never by CI (the dedicated multi-core CI leg uploads its
# run as an artifact instead of committing it).
if [[ $run_bench -eq 1 ]]; then
  if [[ "$build_type" != Release ]]; then
    echo "note: skipping bench — build type $build_type would misrecord it" >&2
  else
    "./$build_dir/bench_bench_core" "$build_dir/BENCH_core_quick.json" --quick
    cat "$build_dir/BENCH_core_quick.json"
  fi
fi
