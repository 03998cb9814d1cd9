#!/usr/bin/env bash
# Data-race check for the parallel pipeline: build with ThreadSanitizer and
# run the concurrency-sensitive suites (pool semantics + cross-thread-count
# determinism, plus the core pipeline tests that exercise every parallel
# stage, plus the 1-vs-8-thread solver determinism sweep for the
# wave-parallel k-MCA-CC branch-and-bound). Any TSan report fails the run
# (halt_on_error).
#
# Usage: scripts/check.sh [build-dir]     (default: build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

# --- Service-layer lint (always on; no build needed). New code must use
# Status/StatusOr on fallible paths, not bool+out-param errors, and must
# never call std::abort() outside the AUTOBI_CHECK machinery itself.
lint_fail=0
if grep -rnE 'bool [A-Za-z_]+\([^)]*std::string\* *error' src/*/*.h; then
  echo "check.sh: LINT FAIL — bool+std::string* error out-param signature;" \
       "use Status/StatusOr (common/status.h) instead." >&2
  lint_fail=1
fi
if grep -rn 'std::abort()' src --include='*.cc' --include='*.h' \
    | grep -v 'src/common/check.h'; then
  echo "check.sh: LINT FAIL — bare std::abort() outside common/check.h;" \
       "use AUTOBI_CHECK for invariants or return a Status." >&2
  lint_fail=1
fi
[[ "$lint_fail" == "0" ]] || exit 1
echo "check.sh: service-layer lint clean."

# --- Docs lint (always on; no build needed). Two rules:
#   1. Every src/<subsystem>/ directory must be named in the ARCHITECTURE.md
#      module map, so the map cannot silently go stale.
#   2. Relative *.md links in top-level markdown must resolve to real files.
docs_fail=0
for dir in src/*/; do
  name="$(basename "$dir")"
  if ! grep -q "src/$name" ARCHITECTURE.md; then
    echo "check.sh: DOCS FAIL — src/$name/ is not mentioned in" \
         "ARCHITECTURE.md; add it to the module map." >&2
    docs_fail=1
  fi
done
while IFS=: read -r file link; do
  target="${link%%#*}"
  [[ -z "$target" ]] && continue
  if [[ ! -e "$(dirname "$file")/$target" ]]; then
    echo "check.sh: DOCS FAIL — dead link '$link' in $file." >&2
    docs_fail=1
  fi
done < <(grep -oHE '\]\([^)]+\.md[^)]*\)' ./*.md \
           | sed -E 's/\]\(([^)]*)\)/\1/' \
           | grep -vE ':(https?|mailto)' || true)
[[ "$docs_fail" == "0" ]] || exit 1
echo "check.sh: docs lint clean (module map + markdown links)."

# --- Benchmark build (always on): e2ebench/ compiles the library sources
# of src/ next to its own client, so a src/ API change that breaks the
# request-path benchmark fails here rather than when the benchmark runs.
cmake -S e2ebench -B build-e2e > /dev/null
cmake --build build-e2e -j "$(nproc)" --target e2e_bench
echo "check.sh: e2ebench builds (target e2e_bench)."

cmake -B "$BUILD_DIR" -S . -DAUTOBI_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc)" --target autobi_parallel_tests autobi_core_tests \
  autobi_fuzz_tests

export TSAN_OPTIONS="halt_on_error=1${TSAN_OPTIONS:+:$TSAN_OPTIONS}"
# Force multi-threaded execution even on small machines so races are reachable.
export AUTOBI_THREADS="${AUTOBI_THREADS:-4}"

"$BUILD_DIR/tests/autobi_parallel_tests"
"$BUILD_DIR/tests/autobi_core_tests"

# Solver determinism under TSan: the wave-parallel branch-and-bound must be
# byte-identical (results and stats) at 1, 2, and 8 threads, with the
# parallel relaxation phase actually racing real pool workers. Runs the
# explicit-threads sweep, then the whole suite again under the forced
# AUTOBI_THREADS=1 and =8 environment overrides.
"$BUILD_DIR/tests/autobi_fuzz_tests" --gtest_filter='SolverDeterminismTest.*'
AUTOBI_THREADS=1 "$BUILD_DIR/tests/autobi_fuzz_tests" \
  --gtest_filter='SolverDeterminismTest.*'
AUTOBI_THREADS=8 "$BUILD_DIR/tests/autobi_fuzz_tests" \
  --gtest_filter='SolverDeterminismTest.*'

echo "check.sh: ThreadSanitizer clean (pipeline + solver determinism)."

# --- Kernel-oracle equivalence under ASan/UBSan (always on since PR 7):
# the hash-first profiling/UCC/IND kernels (table/key_view.h + hash-table
# aggregation) must stay bit-identical to the frozen string-map oracles of
# tests/oracles/ on adversarial data, the REAL corpus, and TPC-H-via-DDL,
# with the arena/offset arithmetic of the key view checked for memory and UB
# errors. The filter's leading '*' also matches the value-parameterized
# instantiations (Seeds/KernelOracleTest.*, Seeds/IndPropertyTest.*,
# Seeds/ContainmentEquivalenceTest.*).
ASAN_BUILD_DIR="${AUTOBI_ASAN_BUILD_DIR:-build-asan}"
cmake -B "$ASAN_BUILD_DIR" -S . -DAUTOBI_SANITIZE=address,undefined \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
cmake --build "$ASAN_BUILD_DIR" -j "$(nproc)" --target autobi_profile_ml_tests \
  autobi_integration_tests autobi_faultfuzz
ORACLE_FILTER='*KernelOracle*:TpchDdl*:*Sketch*:*ContainmentEquivalence*:*Ind*'
for suite in autobi_profile_ml_tests autobi_integration_tests; do
  UBSAN_OPTIONS="halt_on_error=1${UBSAN_OPTIONS:+:$UBSAN_OPTIONS}" \
    "$ASAN_BUILD_DIR/tests/$suite" --gtest_filter="$ORACLE_FILTER"
done
echo "check.sh: kernel-oracle equivalence clean (ASan/UBSan)."

# --- Schema-evolution differential smoke under ASan/UBSan (always on since
# PR 8): every case replays a random 1-8 step mutation sequence through
# AutoBi::Predict / PredictIncremental with one PredictCache shared across
# the steps and cross-checks an uncached Predict after each step — any
# cached/uncached divergence, crash, leak, or UB fails the run.
UBSAN_OPTIONS="halt_on_error=1${UBSAN_OPTIONS:+:$UBSAN_OPTIONS}" \
  "$ASAN_BUILD_DIR/tests/fuzz/autobi_faultfuzz" --seed 1 --cases 500 \
  --scenario schema
echo "check.sh: schema-evolution differential smoke clean (ASan/UBSan)."

# --- Lake blocking differential smoke under ASan/UBSan (always on since
# PR 9): every case pushes a small adversarial lake (disconnected islands,
# shared dimension names/key ranges) through blocking + the partitioned
# per-component solve under random faults and budgets; unfaulted cases are
# cross-checked bit-identical against the exhaustive all-pairs oracle.
UBSAN_OPTIONS="halt_on_error=1${UBSAN_OPTIONS:+:$UBSAN_OPTIONS}" \
  "$ASAN_BUILD_DIR/tests/fuzz/autobi_faultfuzz" --seed 1 --cases 500 \
  --scenario lake
echo "check.sh: lake blocking differential smoke clean (ASan/UBSan)."

# --- Crash-recovery differential smoke under ASan/UBSan (always on since
# PR 10): every case drives a journaled ModelCatalog through random
# publish/pin ops with the journal fault points armed
# (journal.short_write/fsync/corrupt, io.rename), crashes it by tearing or
# bit-flipping the journal at a random byte, recovers, and asserts the
# recovered catalog is a committed prefix of the acked history — pins
# intact, NamedJoin sets byte-identical, publishes still accepted.
CRASH_SCRATCH="$(mktemp -d /tmp/autobi_crash.XXXXXX)"
UBSAN_OPTIONS="halt_on_error=1${UBSAN_OPTIONS:+:$UBSAN_OPTIONS}" \
  "$ASAN_BUILD_DIR/tests/fuzz/autobi_faultfuzz" --seed 1 --cases 300 \
  --scenario crash --scratch "$CRASH_SCRATCH"
rm -rf "$CRASH_SCRATCH"
echo "check.sh: crash-recovery differential smoke clean (ASan/UBSan)."

# --- Serve smoke (always on, under the same TSan build so the
# thread-per-connection transport and shared caches are race-checked): boot
# the daemon on a unix socket with a durable state dir, run the client demo
# with a publish (create_session, three uploads, predict, get_model, diff,
# publish_model, list_models, close_session), capture the published model,
# kill the daemon with SIGKILL — no flush, the crash the journal exists
# for — then restart from the same state dir and assert the recovered
# get_catalog_model response is byte-identical before a clean shutdown.
cmake --build "$BUILD_DIR" -j "$(nproc)" --target autobi_serve autobi_client

wait_for_socket() {  # $1 = socket path, $2 = daemon pid
  for _ in $(seq 1 300); do  # Daemon trains before binding; allow up to 60s.
    [[ -S "$1" ]] && return 0
    kill -0 "$2" 2>/dev/null || break
    sleep 0.2
  done
  return 1
}

SERVE_SOCK="$(mktemp -u /tmp/autobi_check.XXXXXX.sock)"
SERVE_STATE="$(mktemp -d /tmp/autobi_check_state.XXXXXX)"
"$BUILD_DIR/src/serve/autobi_serve" --socket "$SERVE_SOCK" --train_cases 60 \
  --state_dir "$SERVE_STATE" &
SERVE_PID=$!
trap '[[ -n "${SERVE_PID:-}" ]] && kill "$SERVE_PID" 2>/dev/null || true' EXIT
if ! wait_for_socket "$SERVE_SOCK" "$SERVE_PID"; then
  echo "check.sh: SERVE FAIL — daemon never bound $SERVE_SOCK." >&2
  exit 1
fi
"$BUILD_DIR/examples/autobi_client" --socket "$SERVE_SOCK" --demo \
  --publish smoke
MODEL_BEFORE="$(echo '{"verb":"get_catalog_model","version":1}' \
  | "$BUILD_DIR/examples/autobi_client" --socket "$SERVE_SOCK")"
if [[ -z "$MODEL_BEFORE" ]]; then
  echo "check.sh: SERVE FAIL — empty get_catalog_model response." >&2
  exit 1
fi

# Crash: SIGKILL gives the daemon no chance to flush or unlink anything.
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""
rm -f "$SERVE_SOCK"

SERVE_SOCK2="$(mktemp -u /tmp/autobi_check.XXXXXX.sock)"
"$BUILD_DIR/src/serve/autobi_serve" --socket "$SERVE_SOCK2" --train_cases 60 \
  --state_dir "$SERVE_STATE" &
SERVE_PID=$!
if ! wait_for_socket "$SERVE_SOCK2" "$SERVE_PID"; then
  echo "check.sh: SERVE FAIL — restarted daemon never bound $SERVE_SOCK2." >&2
  exit 1
fi
MODEL_AFTER="$(echo '{"verb":"get_catalog_model","version":1}' \
  | "$BUILD_DIR/examples/autobi_client" --socket "$SERVE_SOCK2")"
if [[ "$MODEL_BEFORE" != "$MODEL_AFTER" ]]; then
  echo "check.sh: SERVE FAIL — recovered catalog model differs from the" \
       "pre-crash publish:" >&2
  echo "  before: $MODEL_BEFORE" >&2
  echo "  after:  $MODEL_AFTER" >&2
  exit 1
fi
"$BUILD_DIR/examples/autobi_client" --socket "$SERVE_SOCK2" --shutdown
wait "$SERVE_PID"
SERVE_PID=""
rm -f "$SERVE_SOCK2"
rm -rf "$SERVE_STATE"
echo "check.sh: serve smoke clean (demo + publish, SIGKILL restart" \
     "round-trip byte-identical, clean shutdown)."

# Opt-in perf smoke (AUTOBI_BENCH_SMOKE=1): refresh the BENCH_*.json perf
# trajectory after the sanitizer gate passes.
if [[ "${AUTOBI_BENCH_SMOKE:-0}" == "1" ]]; then
  scripts/bench_smoke.sh
fi

# Opt-in fuzz smoke (AUTOBI_FUZZ_SMOKE=1): run the differential/metamorphic
# harness under the same sanitizer build — corpus replay, the bounded gtest
# campaign, and a fresh randomized campaign against the checked-in corpus.
if [[ "${AUTOBI_FUZZ_SMOKE:-0}" == "1" ]]; then
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target autobi_fuzz autobi_fuzz_tests
  "$BUILD_DIR/tests/autobi_fuzz_tests" --gtest_filter='FuzzSmoke.*'
  "$BUILD_DIR/tests/fuzz/autobi_fuzz" --seed 1 --cases 1500 --max_edges 14 \
    --corpus tests/corpus --no_write
  echo "check.sh: fuzz smoke clean."
fi

# Opt-in fault-injection smoke (AUTOBI_FAULT_SMOKE=1): build the end-to-end
# fault campaign under ASan/UBSan and run it. Every case must yield a
# well-formed Status or a validator-passing (possibly degraded) model — no
# crash, hang, or leak (leaks are ASan-fatal by default).
if [[ "${AUTOBI_FAULT_SMOKE:-0}" == "1" ]]; then
  ASAN_BUILD_DIR="${AUTOBI_ASAN_BUILD_DIR:-build-asan}"
  cmake -B "$ASAN_BUILD_DIR" -S . -DAUTOBI_SANITIZE=address,undefined \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  cmake --build "$ASAN_BUILD_DIR" -j "$(nproc)" --target autobi_faultfuzz
  UBSAN_OPTIONS="halt_on_error=1${UBSAN_OPTIONS:+:$UBSAN_OPTIONS}" \
    "$ASAN_BUILD_DIR/tests/fuzz/autobi_faultfuzz" --seed 1 --cases 500
  echo "check.sh: fault-injection smoke clean (ASan/UBSan)."
fi
