#!/usr/bin/env bash
# Perf-trajectory smoke run: builds Release, runs the profiling
# micro-benchmark (machine-readable; since PR 7 it includes the hash-first
# vs legacy profiling/UCC kernels and the TPC-H-via-DDL workload, and
# FATALs if the skewed containment shape loses to the string map), the
# Figure 5 latency benchmark, the PR 4 solver comparison (legacy vs
# wave-parallel k-MCA-CC on adversarial instances), the PR 5 RunContext
# overhead guard (Predict with an armed but untripped context vs no
# context; must stay under 2%), and the PR 6 serving-cache benchmark (cold
# vs warm Predict through the cross-request content-hash caches; warm must
# be >= 3x faster and bit-identical), the PR 8 incremental re-prediction
# benchmark (uncached Predict vs PredictIncremental on a warm PredictCache
# per mutation kind; every kind must stay bit-identical and the
# single-table append must reach >= 3.5x), and the PR 9 lake-scale
# benchmark (50 -> 500 tables with
# blocking + partitioned solve on vs the exhaustive all-pairs oracle;
# gated on >= 90% column-pair pruning at 500 tables, bit-identity at every
# size, a sub-quadratic admitted-pairs growth exponent < 1.5, and a 2 s
# wall ceiling for the 500-table Predict), and the PR 10 durability guard
# (publish_model against a journaled --state_dir engine vs a volatile one;
# the software journaling overhead must stay under 2x — bench_serve puts
# the journal on a RAM-backed fs so the ratio tracks the code path, not the
# CI host's device flush latency), and appends one record, stamped with the
# short commit hash of HEAD, to the JSON array in BENCH.json at the repo
# root. Earlier records are kept as they are, so the trajectory of the hot
# kernels accumulates in-repo and regressions are diffable. (The
# BENCH_pr<N>.json files are the older one-file-per-PR records.)
#
# PR 7 guard (still enforced): profile_column_100k_rows must come in at or
# under 7.5 ms (>= 3x over the 22.4 ms string-map kernel of BENCH_pr5/pr6).
# UCC guard: tpch10_ucc_ms and tpch10_appended_ucc_ms must each be >= 5x
# faster than the hash-sort oracle lattice measured beside them.
#
# Usage: scripts/bench_smoke.sh [build-dir]     (default: build-bench)
# Scale knobs (see DESIGN.md §3): AUTOBI_REAL_CASES (default 2 here — smoke,
# not the paper scale), AUTOBI_TRAIN_CASES, AUTOBI_TPC_SCALE.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-bench}"
OUT="BENCH.json"
COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release > /dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)" --target bench_micro_profile bench_fig5_latency \
  bench_fig6_kmcacc bench_micro_pipeline bench_serve bench_incremental \
  bench_lake > /dev/null

echo "bench_smoke: running bench_micro_profile..." >&2
MICRO_JSON="$("$BUILD_DIR/bench/bench_micro_profile" --json)"

# PR 7 acceptance: the hash-first profiling kernel must hold >= 3x over the
# legacy 22.4 ms baseline (<= 7.5 ms on the 100k-row column). The binary
# itself already FATALs if the skewed containment shape regressed below
# 1.0x or any kernel diverged from its legacy oracle.
PROFILE_MS="$(awk -F'"value": ' '
  /"profile_column_100k_rows":/ { split($2, a, ","); print a[1]; exit }
  ' <<< "$MICRO_JSON")"
if [[ -z "$PROFILE_MS" ]]; then
  echo "bench_smoke: FAILED to parse profile_column_100k_rows" >&2
  exit 1
fi
if ! awk -v ms="$PROFILE_MS" 'BEGIN { exit !(ms <= 7.5) }'; then
  echo "bench_smoke: FAILED — profile_column_100k_rows = ${PROFILE_MS} ms" \
       "exceeds the 7.5 ms (>= 3x) PR 7 budget" >&2
  exit 1
fi

# Stripped-partition UCC gate: on scale-10 DDL TPC-H, cold and after the
# 2% duplicated-row append, DiscoverUccs must be >= 5x faster than the
# frozen hash-sort oracle lattice timed in the same run (a fixed algorithm,
# so the denominator cannot drift). The binary FATALs if the UCC lists
# differ.
micro_value() {
  awk -v key="\"$1\":" -F'"value": ' '
    index($0, key) { split($2, a, ","); print a[1]; exit }
    ' <<< "$MICRO_JSON"
}
for ROW in tpch10_ucc tpch10_appended_ucc; do
  ROW_MS="$(micro_value "${ROW}_ms")"
  ORACLE_MS="$(micro_value "${ROW}_oracle_ms")"
  if [[ -z "$ROW_MS" || -z "$ORACLE_MS" ]]; then
    echo "bench_smoke: FAILED to parse ${ROW}_ms / ${ROW}_oracle_ms" >&2
    exit 1
  fi
  if ! awk -v ms="$ROW_MS" -v oracle="$ORACLE_MS" \
       'BEGIN { exit !(ms > 0 && oracle >= 5.0 * ms) }'; then
    echo "bench_smoke: FAILED — ${ROW}_ms = ${ROW_MS} ms is not >= 5x" \
         "faster than the ${ORACLE_MS} ms hash-sort oracle lattice" >&2
    exit 1
  fi
done

echo "bench_smoke: running bench_fig6_kmcacc --json (solver comparison)..." >&2
SOLVER_JSON="$("$BUILD_DIR/bench/bench_fig6_kmcacc" --json)"

echo "bench_smoke: running bench_micro_pipeline --json (RunContext overhead)..." >&2
RUNCTX_JSON="$("$BUILD_DIR/bench/bench_micro_pipeline" --json)"

export AUTOBI_REAL_CASES="${AUTOBI_REAL_CASES:-2}"

echo "bench_smoke: running bench_serve --json (cold vs warm cache)..." >&2
SERVE_JSON="$("$BUILD_DIR/bench/bench_serve" --json | tail -1)"
if ! grep -q '"warm_bit_identical":true' <<< "$SERVE_JSON"; then
  echo "bench_smoke: FAILED — warm-cache result not bit-identical" >&2
  exit 1
fi

# PR 10 acceptance: journaled publish_model stays under 2x the volatile
# publish (software overhead; see the bench_serve file comment).
PUBLISH_OVERHEAD="$(awk '
  /"publish_journal_overhead":/ { split($0, a, "\"publish_journal_overhead\": *");
                                  split(a[2], b, ","); print b[1]; exit }
  ' <<< "$SERVE_JSON")"
if [[ -z "$PUBLISH_OVERHEAD" ]]; then
  echo "bench_smoke: FAILED to parse publish_journal_overhead" >&2
  exit 1
fi
if ! awk -v o="$PUBLISH_OVERHEAD" 'BEGIN { exit !(o > 0 && o < 2.0) }'; then
  echo "bench_smoke: FAILED — publish_model journaling overhead" \
       "${PUBLISH_OVERHEAD}x outside the (0, 2.0) PR 10 budget" >&2
  exit 1
fi

echo "bench_smoke: running bench_incremental --json (cold vs memo re-prediction)..." >&2
INCR_JSON="$("$BUILD_DIR/bench/bench_incremental" --json --reps 3)"

# PR 8 acceptance: every mutation kind must be bit-identical to the cold
# run (the binary also FATALs on divergence in-process), and the
# single-table append — the headline delta path — must reach >= 3.5x.
# (Originally >= 5x against a 21.6 ms cold baseline; PR 9's blocking cut
# the cold run itself to ~13.4 ms while the incremental path also got
# faster in absolute terms, 3.75 -> 2.66 ms, so the ratio floor moved.)
KIND_COUNT="$(grep -oE '"bit_identical": *true' <<< "$INCR_JSON" | wc -l || true)"
if [[ "$KIND_COUNT" -lt 6 ]]; then
  echo "bench_smoke: FAILED — expected 6 bit-identical mutation kinds in" \
       "bench_incremental output, saw $KIND_COUNT" >&2
  exit 1
fi
if grep -qE '"bit_identical": *false' <<< "$INCR_JSON"; then
  echo "bench_smoke: FAILED — incremental result diverged from cold Predict" >&2
  exit 1
fi
APPEND_SPEEDUP="$(awk '
  /"append_rows":/ { split($0, a, "\"speedup\": *"); split(a[2], b, ",");
                     print b[1]; exit }
  ' <<< "$INCR_JSON")"
if [[ -z "$APPEND_SPEEDUP" ]]; then
  echo "bench_smoke: FAILED to parse kinds.append_rows.speedup" >&2
  exit 1
fi
if ! awk -v s="$APPEND_SPEEDUP" 'BEGIN { exit !(s >= 3.5) }'; then
  echo "bench_smoke: FAILED — append_rows incremental speedup" \
       "${APPEND_SPEEDUP}x below the 3.5x PR 8 budget" >&2
  exit 1
fi

# PR 9 acceptance: the lake sweep (the binary FATALs in-process on any
# blocking-on/off divergence) must hold >= 90% column-pair pruning at the
# 500-table top size, stay bit-identical at every size, grow admitted pairs
# sub-quadratically (fitted exponent < 1.5), and keep the 500-table
# blocking-on Predict under a 2 s wall ceiling.
echo "bench_smoke: running bench_lake --json (50 -> 500 table sweep)..." >&2
LAKE_JSON="$("$BUILD_DIR/bench/bench_lake" --json)"
if ! grep -q '"all_bit_identical": *true' <<< "$LAKE_JSON"; then
  echo "bench_smoke: FAILED — lake blocking result diverged from the" \
       "exhaustive oracle" >&2
  exit 1
fi
LAKE_PRUNING="$(awk '
  /"max_size_pruning_rate":/ { split($0, a, ": *"); split(a[2], b, ",");
                               print b[1]; exit }
  ' <<< "$LAKE_JSON")"
LAKE_EXP="$(awk '
  /"admitted_pairs_exponent":/ { split($0, a, ": *"); split(a[2], b, ",");
                                 print b[1]; exit }
  ' <<< "$LAKE_JSON")"
LAKE_MS="$(awk '
  /"max_size_predict_ms":/ { split($0, a, ": *"); split(a[2], b, ",");
                             print b[1]; exit }
  ' <<< "$LAKE_JSON")"
if [[ -z "$LAKE_PRUNING" || -z "$LAKE_EXP" || -z "$LAKE_MS" ]]; then
  echo "bench_smoke: FAILED to parse bench_lake output" >&2
  exit 1
fi
if ! awk -v p="$LAKE_PRUNING" 'BEGIN { exit !(p >= 0.90) }'; then
  echo "bench_smoke: FAILED — lake pruning rate ${LAKE_PRUNING} below the" \
       "0.90 PR 9 budget at 500 tables" >&2
  exit 1
fi
if ! awk -v e="$LAKE_EXP" 'BEGIN { exit !(e < 1.5) }'; then
  echo "bench_smoke: FAILED — admitted-pairs growth exponent ${LAKE_EXP}" \
       "at or above the sub-quadratic 1.5 PR 9 budget" >&2
  exit 1
fi
if ! awk -v ms="$LAKE_MS" 'BEGIN { exit !(ms <= 2000.0) }'; then
  echo "bench_smoke: FAILED — 500-table lake Predict took ${LAKE_MS} ms," \
       "over the 2000 ms PR 9 wall ceiling" >&2
  exit 1
fi

FIG5_LOG="$BUILD_DIR/fig5_latency.txt"
echo "bench_smoke: running bench_fig5_latency (AUTOBI_REAL_CASES=$AUTOBI_REAL_CASES)..." >&2
"$BUILD_DIR/bench/bench_fig5_latency" > "$FIG5_LOG"

# The Auto-BI row of the Figure 5(b) per-stage table: mean seconds for the
# UCC / IND / Local-Inference / Global-Predict stages (candidate generation
# is UCC + IND). FmtSeconds cells carry a us/ms/s unit suffix.
read -r UCC IND LOCAL GLOBAL < <(awk -F'|' '
  function secs(cell,    v) {
    gsub(/[[:space:]]/, "", cell);
    v = cell + 0;
    if (cell ~ /us$/) return v / 1e6;
    if (cell ~ /ms$/) return v / 1e3;
    return v;
  }
  /Figure 5\(b\)/ { in5b = 1 }
  in5b && $2 ~ /^[[:space:]]*Auto-BI[[:space:]]*$/ {
    printf "%.9g %.9g %.9g %.9g\n", secs($3), secs($4), secs($5), secs($6);
    exit
  }' "$FIG5_LOG")
if [[ -z "${IND:-}" ]]; then
  echo "bench_smoke: FAILED to parse Figure 5(b) Auto-BI row from $FIG5_LOG" >&2
  exit 1
fi

RECORD="$BUILD_DIR/bench_record.json"
cat > "$RECORD" <<EOF
{
  "commit": "$COMMIT",
  "generated": "$(date -u +%Y-%m-%dT%H:%M:%SZ)",
  "real_cases_per_bucket": $AUTOBI_REAL_CASES,
  "lake": $LAKE_JSON,
  "fig5b_auto_bi_mean_seconds": {
    "ucc": $UCC,
    "ind": $IND,
    "local_inference": $LOCAL,
    "global_predict": $GLOBAL
  },
  "incremental": $INCR_JSON,
  "serve": $SERVE_JSON,
  "runcontext": $RUNCTX_JSON,
  "solver": $SOLVER_JSON,
  "micro": $MICRO_JSON
}
EOF

# Append the record to the array in $OUT (created on the first run). The
# file is rewritten through a temporary and a rename, so an interrupted run
# cannot truncate the earlier records; a malformed record fails here.
python3 - "$OUT" "$RECORD" <<'PY'
import json
import os
import sys

out, record = sys.argv[1], sys.argv[2]
records = []
if os.path.exists(out):
    with open(out) as f:
        records = json.load(f)
with open(record) as f:
    records.append(json.load(f))
with open(out + ".tmp", "w") as f:
    json.dump(records, f, indent=2)
    f.write("\n")
os.replace(out + ".tmp", out)
PY
echo "bench_smoke: appended $COMMIT to $OUT (publish journal overhead ${PUBLISH_OVERHEAD}x," \
     "lake pruning ${LAKE_PRUNING}, admitted-pairs exponent ${LAKE_EXP}," \
     "append_rows incremental speedup ${APPEND_SPEEDUP}x)" >&2
