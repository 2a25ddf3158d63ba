#!/usr/bin/env bash
# Perf-regression gate: compare freshly measured BENCH_*.json files against
# the baselines committed at the repo root.
#
#   scripts/check_bench.sh <fresh-dir>            compare, exit 1 on regression
#   scripts/check_bench.sh --bless <fresh-dir>    copy fresh results over the
#                                                 committed baselines
#
# Wall-clock fields (`*wall_ms`) are host-dependent, so they get a relative
# tolerance (BENCH_TOLERANCE_PCT, default 15%) plus a small absolute slack
# (BENCH_SLACK_MS, default 250 ms) so sub-second timings aren't judged on
# noise. Simulation-cycle fields (`total_cycles_sum`) are deterministic and
# must match exactly: the simulated machine is the same no matter how fast
# the host is, so any drift there is a real behavioural change.
set -euo pipefail
cd "$(dirname "$0")/.."

TOLERANCE_PCT="${BENCH_TOLERANCE_PCT:-15}"
SLACK_MS="${BENCH_SLACK_MS:-250}"

bless=0
if [ "${1:-}" = "--bless" ]; then
  bless=1
  shift
fi
fresh_dir="${1:-}"
[ -n "$fresh_dir" ] && [ -d "$fresh_dir" ] || {
  echo "usage: scripts/check_bench.sh [--bless] <fresh-dir>" >&2
  exit 2
}

# json_num FILE KEY -> numeric value of a flat "key": number field.
json_num() {
  sed -n "s/.*\"$2\": *\([0-9.]*\).*/\1/p" "$1"
}

failures=0

check_file() {
  local name="$1"
  local fresh="$fresh_dir/$name"
  local base="./$name"
  [ -f "$fresh" ] || { echo "FAIL: $fresh was not produced" >&2; failures=$((failures + 1)); return; }

  if [ "$bless" -eq 1 ]; then
    cp "$fresh" "$base"
    echo "blessed $base"
    return
  fi
  [ -f "$base" ] || {
    echo "FAIL: no committed baseline $base (run with --bless to create it)" >&2
    failures=$((failures + 1))
    return
  }

  # Every numeric field present in the baseline is checked in the fresh
  # result: *wall_ms within tolerance, everything else exact.
  local keys
  # [a-z0-9_]: keys with digits (p99_sum) must be gated too, not
  # silently skipped by a too-narrow character class.
  keys=$(grep -o '"[a-z0-9_]*": *[0-9]' "$base" | sed 's/"\([a-z0-9_]*\)".*/\1/')
  for key in $keys; do
    local want got
    want=$(json_num "$base" "$key")
    got=$(json_num "$fresh" "$key")
    [ -n "$got" ] || {
      echo "FAIL: $name is missing field $key" >&2
      failures=$((failures + 1))
      continue
    }
    case "$key" in
      *wall_ms)
        awk -v want="$want" -v got="$got" -v tol="$TOLERANCE_PCT" -v slack="$SLACK_MS" \
          -v name="$name" -v key="$key" 'BEGIN {
            limit = want * (1 + tol / 100) + slack
            if (got > limit) {
              printf "FAIL: %s %s regressed: %.0f ms vs baseline %.0f ms (limit %.0f ms, +%s%% +%s ms)\n",
                name, key, got, want, limit, tol, slack
              exit 1
            }
            printf "ok:   %s %s = %.0f ms (baseline %.0f ms, limit %.0f ms)\n",
              name, key, got, want, limit
          }' || failures=$((failures + 1))
        ;;
      *)
        if [ "$want" = "$got" ]; then
          echo "ok:   $name $key = $got (exact)"
        else
          echo "FAIL: $name $key changed: $got vs baseline $want (must match exactly)" >&2
          failures=$((failures + 1))
        fi
        ;;
    esac
  done
}

checked=""
check() {
  checked="$checked $1"
  check_file "$1"
}

check "BENCH_trace_cache.json"
check "BENCH_profile.json"
check "BENCH_engine.json"
check "BENCH_store.json"
check "BENCH_crashfuzz.json"
check "BENCH_latency.json"
check "BENCH_fuzz.json"

if [ "$bless" -eq 1 ]; then
  exit 0
fi

# A fresh metric nobody compares is a gate that silently stopped gating:
# every BENCH_*.json the bench stage produced must be in the checked list
# above (and check_file already fails if its committed baseline is gone).
for fresh in "$fresh_dir"/BENCH_*.json; do
  [ -e "$fresh" ] || continue
  name=$(basename "$fresh")
  case " $checked " in
    *" $name "*) ;;
    *)
      echo "FAIL: fresh metric $name has no baseline check (add it to scripts/check_bench.sh and bless a baseline)" >&2
      failures=$((failures + 1))
      ;;
  esac
done
if [ "$failures" -gt 0 ]; then
  echo "perf gate: $failures failure(s); if intentional, re-baseline with" >&2
  echo "  scripts/ci.sh bench && scripts/check_bench.sh --bless target/bench-fresh" >&2
  exit 1
fi
echo "perf gate: all benchmarks within tolerance"
