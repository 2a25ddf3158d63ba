#!/usr/bin/env bash
# Offline CI gate: build, test, lint, and smoke-test the experiment
# framework. Everything here must pass with no network access.
#
# Stages are runnable individually so the CI workflow can fan them out as
# separate jobs (and so a developer can re-run just the piece that failed):
#
#   scripts/ci.sh build        compile the workspace (all targets)
#   scripts/ci.sh test         run the test suite
#   scripts/ci.sh lint         rustfmt + clippy
#   scripts/ci.sh smoke        experiment smoke tests + determinism gates
#   scripts/ci.sh fuzz         coverage-guided crash-search gate
#   scripts/ci.sh bench        timed benchmarks + perf-regression gate
#   scripts/ci.sh all          everything above, in order (the default)
#
# `smoke`, `fuzz`, and `bench` expect `build` to have run first (they use
# target/release/evaluate directly so a stale debug build can't skew the
# timings).
set -euo pipefail
cd "$(dirname "$0")/.."

EVALUATE=./target/release/evaluate

build_stage() {
  echo "== cargo build --release =="
  cargo build --release --workspace --all-targets
}

test_stage() {
  echo "== cargo test =="
  cargo test -q --release --workspace
}

lint_stage() {
  echo "== cargo fmt --check =="
  cargo fmt --check

  echo "== cargo clippy -D warnings =="
  cargo clippy --workspace --all-targets --release -- -D warnings
}

smoke_stage() {
  echo "== evaluate all golden-output gate =="
  # Every registered experiment at a small budget, computed fresh: the
  # concatenated stdout is deterministic (identical at any --jobs), so it
  # must hash to the committed digest. Any drift is a behavioural change
  # in some experiment's text output.
  all_digest=$("$EVALUATE" all --txs 40 --jobs 2 --no-result-store --no-corpus \
    --json-dir target/reports-ci-all 2>/dev/null | sha256sum | awk '{print $1}')
  rm -rf target/reports-ci-all
  [ "$all_digest" = "$(cat scripts/all_smoke.sha256)" ] \
    || { echo "FAIL: evaluate all stdout ($all_digest) drifted from scripts/all_smoke.sha256" >&2
         echo "      (if intentional: echo $all_digest > scripts/all_smoke.sha256)" >&2
         exit 1; }

  echo "== evaluate smoke test =="
  smoke_dir="target/reports-ci-smoke"
  rm -rf "$smoke_dir"
  "$EVALUATE" fig11 --txs 200 --jobs 2 --json-dir "$smoke_dir" > /dev/null
  report="$smoke_dir/fig11.json"
  [ -f "$report" ] || { echo "FAIL: $report was not written" >&2; exit 1; }
  "$EVALUATE" check "$report"
  rm -rf "$smoke_dir"

  echo "== trace-cache smoke test =="
  # Same small grid twice: cached across 8 workers vs uncached serial must
  # print identical report bytes, and the cached run must generate each
  # unique trace at most once (generated <= unique keys).
  cache_dir="target/reports-ci-cache"
  rm -rf "$cache_dir"
  cached_err=$("$EVALUATE" fig11 --txs 200 --jobs 8 \
    --json-dir "$cache_dir/cached" 2>&1 >"$cache_dir.cached.txt")
  uncached_err=$("$EVALUATE" fig11 --txs 200 --jobs 1 --no-trace-cache \
    --json-dir "$cache_dir/uncached" 2>&1 >"$cache_dir.uncached.txt")
  cmp "$cache_dir.cached.txt" "$cache_dir.uncached.txt" \
    || { echo "FAIL: trace cache changed the experiment output" >&2; exit 1; }
  keys=$(echo "$cached_err" | sed -n 's/^\[trace-cache\] \([0-9]*\) unique keys, .*/\1/p')
  gens=$(echo "$cached_err" | sed -n 's/.* unique keys, \([0-9]*\) generated, .*/\1/p')
  [ -n "$keys" ] && [ -n "$gens" ] && [ "$gens" -le "$keys" ] \
    || { echo "FAIL: cached run generated $gens traces for $keys keys" >&2; exit 1; }
  echo "$uncached_err" | grep -q "(disabled)" \
    || { echo "FAIL: --no-trace-cache did not disable the cache" >&2; exit 1; }
  rm -rf "$cache_dir" "$cache_dir.cached.txt" "$cache_dir.uncached.txt"

  echo "== result-store smoke test =="
  # Cold then warm on a scratch store: the warm run must serve >= 90% of
  # its cells from the store, finish in well under 25% of the cold wall
  # time, and print byte-identical stdout and report bytes (modulo the
  # jobs/wall_ms envelope).
  store_dir="target/ci-result-store"
  store_rep="target/reports-ci-store"
  rm -rf "$store_dir" "$store_rep" target/ci-store.*.txt
  SILO_RESULT_STORE="$store_dir" "$EVALUATE" fig11 --txs 200 --jobs 4 \
    --json-dir "$store_rep/cold" > target/ci-store.cold.txt 2>/dev/null
  warm_err=$(SILO_RESULT_STORE="$store_dir" "$EVALUATE" fig11 --txs 200 --jobs 4 \
    --json-dir "$store_rep/warm" 2>&1 >target/ci-store.warm.txt)
  cmp target/ci-store.cold.txt target/ci-store.warm.txt \
    || { echo "FAIL: result store changed the experiment output" >&2; exit 1; }
  strip_envelope='s/,"jobs":[0-9]*,"wall_ms":[0-9.eE+-]*}$/}/'
  diff <(sed "$strip_envelope" "$store_rep/cold/fig11.json") \
       <(sed "$strip_envelope" "$store_rep/warm/fig11.json") > /dev/null \
    || { echo "FAIL: result store changed the report body" >&2; exit 1; }
  hits=$(echo "$warm_err" | sed -n 's/^\[result-store\] \([0-9]*\) hits, .*/\1/p')
  misses=$(echo "$warm_err" | sed -n 's/^\[result-store\] [0-9]* hits, \([0-9]*\) misses, .*/\1/p')
  [ -n "$hits" ] && [ -n "$misses" ] && [ "$hits" -gt 0 ] \
    && [ "$((misses * 9))" -le "$hits" ] \
    || { echo "FAIL: warm run hit rate below 90% ($hits hits, $misses misses)" >&2; exit 1; }
  cold_ms=$(sed -n 's/.*"wall_ms": *\([0-9.]*\).*/\1/p' "$store_rep/cold/fig11.json")
  warm_ms=$(sed -n 's/.*"wall_ms": *\([0-9.]*\).*/\1/p' "$store_rep/warm/fig11.json")
  awk -v cold="$cold_ms" -v warm="$warm_ms" \
    'BEGIN { exit !(warm < cold / 4) }' \
    || { echo "FAIL: warm run ($warm_ms ms) not under 25% of cold ($cold_ms ms)" >&2; exit 1; }
  echo "warm store: $hits hits, $misses misses; ${warm_ms} ms vs ${cold_ms} ms cold"
  rm -rf "$store_dir" "$store_rep" target/ci-store.cold.txt target/ci-store.warm.txt

  echo "== cycle-accounting smoke test =="
  # The profile experiment hard-asserts sum(categories) == core cycles for
  # every cell; `evaluate check` then re-validates the invariant from the
  # report JSON alone, so a malformed breakdown fails twice over.
  prof_dir="target/reports-ci-profile"
  rm -rf "$prof_dir"
  "$EVALUATE" profile --txs 120 --jobs 2 --json-dir "$prof_dir" > /dev/null
  "$EVALUATE" check "$prof_dir/profile.json" | tee "$prof_dir.check.txt"
  grep -q "breakdowns validated" "$prof_dir.check.txt" \
    || { echo "FAIL: check did not validate any cycle breakdowns" >&2; exit 1; }
  rm -rf "$prof_dir" "$prof_dir.check.txt"

  echo "== event-timeline smoke test =="
  # --trace-events must emit a schema header plus well-formed JSONL event
  # records for a short run.
  events="target/ci-events.jsonl"
  rm -f "$events"
  "$EVALUATE" profile --txs 60 --bench Hash --jobs 2 --trace-events "$events" \
    --json-dir target/reports-ci-events > /dev/null
  head -n 1 "$events" | grep -q '"stream":"silo-events"' \
    || { echo "FAIL: event trace is missing its schema header" >&2; exit 1; }
  grep -q '"kind":"tx_commit"' "$events" \
    || { echo "FAIL: event trace recorded no commits" >&2; exit 1; }
  rm -rf "$events" target/reports-ci-events

  echo "== determinism gate =="
  # The profile grid at 1 worker vs 8 workers must print byte-identical
  # stdout. (The report *files* legitimately differ in their jobs/wall_ms
  # envelope fields, so the gate compares the rendered text.)
  det_dir="target/reports-ci-det"
  rm -rf "$det_dir"
  "$EVALUATE" profile --txs 120 --jobs 1 --json-dir "$det_dir/j1" \
    > "$det_dir.j1.txt" 2>/dev/null
  "$EVALUATE" profile --txs 120 --jobs 8 --json-dir "$det_dir/j8" \
    > "$det_dir.j8.txt" 2>/dev/null
  cmp "$det_dir.j1.txt" "$det_dir.j8.txt" \
    || { echo "FAIL: profile output depends on worker count" >&2; exit 1; }
  rm -rf "$det_dir" "$det_dir.j1.txt" "$det_dir.j8.txt"

  echo "== open-system latency determinism gate =="
  # The arrival layer's schedules and the exact percentile recorder are
  # integer-only and seed-deterministic, so the latency sweep must print
  # byte-identical stdout at 1 worker and 8 — and the report files must
  # match too once the host-dependent jobs/wall_ms envelope is stripped.
  lat_dir="target/reports-ci-lat"
  rm -rf "$lat_dir"
  "$EVALUATE" latency --txs 240 --bench Hash --jobs 1 --no-result-store \
    --json-dir "$lat_dir/j1" > "$lat_dir.j1.txt" 2>/dev/null
  "$EVALUATE" latency --txs 240 --bench Hash --jobs 8 --no-result-store \
    --json-dir "$lat_dir/j8" > "$lat_dir.j8.txt" 2>/dev/null
  cmp "$lat_dir.j1.txt" "$lat_dir.j8.txt" \
    || { echo "FAIL: latency output depends on worker count" >&2; exit 1; }
  for j in j1 j8; do
    sed 's/,"jobs":[0-9]*,"wall_ms":[0-9.eE+-]*}$/}/' "$lat_dir/$j/latency.json" \
      > "$lat_dir.$j.stripped"
  done
  cmp "$lat_dir.j1.stripped" "$lat_dir.j8.stripped" \
    || { echo "FAIL: latency report depends on worker count" >&2; exit 1; }
  "$EVALUATE" check "$lat_dir/j1/latency.json" > /dev/null \
    || { echo "FAIL: latency report failed validation" >&2; exit 1; }
  rm -rf "$lat_dir" "$lat_dir".j?.txt "$lat_dir".j?.stripped

  echo "== crashfuzz golden-report gate =="
  # One crashfuzz cell's report, stripped of its host-dependent envelope
  # fields (jobs/wall_ms), must hash to the committed golden digest: the
  # crash surface, oracle verdicts, and per-point PM image digests are
  # fully deterministic, so any drift is a behavioural change. The sweep
  # runs four ways — checkpointed resimulation on and off, 1 worker and
  # 8 — and every variant must produce the same bytes: checkpoints and
  # scheduling may only trade time, never answers. The variants bypass
  # the result store so each one actually simulates its points.
  gold_dir="target/reports-ci-gold"
  rm -rf "$gold_dir"
  for variant in "ckpt-j2 --jobs 2" "nockpt-j2 --no-checkpoints --jobs 2" \
                 "ckpt-j1 --jobs 1" "ckpt-j8 --jobs 8"; do
    set -- $variant
    name="$1"; shift
    "$EVALUATE" crashfuzz --txs 16 --bench Hash --no-result-store "$@" \
      --json-dir "$gold_dir/$name" > /dev/null
    sed 's/,"jobs":[0-9]*,"wall_ms":[0-9.eE+-]*}$/}/' "$gold_dir/$name/crashfuzz.json" \
      | sha256sum | awk '{print $1}' > "$gold_dir.$name.digest"
    diff "$gold_dir.$name.digest" scripts/crashfuzz_smoke.sha256 \
      || { echo "FAIL: crashfuzz smoke report ($name) drifted from the golden digest" >&2
           echo "      (if intentional: cp $gold_dir.$name.digest scripts/crashfuzz_smoke.sha256)" >&2
           exit 1; }
  done
  rm -rf "$gold_dir" "$gold_dir".*.digest

  echo "== crashfuzz smoke test =="
  # Clean sweep: every scheme must recover consistently under all three
  # fault models at event-indexed crash points.
  clean=$("$EVALUATE" crashfuzz --txs 16 --bench Hash --jobs 2)
  echo "$clean" | grep -q "^total: 0 violations" \
    || { echo "FAIL: crashfuzz found violations in a correct scheme" >&2; exit 1; }
  # Injected violation: an undersized battery must be caught, shrunk, and
  # reported as a runnable repro command.
  broken=$("$EVALUATE" crashfuzz --txs 16 --bench Hash \
    --scheme Silo --fault battery --battery-bytes 64 --jobs 2)
  echo "$broken" | grep -q "minimal repro: evaluate crashfuzz" \
    || { echo "FAIL: crashfuzz missed the injected battery violation" >&2; exit 1; }
  # Workload-zoo sweeps: the pointer-chasing structures and the zipfian
  # mix must also recover consistently across every scheme and fault
  # model. zipfmix is the workload that shrank the Silo pending-IPU
  # admission race to 16 transactions, so it stays in the gate.
  for zoo in msqueue treiber zipfmix; do
    zoo_out=$("$EVALUATE" crashfuzz --txs 16 --bench "$zoo" --jobs 2)
    echo "$zoo_out" | grep -q "^total: 0 violations" \
      || { echo "FAIL: crashfuzz found violations on $zoo" >&2; exit 1; }
  done
}

fuzz_stage() {
  echo "== fuzz injected-violation gate =="
  # A fixed-seed, fixed-budget search must rediscover the planted
  # undersized-battery violation on Silo and print a runnable repro.
  broken=$("$EVALUATE" fuzz --txs 16 --bench Hash --scheme Silo \
    --fault battery --battery-bytes 64 --execs 8 --no-corpus --jobs 2)
  echo "$broken" | grep -q "minimal repro: evaluate fuzz" \
    || { echo "FAIL: fuzz missed the injected battery violation" >&2; exit 1; }
  # ... and the repro command itself, run verbatim, must reproduce it:
  # the printed command is the contract, not the sweep that found it.
  repro=$(echo "$broken" | sed -n 's/^  minimal repro: evaluate //p' | head -n 1)
  # shellcheck disable=SC2086
  repro_out=$("$EVALUATE" $repro)
  echo "$repro_out" | grep -q "^total: [1-9]" \
    || { echo "FAIL: emitted fuzz repro did not reproduce the violation" >&2; exit 1; }

  echo "== fuzz determinism gate =="
  # The full clean scheme x workload matrix must find nothing, and the
  # whole search — stdout, report body, and the persisted corpus — must
  # be byte-identical at 1 worker and 8. Each run gets its own scratch
  # corpus root so the comparison covers the persistence layer too.
  fuzz_dir="target/reports-ci-fuzz"
  rm -rf "$fuzz_dir" "$fuzz_dir".j?.txt "$fuzz_dir".j?.stripped \
    target/ci-fuzz-corpus-j1 target/ci-fuzz-corpus-j8
  "$EVALUATE" fuzz --txs 16 --execs 6 --jobs 1 --no-result-store \
    --corpus target/ci-fuzz-corpus-j1 --json-dir "$fuzz_dir/j1" \
    > "$fuzz_dir.j1.txt" 2>/dev/null
  "$EVALUATE" fuzz --txs 16 --execs 6 --jobs 8 --no-result-store \
    --corpus target/ci-fuzz-corpus-j8 --json-dir "$fuzz_dir/j8" \
    > "$fuzz_dir.j8.txt" 2>/dev/null
  cmp "$fuzz_dir.j1.txt" "$fuzz_dir.j8.txt" \
    || { echo "FAIL: fuzz output depends on worker count" >&2; exit 1; }
  for j in j1 j8; do
    sed 's/,"jobs":[0-9]*,"wall_ms":[0-9.eE+-]*}$/}/' "$fuzz_dir/$j/fuzz.json" \
      > "$fuzz_dir.$j.stripped"
  done
  cmp "$fuzz_dir.j1.stripped" "$fuzz_dir.j8.stripped" \
    || { echo "FAIL: fuzz report depends on worker count" >&2; exit 1; }
  diff -r target/ci-fuzz-corpus-j1 target/ci-fuzz-corpus-j8 > /dev/null \
    || { echo "FAIL: fuzz corpus depends on worker count" >&2; exit 1; }
  grep -q "^total: 0 violations" "$fuzz_dir.j1.txt" \
    || { echo "FAIL: fuzz found violations in a correct scheme" >&2; exit 1; }
  rm -rf "$fuzz_dir" "$fuzz_dir".j?.txt "$fuzz_dir".j?.stripped \
    target/ci-fuzz-corpus-j1 target/ci-fuzz-corpus-j8
}

bench_stage() {
  echo "== timed trace-cache benchmark =="
  # Wall-clock data point for the perf trajectory: the same grid with and
  # without trace sharing, from the reports' own wall_ms envelope field.
  fresh_dir="target/bench-fresh"
  rm -rf "$fresh_dir"
  mkdir -p "$fresh_dir"
  bench_dir="target/reports-ci-bench"
  rm -rf "$bench_dir"
  # --no-result-store everywhere wall-clock is measured: a warm store
  # would replay cells and time nothing but disk reads.
  "$EVALUATE" fig11 --txs 500 --jobs 4 --no-result-store \
    --json-dir "$bench_dir/cached" > /dev/null 2>&1
  "$EVALUATE" fig11 --txs 500 --jobs 4 --no-trace-cache --no-result-store \
    --json-dir "$bench_dir/uncached" > /dev/null 2>&1
  cached_ms=$(sed -n 's/.*"wall_ms": *\([0-9.]*\).*/\1/p' "$bench_dir/cached/fig11.json")
  uncached_ms=$(sed -n 's/.*"wall_ms": *\([0-9.]*\).*/\1/p' "$bench_dir/uncached/fig11.json")
  printf '{"experiment": "fig11", "txs": 500, "jobs": 4, "cached_wall_ms": %s, "uncached_wall_ms": %s}\n' \
    "$cached_ms" "$uncached_ms" > "$fresh_dir/BENCH_trace_cache.json"
  "$EVALUATE" check "$bench_dir/cached/fig11.json"
  cat "$fresh_dir/BENCH_trace_cache.json"

  echo "== timed profile benchmark =="
  # Both a wall-clock data point and a simulation-cycle fingerprint: the
  # summed total_cycles over the whole scheme x workload grid is
  # deterministic, so any drift is a real perf change in the simulated
  # machine, not host noise.
  "$EVALUATE" profile --txs 400 --jobs 4 --no-result-store \
    --json-dir "$bench_dir/profile" > /dev/null 2>&1
  prof_ms=$(sed -n 's/.*"wall_ms": *\([0-9.]*\).*/\1/p' "$bench_dir/profile/profile.json")
  total_cycles=$(grep -o '"total_cycles": *[0-9]*' "$bench_dir/profile/profile.json" \
    | awk -F: '{s += $2} END {printf "%d", s}')
  printf '{"experiment": "profile", "txs": 400, "jobs": 4, "wall_ms": %s, "total_cycles_sum": %s}\n' \
    "$prof_ms" "$total_cycles" > "$fresh_dir/BENCH_profile.json"
  cat "$fresh_dir/BENCH_profile.json"

  echo "== timed engine benchmark =="
  # The rawest engine hot loop (full runs, no cycle accounting): a
  # wall-clock data point for the allocation/hashing hot paths plus the
  # deterministic summed per-core cycles as a behavioural fingerprint.
  "$EVALUATE" bench-engine --txs 600 --jobs 4 --no-result-store \
    --json-dir "$bench_dir/engine" > /dev/null 2>&1
  eng_ms=$(sed -n 's/.*"wall_ms": *\([0-9.]*\).*/\1/p' "$bench_dir/engine/bench-engine.json")
  eng_cycles=$(grep -o '"total_cycles": *[0-9]*' "$bench_dir/engine/bench-engine.json" \
    | awk -F: '{s += $2} END {printf "%d", s}')
  printf '{"experiment": "bench-engine", "txs": 600, "jobs": 4, "wall_ms": %s, "total_cycles_sum": %s}\n' \
    "$eng_ms" "$eng_cycles" > "$fresh_dir/BENCH_engine.json"
  cat "$fresh_dir/BENCH_engine.json"

  echo "== timed crashfuzz benchmark =="
  # Checkpointed crash resimulation vs from-scratch resimulation on the
  # same dense crash-point scan: one long-horizon Silo cell, 96 crash
  # points on the op-boundary cycle axis. Per-point work is what the
  # checkpoint machinery amortizes (a from-scratch point replays the
  # whole crash prefix, a resumed point only the suffix past the nearest
  # checkpoint), so the point count dominates and the wall-clock pair is
  # the perf trajectory of resume itself. crash_runs is deterministic
  # and pins the sweep shape. The speedup gate below holds the headline
  # claim: the checkpointed scan must stay >= 3x faster than
  # re-simulating every prefix from t=0.
  "$EVALUATE" crashfuzz --txs 8000 --points 96 --jobs 1 --scheme Silo \
    --bench Hash --fault op-boundary --no-result-store \
    --json-dir "$bench_dir/crashfuzz-ckpt" > /dev/null 2>&1
  "$EVALUATE" crashfuzz --txs 8000 --points 96 --jobs 1 --scheme Silo \
    --bench Hash --fault op-boundary --no-result-store --no-checkpoints \
    --json-dir "$bench_dir/crashfuzz-nockpt" > /dev/null 2>&1
  ckpt_ms=$(sed -n 's/.*"wall_ms": *\([0-9.]*\).*/\1/p' "$bench_dir/crashfuzz-ckpt/crashfuzz.json")
  nockpt_ms=$(sed -n 's/.*"wall_ms": *\([0-9.]*\).*/\1/p' "$bench_dir/crashfuzz-nockpt/crashfuzz.json")
  runs=$(sed -n 's/.*"crash_runs": *\([0-9]*\).*/\1/p' "$bench_dir/crashfuzz-ckpt/crashfuzz.json")
  printf '{"experiment": "crashfuzz", "txs": 8000, "points": 96, "jobs": 1, "crash_runs": %s, "checkpointed_wall_ms": %s, "scratch_wall_ms": %s}\n' \
    "$runs" "$ckpt_ms" "$nockpt_ms" > "$fresh_dir/BENCH_crashfuzz.json"
  cat "$fresh_dir/BENCH_crashfuzz.json"
  awk -v ckpt="$ckpt_ms" -v scratch="$nockpt_ms" \
    'BEGIN { exit !(ckpt * 3 <= scratch) }' \
    || { echo "FAIL: checkpointed crashfuzz ($ckpt_ms ms) not >= 3x faster than scratch ($nockpt_ms ms)" >&2
         exit 1; }

  echo "== timed latency benchmark =="
  # The open-system arrival layer end to end: Poisson admission, the
  # per-core sojourn recorder, and the exact percentile reduction. The
  # summed p99 over every row of the sweep is integer-exact and
  # deterministic, so it fingerprints the arrival schedules, the
  # admission semantics, and the percentile math at once; wall-clock
  # tracks the admission layer's cost in the engine hot loop.
  "$EVALUATE" latency --txs 240 --bench Hash --jobs 4 --no-result-store \
    --json-dir "$bench_dir/latency" > /dev/null 2>&1
  lat_ms=$(sed -n 's/.*"wall_ms": *\([0-9.]*\).*/\1/p' "$bench_dir/latency/latency.json")
  p99_sum=$(grep -o '"p99": *[0-9]*' "$bench_dir/latency/latency.json" \
    | awk -F: '{s += $2} END {printf "%d", s}')
  printf '{"experiment": "latency", "txs": 240, "jobs": 4, "wall_ms": %s, "p99_sum": %s}\n' \
    "$lat_ms" "$p99_sum" > "$fresh_dir/BENCH_latency.json"
  cat "$fresh_dir/BENCH_latency.json"

  echo "== timed fuzz benchmark =="
  # The coverage-guided crash search end to end: per-candidate crash
  # resimulation with the spec machine and the signature recorder
  # enabled. Executions and the summed coverage-bit count over the full
  # scheme x workload matrix are deterministic fingerprints of the
  # search itself; wall-clock tracks the per-candidate overhead of the
  # two observers.
  "$EVALUATE" fuzz --txs 16 --execs 6 --jobs 4 --no-result-store --no-corpus \
    --json-dir "$bench_dir/fuzz" > /dev/null 2>&1
  fuzz_ms=$(sed -n 's/.*"wall_ms": *\([0-9.]*\).*/\1/p' "$bench_dir/fuzz/fuzz.json")
  fuzz_execs=$(sed -n 's/.*"executions": *\([0-9]*\).*/\1/p' "$bench_dir/fuzz/fuzz.json")
  cov_sum=$(grep -o '"coverage_bits": *[0-9]*' "$bench_dir/fuzz/fuzz.json" \
    | awk -F: '{s += $2} END {printf "%d", s}')
  printf '{"experiment": "fuzz", "txs": 16, "jobs": 4, "executions": %s, "coverage_sum": %s, "wall_ms": %s}\n' \
    "$fuzz_execs" "$cov_sum" "$fuzz_ms" > "$fresh_dir/BENCH_fuzz.json"
  cat "$fresh_dir/BENCH_fuzz.json"

  echo "== timed result-store benchmark =="
  # Cold vs warm on a scratch store: the perf trajectory of incremental
  # evaluate itself. Cold pays simulation + persistence, warm pays trace
  # fingerprinting + replay.
  store_dir="target/bench-result-store"
  rm -rf "$store_dir"
  SILO_RESULT_STORE="$store_dir" "$EVALUATE" fig11 --txs 500 --jobs 4 \
    --json-dir "$bench_dir/store-cold" > /dev/null 2>&1
  SILO_RESULT_STORE="$store_dir" "$EVALUATE" fig11 --txs 500 --jobs 4 \
    --json-dir "$bench_dir/store-warm" > /dev/null 2>&1
  cold_ms=$(sed -n 's/.*"wall_ms": *\([0-9.]*\).*/\1/p' "$bench_dir/store-cold/fig11.json")
  warm_ms=$(sed -n 's/.*"wall_ms": *\([0-9.]*\).*/\1/p' "$bench_dir/store-warm/fig11.json")
  printf '{"experiment": "fig11", "txs": 500, "jobs": 4, "cold_wall_ms": %s, "warm_wall_ms": %s}\n' \
    "$cold_ms" "$warm_ms" > "$fresh_dir/BENCH_store.json"
  cat "$fresh_dir/BENCH_store.json"
  rm -rf "$store_dir" "$bench_dir"

  echo "== perf-regression gate =="
  scripts/check_bench.sh "$fresh_dir"
}

stage="${1:-all}"
case "$stage" in
  build) build_stage ;;
  test) test_stage ;;
  lint) lint_stage ;;
  smoke) smoke_stage ;;
  fuzz) fuzz_stage ;;
  bench) bench_stage ;;
  all)
    build_stage
    test_stage
    lint_stage
    smoke_stage
    fuzz_stage
    bench_stage
    echo "CI OK"
    ;;
  *)
    echo "usage: scripts/ci.sh [build|test|lint|smoke|fuzz|bench|all]" >&2
    exit 2
    ;;
esac
