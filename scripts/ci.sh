#!/usr/bin/env bash
# Offline CI gate: build, test, lint, smoke-test, and benchmark the
# experiment framework. Everything here must pass with no network access.
#
# Stages are runnable individually so the CI workflow can fan them out as
# separate jobs (and so a developer can re-run just the piece that failed):
#
#   scripts/ci.sh build        compile the workspace (all targets) and perfbench/tracer
#   scripts/ci.sh test         run the test suite
#   scripts/ci.sh lint         rustfmt + clippy + rustdoc, warnings denied
#   scripts/ci.sh smoke        experiment smoke tests + determinism and golden gates
#   scripts/ci.sh fuzz         coverage-guided crash-search gate
#   scripts/ci.sh bench        perfbench tests and runs + checkpoint, unit and memory gates
#   scripts/ci.sh all          everything above, in order (the default)
#
# Several stages run in the order named: `scripts/ci.sh build lint smoke`.
#
# `smoke`, `fuzz`, and `bench` expect `build` to have run first (they use
# target/release/evaluate directly so a stale debug build can't skew the
# timings).
#
# Deterministic outputs are pinned in scripts/golden.sha256, one
# `<sha256>  <name>` line each, and checked with `golden <name> <file>`.
set -euo pipefail
cd "$(dirname "$0")/.."

EVALUATE=./target/release/evaluate
GOLDEN=scripts/golden.sha256

# golden NAME FILE: FILE must hash to NAME's line in $GOLDEN. Every pinned
# output is deterministic, so any drift is a behavioural change.
golden() {
  local name="$1" file="$2" want got
  want=$(awk -v name="$name" '$2 == name { print $1 }' "$GOLDEN")
  got=$(sha256sum "$file" | awk '{print $1}')
  [ -n "$want" ] && [ "$got" = "$want" ] && return
  echo "FAIL: $file hashes to $got, not to $name's ${want:-(missing)} in $GOLDEN" >&2
  echo "      (if intentional: sed -i '/  $name\$/d' $GOLDEN && echo '$got  $name' >> $GOLDEN)" >&2
  exit 1
}

# strip_envelope REPORT: the report body without its host-dependent
# jobs/wall_ms envelope fields.
strip_envelope() {
  sed 's/,"jobs":[0-9]*,"wall_ms":[0-9.eE+-]*}$/}/' "$1"
}

# median3 A B C: the middle of three numbers.
median3() {
  printf '%s\n' "$@" | sort -g | sed -n 2p
}

# wall_ms REPORT: the report's wall-clock envelope field.
wall_ms() {
  sed -n 's/.*"wall_ms": *\([0-9.]*\).*/\1/p' "$1"
}

# rusage CMD...: runs CMD with its output discarded, fails if it fails,
# and prints its peak resident set size in MB (`ru_maxrss`, in KiB on
# Linux) and its CPU time in seconds (user + sys), both from `os.wait4`.
rusage() {
  python3 - "$@" <<'PY'
import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
code = os.waitstatus_to_exitcode(status)
if code != 0:
    sys.exit(f"FAIL: {' '.join(sys.argv[1:])} exited {code}")
print(f"{usage.ru_maxrss / 1024:.1f} {usage.ru_utime + usage.ru_stime:.3f}")
PY
}

build_stage() {
  echo "== cargo build --release =="
  cargo build --release --workspace --all-targets

  # perfbench/tracer is its own cargo workspace and calls the library
  # directly, so a library change that breaks its API fails here, not
  # only in the bench stage's traced run.
  echo "== cargo build --release perfbench/tracer =="
  CARGO_TARGET_DIR=target cargo build --release --offline \
    --manifest-path perfbench/tracer/Cargo.toml
}

# The tier-1 command: every crate's tests (the root manifest's
# default-members), with debug assertions on.
test_stage() {
  echo "== cargo test =="
  cargo test -q
}

lint_stage() {
  echo "== cargo fmt --check =="
  cargo fmt --check

  echo "== cargo clippy -D warnings =="
  cargo clippy --workspace --all-targets --release -- -D warnings

  echo "== cargo doc -D warnings =="
  RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
}

smoke_stage() {
  echo "== evaluate all golden-output gate =="
  # Every registered experiment at a small budget, computed fresh: the
  # concatenated stdout is deterministic (identical at any --jobs), so any
  # drift is a behavioural change in some experiment's text output.
  rm -rf target/reports-ci-all
  all_err=$("$EVALUATE" all --txs 40 --jobs 2 --no-result-store --no-corpus \
    --json-dir target/reports-ci-all 2>&1 >target/ci-all.txt)
  golden all target/ci-all.txt
  # ... and so is every report that run writes: the 24 bodies, envelope
  # stripped and joined in name order, pin each experiment's derived JSON.
  find target/reports-ci-all -name '*.json' | LC_ALL=C sort \
    | while read -r report; do strip_envelope "$report"; done > target/ci-all-reports.json
  golden all-reports target/ci-all-reports.json
  # One trace scope spans the invocation, so experiments share the traces
  # they have in common: its 122 distinct keys cost 122 generations, where
  # a scope per experiment would regenerate the shared ones. fig14 fetches
  # one 8-core trace per workload for its five multipliers, not a probe,
  # an inner and a batched trace per cell (162 keys).
  all_cache=$(echo "$all_err" | grep '^\[trace-cache\]' | tail -n 1)
  case "$all_cache" in
    "[trace-cache] 122 unique keys, 122 generated, "*) ;;
    *) echo "FAIL: evaluate all: '$all_cache', want 122 unique keys, 122 generated" >&2
       exit 1 ;;
  esac
  rm -rf target/reports-ci-all target/ci-all.txt target/ci-all-reports.json

  echo "== fig11 golden report at the benchmark's size =="
  # The figgrid benchmark's fig11: its delta cells fork the shared prefix
  # after 75 measured transactions per 8-core stream (the `all` pin above
  # forks after 5), and the envelope-stripped report must not move.
  "$EVALUATE" fig11 --txs 600 --jobs 2 --no-result-store \
    --json-dir target/reports-ci-fig11 > /dev/null 2>&1
  strip_envelope target/reports-ci-fig11/fig11.json > target/ci-fig11.json
  golden fig11 target/ci-fig11.json
  rm -rf target/reports-ci-fig11 target/ci-fig11.json

  echo "== fig14 golden report at the benchmark's size =="
  # The figgrid benchmark's fig14: Silo's log-overflow path (§III-F) and
  # the on-PM buffer's line programs at a size the `all` pin never reaches.
  "$EVALUATE" fig14 --txs 600 --jobs 2 --no-result-store \
    --json-dir target/reports-ci-fig14 > /dev/null 2>&1
  strip_envelope target/reports-ci-fig14/fig14.json > target/ci-fig14.json
  golden fig14 target/ci-fig14.json
  rm -rf target/reports-ci-fig14 target/ci-fig14.json

  echo "== evaluate smoke test =="
  smoke_dir="target/reports-ci-smoke"
  rm -rf "$smoke_dir"
  "$EVALUATE" fig11 --txs 200 --jobs 2 --json-dir "$smoke_dir" > /dev/null
  report="$smoke_dir/fig11.json"
  [ -f "$report" ] || { echo "FAIL: $report was not written" >&2; exit 1; }
  "$EVALUATE" check "$report"
  rm -rf "$smoke_dir"

  echo "== trace-cache smoke test =="
  # Same small grid twice, computed fresh: across 8 workers vs serial must
  # print identical report bytes, and the 8-worker run must generate each
  # key it resolved at most once (0 < generated <= unique keys). Both skip
  # the result store, whose served cells build no trace.
  cache_dir="target/reports-ci-cache"
  rm -rf "$cache_dir"
  cached_err=$("$EVALUATE" fig11 --txs 200 --jobs 8 --no-result-store \
    --json-dir "$cache_dir/cached" 2>&1 >"$cache_dir.cached.txt")
  "$EVALUATE" fig11 --txs 200 --jobs 1 --no-result-store --json-dir "$cache_dir/serial" \
    > "$cache_dir.serial.txt" 2>/dev/null
  cmp "$cache_dir.cached.txt" "$cache_dir.serial.txt" \
    || { echo "FAIL: worker count changed the experiment output" >&2; exit 1; }
  keys=$(echo "$cached_err" | sed -n 's/^\[trace-cache\] \([0-9]*\) unique keys, .*/\1/p')
  gens=$(echo "$cached_err" | sed -n 's/.* unique keys, \([0-9]*\) generated, .*/\1/p')
  [ -n "$keys" ] && [ -n "$gens" ] && [ "$gens" -gt 0 ] && [ "$gens" -le "$keys" ] \
    || { echo "FAIL: cached run generated $gens traces for $keys keys" >&2; exit 1; }
  rm -rf "$cache_dir" "$cache_dir.cached.txt" "$cache_dir.serial.txt"

  echo "== result-store smoke test =="
  # Cold then warm on a scratch store: the warm run must serve >= 90% of
  # its cells from the store, generate no trace (a stored cell is named by
  # its spec hash and the code fingerprint alone), finish in well under 25%
  # of the cold wall time, and print byte-identical stdout and report bytes
  # (modulo the jobs/wall_ms envelope).
  store_dir="target/ci-result-store"
  store_rep="target/reports-ci-store"
  rm -rf "$store_dir" "$store_rep" target/ci-store.*.txt
  SILO_RESULT_STORE="$store_dir" "$EVALUATE" fig11 --txs 200 --jobs 4 \
    --json-dir "$store_rep/cold" > target/ci-store.cold.txt 2>/dev/null
  warm_err=$(SILO_RESULT_STORE="$store_dir" "$EVALUATE" fig11 --txs 200 --jobs 4 \
    --json-dir "$store_rep/warm" 2>&1 >target/ci-store.warm.txt)
  cmp target/ci-store.cold.txt target/ci-store.warm.txt \
    || { echo "FAIL: result store changed the experiment output" >&2; exit 1; }
  cmp -s <(strip_envelope "$store_rep/cold/fig11.json") \
         <(strip_envelope "$store_rep/warm/fig11.json") \
    || { echo "FAIL: result store changed the report body" >&2; exit 1; }
  hits=$(echo "$warm_err" | sed -n 's/^\[result-store\] \([0-9]*\) hits, .*/\1/p')
  misses=$(echo "$warm_err" | sed -n 's/^\[result-store\] [0-9]* hits, \([0-9]*\) misses, .*/\1/p')
  [ -n "$hits" ] && [ -n "$misses" ] && [ "$hits" -gt 0 ] \
    && [ "$((misses * 9))" -le "$hits" ] \
    || { echo "FAIL: warm run hit rate below 90% ($hits hits, $misses misses)" >&2; exit 1; }
  warm_gens=$(echo "$warm_err" | sed -n 's/^\[trace-cache\] [0-9]* unique keys, \([0-9]*\) generated, .*/\1/p')
  [ "$warm_gens" = 0 ] \
    || { echo "FAIL: warm run generated ${warm_gens:-an unknown number of} traces" >&2; exit 1; }
  cold_ms=$(wall_ms "$store_rep/cold/fig11.json")
  warm_ms=$(wall_ms "$store_rep/warm/fig11.json")
  awk -v cold="$cold_ms" -v warm="$warm_ms" \
    'BEGIN { exit !(warm < cold / 4) }' \
    || { echo "FAIL: warm run ($warm_ms ms) not under 25% of cold ($cold_ms ms)" >&2; exit 1; }
  echo "warm store: $hits hits, $misses misses, 0 traces; ${warm_ms} ms vs ${cold_ms} ms cold"
  # A run option changes how a cell runs, never its answer, so it never
  # reaches a store key: crashfuzz stored cold with checkpoints must serve
  # all 21 of its cells to a warm run without them, with the same bytes.
  SILO_RESULT_STORE="$store_dir" "$EVALUATE" crashfuzz --txs 16 --bench Hash --jobs 2 \
    --json-dir "$store_rep/crash-cold" > target/ci-store.crash-cold.txt 2>/dev/null
  crash_err=$(SILO_RESULT_STORE="$store_dir" "$EVALUATE" crashfuzz --txs 16 --bench Hash \
    --jobs 2 --no-checkpoints --json-dir "$store_rep/crash-warm" \
    2>&1 >target/ci-store.crash-warm.txt)
  cmp target/ci-store.crash-cold.txt target/ci-store.crash-warm.txt \
    || { echo "FAIL: a warm crashfuzz --no-checkpoints changed the output" >&2; exit 1; }
  cmp -s <(strip_envelope "$store_rep/crash-cold/crashfuzz.json") \
         <(strip_envelope "$store_rep/crash-warm/crashfuzz.json") \
    || { echo "FAIL: a warm crashfuzz --no-checkpoints changed the report body" >&2; exit 1; }
  crash_store=$(echo "$crash_err" | grep '^\[result-store\]' || true)
  case "$crash_store" in
    "[result-store] 21 hits, 0 misses, "*) ;;
    *) echo "FAIL: warm crashfuzz --no-checkpoints: '$crash_store', want 21 hits, 0 misses" >&2
       exit 1 ;;
  esac
  echo "warm crashfuzz --no-checkpoints: 21 hits, 0 misses"
  rm -rf "$store_dir" "$store_rep" target/ci-store.*.txt

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
  # envelope fields, so the gate compares the rendered text.) The text
  # holds every cell's exact simulated total_cycles, so it is pinned too.
  # Both runs bypass the result store so each one simulates its cells.
  det_dir="target/reports-ci-det"
  rm -rf "$det_dir"
  "$EVALUATE" profile --txs 600 --jobs 1 --no-result-store \
    --json-dir "$det_dir/j1" > "$det_dir.j1.txt" 2>/dev/null
  "$EVALUATE" profile --txs 600 --jobs 8 --no-result-store \
    --json-dir "$det_dir/j8" > "$det_dir.j8.txt" 2>/dev/null
  cmp "$det_dir.j1.txt" "$det_dir.j8.txt" \
    || { echo "FAIL: profile output depends on worker count" >&2; exit 1; }
  golden profile "$det_dir.j1.txt"
  rm -rf "$det_dir" "$det_dir.j1.txt" "$det_dir.j8.txt"

  echo "== open-system latency determinism gate =="
  # The arrival layer's schedules and the exact percentile recorder are
  # integer-only and seed-deterministic, so the latency sweep must print
  # byte-identical stdout at 1 worker and 8, pinned in the golden file —
  # and the report files must match too once the host-dependent
  # jobs/wall_ms envelope is stripped.
  lat_dir="target/reports-ci-lat"
  rm -rf "$lat_dir"
  "$EVALUATE" latency --txs 240 --bench Hash --jobs 1 --no-result-store \
    --json-dir "$lat_dir/j1" > "$lat_dir.j1.txt" 2>/dev/null
  "$EVALUATE" latency --txs 240 --bench Hash --jobs 8 --no-result-store \
    --json-dir "$lat_dir/j8" > "$lat_dir.j8.txt" 2>/dev/null
  cmp "$lat_dir.j1.txt" "$lat_dir.j8.txt" \
    || { echo "FAIL: latency output depends on worker count" >&2; exit 1; }
  golden latency "$lat_dir.j1.txt"
  for j in j1 j8; do
    strip_envelope "$lat_dir/$j/latency.json" > "$lat_dir.$j.stripped"
  done
  cmp "$lat_dir.j1.stripped" "$lat_dir.j8.stripped" \
    || { echo "FAIL: latency report depends on worker count" >&2; exit 1; }
  "$EVALUATE" check "$lat_dir/j1/latency.json" > /dev/null \
    || { echo "FAIL: latency report failed validation" >&2; exit 1; }
  rm -rf "$lat_dir" "$lat_dir".j?.txt "$lat_dir".j?.stripped

  echo "== crashfuzz golden-report gate =="
  # One crashfuzz cell's report, stripped of its host-dependent envelope
  # fields (jobs/wall_ms), is pinned in the golden file: the crash
  # surface, oracle verdicts, and per-point PM image digests are fully
  # deterministic, so any drift is a behavioural change. The sweep runs
  # four ways — checkpointed resimulation on and off, 1 worker and 8 —
  # and every variant must produce the same bytes: checkpoints and
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
    strip_envelope "$gold_dir/$name/crashfuzz.json" > "$gold_dir.$name.stripped"
    golden crashfuzz "$gold_dir.$name.stripped"
  done
  rm -rf "$gold_dir" "$gold_dir".*.stripped

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
  # ... and the first repro command, run verbatim, must reproduce it: the
  # printed command is the contract, so the flag table must accept it.
  repro=$(echo "$broken" | sed -n 's/^  minimal repro: evaluate //p' | head -n 1)
  # shellcheck disable=SC2086
  repro_out=$("$EVALUATE" $repro)
  echo "$repro_out" | grep -q "^total: [1-9]" \
    || { echo "FAIL: emitted crashfuzz repro did not reproduce the violation" >&2; exit 1; }
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
  # corpus root so the comparison covers the persistence layer too. The
  # stdout, which prints every cell's executions and coverage bits, is
  # pinned in the golden file.
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
  golden fuzz "$fuzz_dir.j1.txt"
  for j in j1 j8; do
    strip_envelope "$fuzz_dir/$j/fuzz.json" > "$fuzz_dir.$j.stripped"
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
  echo "== perfbench self-tests =="
  python3 -m unittest discover -s perfbench/tests

  echo "== perfbench runs =="
  # perfbench, the one benchmark harness (BENCHMARK.json): one short run
  # untraced and one traced, in which every checked invocation must be
  # correct and none may fail. The traced run builds perfbench/tracer, so
  # a change that breaks the library API it calls, or the report and
  # stderr formats perfbench parses, fails here. A one-second run checks
  # correctness only: speed is judged from repeated full-length runs
  # against the per-metric bounds in BENCHMARK.json.
  for trace in 0 1; do
    result=$(CARGO_TARGET_DIR=target python3 perfbench/run.py --workload all \
      --seconds 1 --trace "$trace" | tail -n 1)
    echo "$result" | python3 -c '
import json, sys
r = json.load(sys.stdin)
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' \
      || { echo "FAIL: perfbench --trace $trace: $result" >&2; exit 1; }
  done

  echo "== crashfuzz checkpoint speed-up gate =="
  # The same dense crash-point scan resimulated from checkpoints and from
  # scratch: one long-horizon Silo cell, 96 crash points on the
  # op-boundary cycle axis. A from-scratch point replays the whole crash
  # prefix, a resumed one at most the one step past the checkpoint its
  # walk of the clean run lent it, so the checkpointed scan must stay
  # >= 5x cheaper (10-12x measured on 2 shared vCPUs, once the verdict
  # and the digest read PM a page at a time and a resumed point's cache
  # levels copy in only the sets it writes). The clock is each run's CPU time (user + sys), not
  # its wall time, which other load on the host stretches; one reading
  # still spreads widely on shared CPUs, so each side is the median of
  # three, the two sides' runs alternating. Every pair must report the
  # same body: resuming may only trade time, never answers. The walk
  # holds one checkpoint at a time, so each checkpointed scan's peak RSS
  # must also stay at or under 96 MB.
  ckpt_dir="target/reports-ci-ckpt"
  rm -rf "$ckpt_dir"
  ckpt_cpus=() scratch_cpus=() ckpt_rss=0
  for _ in 1 2 3; do
    ckpt=$(rusage "$EVALUATE" crashfuzz --txs 8000 --points 96 --jobs 1 \
      --scheme Silo --bench Hash --fault op-boundary --no-result-store \
      --json-dir "$ckpt_dir/ckpt")
    scratch=$(rusage "$EVALUATE" crashfuzz --txs 8000 --points 96 --jobs 1 \
      --scheme Silo --bench Hash --fault op-boundary --no-result-store \
      --no-checkpoints --json-dir "$ckpt_dir/scratch")
    read -r rss cpu <<< "$ckpt"
    ckpt_cpus+=("$cpu")
    ckpt_rss=$(awk -v a="$ckpt_rss" -v b="$rss" 'BEGIN { print (a > b ? a : b) }')
    read -r _ cpu <<< "$scratch"
    scratch_cpus+=("$cpu")
    cmp -s <(strip_envelope "$ckpt_dir/ckpt/crashfuzz.json") \
           <(strip_envelope "$ckpt_dir/scratch/crashfuzz.json") \
      || { echo "FAIL: checkpointed crashfuzz report differs from the from-scratch one" >&2
           exit 1; }
  done
  ckpt_cpu=$(median3 "${ckpt_cpus[@]}")
  scratch_cpu=$(median3 "${scratch_cpus[@]}")
  awk -v ckpt="$ckpt_cpu" -v scratch="$scratch_cpu" \
    'BEGIN { exit !(ckpt * 5 <= scratch) }' \
    || { echo "FAIL: checkpointed crashfuzz (median ${ckpt_cpu} s CPU of ${ckpt_cpus[*]}) not >= 5x cheaper than scratch (median ${scratch_cpu} s CPU of ${scratch_cpus[*]})" >&2
         exit 1; }
  awk -v rss="$ckpt_rss" 'BEGIN { exit !(rss <= 96) }' \
    || { echo "FAIL: checkpointed crashfuzz peaked at $ckpt_rss MB, over 96 MB" >&2
         exit 1; }
  echo "checkpointed median ${ckpt_cpu} s CPU (${ckpt_cpus[*]}; peak ${ckpt_rss} MB) vs median ${scratch_cpu} s CPU from scratch (${scratch_cpus[*]}), same report body"
  rm -rf "$ckpt_dir"

  echo "== crashfuzz unit gate =="
  # The fault cells of one scheme x workload run as one execution unit:
  # one clean run and one walk of it serve all three faults' crash
  # points. So sweeping all three faults must cost at most 2x the CPU
  # time (user + sys) of sweeping op-boundary alone, which is a unit of
  # one; a clean run per fault cell read 2.5-3.3x. Each side is the
  # median of three readings, the two sides' runs alternating.
  unit_dir="target/reports-ci-unit"
  rm -rf "$unit_dir"
  all_cpus=() one_cpus=()
  for _ in 1 2 3; do
    unit_all=$(rusage "$EVALUATE" crashfuzz --txs 2000 --bench Hash --jobs 1 \
      --no-result-store --json-dir "$unit_dir/all")
    unit_one=$(rusage "$EVALUATE" crashfuzz --txs 2000 --bench Hash --jobs 1 \
      --no-result-store --fault op-boundary --json-dir "$unit_dir/one")
    read -r _ cpu <<< "$unit_all"
    all_cpus+=("$cpu")
    read -r _ cpu <<< "$unit_one"
    one_cpus+=("$cpu")
  done
  all_cpu=$(median3 "${all_cpus[@]}")
  one_cpu=$(median3 "${one_cpus[@]}")
  awk -v all="$all_cpu" -v one="$one_cpu" 'BEGIN { exit !(all <= 2 * one) }' \
    || { echo "FAIL: crashfuzz over three faults (median ${all_cpu} s CPU of ${all_cpus[*]}) costs over 2x one fault (median ${one_cpu} s CPU of ${one_cpus[*]})" >&2
         exit 1; }
  echo "three faults median ${all_cpu} s CPU (${all_cpus[*]}) vs op-boundary alone median ${one_cpu} s CPU (${one_cpus[*]})"
  rm -rf "$unit_dir"

  echo "== fuzz checkpoint memory gate =="
  # Every fuzz candidate resumes from checkpoints that one walk of its
  # cell's clean run keeps, at most one per seed event (SEED_POINTS), and
  # a cell drops them when its search ends. So a serial search of the
  # full default matrix at --txs 200 must peak at or under 40 MB RSS.
  fuzz_rss_dir="target/reports-ci-fuzz-rss"
  rm -rf "$fuzz_rss_dir"
  fuzz_usage=$(rusage "$EVALUATE" fuzz --no-corpus --txs 200 --jobs 1 \
    --no-result-store --json-dir "$fuzz_rss_dir")
  read -r fuzz_rss _ <<< "$fuzz_usage"
  awk -v rss="$fuzz_rss" 'BEGIN { exit !(rss <= 40) }' \
    || { echo "FAIL: fuzz --txs 200 peaked at $fuzz_rss MB, over 40 MB" >&2; exit 1; }
  echo "fuzz --txs 200 peaked at ${fuzz_rss} MB"
  rm -rf "$fuzz_rss_dir"

  echo "== trace lifetime memory gate =="
  # A run drops each trace after the last cell of its family (workload,
  # cores, seed), so the figure grids hold about one family's traces per
  # worker, and each worker one machine (97 MB while every trace stayed
  # for the process). fig11 at the benchmark's size must peak at or
  # under 44 MB RSS: figgrid's ~38 MB peak, which fig11 sets, plus the
  # benchmark's 15 % peak_rss_mb bound (33-38 MB measured). A fig14 unit
  # holds one trace, one setup fork and one machine for its workload's
  # five multipliers at once, so fig14 must peak at or under 44 MB too,
  # set the same way (~30 MB measured).
  grid_rss_dir="target/reports-ci-grid-rss"
  rm -rf "$grid_rss_dir"
  for gate in fig11:44 fig14:44; do
    exp=${gate%%:*} bound=${gate#*:}
    grid_usage=$(rusage "$EVALUATE" "$exp" --txs 600 --jobs 2 --no-result-store \
      --json-dir "$grid_rss_dir")
    read -r grid_rss _ <<< "$grid_usage"
    awk -v rss="$grid_rss" -v bound="$bound" 'BEGIN { exit !(rss <= bound) }' \
      || { echo "FAIL: $exp --txs 600 peaked at $grid_rss MB, over $bound MB" >&2; exit 1; }
    echo "$exp --txs 600 peaked at ${grid_rss} MB (bound $bound MB)"
  done
  rm -rf "$grid_rss_dir"
}

# Check every stage name before the first stage runs.
for stage in "${@:-all}"; do
  case "$stage" in
    build | test | lint | smoke | fuzz | bench | all) ;;
    *)
      echo "usage: scripts/ci.sh [build|test|lint|smoke|fuzz|bench|all]..." >&2
      exit 2
      ;;
  esac
done
for stage in "${@:-all}"; do
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
  esac
done
