#!/usr/bin/env python3
"""perfbench: times whole `evaluate` invocations on two workloads.

    python3 perfbench/run.py --workload figgrid|crash|all
                             [--seed N] [--seconds S] [--trace 0|1]

Run it from anywhere; it builds and runs the checkout that holds this file.
It builds the release `evaluate` binary (into $CARGO_TARGET_DIR, default
`.bench_build`), prepares the run (`setup_s`), then repeats passes of the
workload's invocations for --seconds. Each invocation is a fresh child
process with a run-private result store and report directory under
`.perfbench-work/`. Every invocation's output is checked; one that fails a
check counts as a failed operation.

With --trace 1 it instead makes one untraced run of every pass section
(figgrid's cold and warm halves, crash) and replays each in process under
the tracer (perfbench/tracer), which records a span around every call into
a layer. It prints the per-layer metrics.

Progress and tables go to standard error. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
perfbench/README.md explains the workloads and the metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
import analysis as A  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench-work")
DEFAULT_SEED = 42
# Transactions per figure run. At 600 the warm-up transactions every run
# simulates before it measures are under half the simulated events (69 %
# at 200), so most engine time goes to the steady state the figures plot.
TXS = "600"
# Set-up is repeated this many times per run and reported as the median.
SETUPS = 3
# Other tenants of a shared host slow it in two ways. The hypervisor runs
# them on this VM's CPUs: the guest counts that time as steal, and spawn()
# takes the steal of the child's lifetime, spread over the CPUs, out of its
# time. They also contend for caches and memory: host time is scaled to the
# speed at which the reference kernel (perfbench/refkernel) takes
# REF_NOMINAL_S, steal taken out. The kernel runs before a timed invocation
# once REF_EVERY_S have gone by since its last run, and once after the last
# pass. Each invocation is scaled by the mean of the two kernel times that
# bracket it (see Scaler), so the scale follows the host's speed from one
# invocation to the next.
REF_NOMINAL_S = 0.3
REF_EVERY_S = 1.0
JOBS = len(os.sched_getaffinity(0))
CPUS = os.cpu_count()

FIG11 = ("fig11", "--txs", TXS)
FIG14 = ("fig14", "--txs", TXS)
FUZZ = ("fuzz", "--no-corpus")
# The invocations of each section of a pass; the traced run traces each
# section on its own. `fuzz` runs without its corpus: with one, every pass
# would read and extend target/fuzz-corpus.
SECTIONS = {
    "figgrid": (FIG11, FIG14),
    "crash": (("crashfuzz",), FUZZ),
    "warm": (FIG11, ("fig12", "--txs", TXS), FIG14),
}
# The sections of one pass of each workload, run in order on one store that
# the pass starts empty: `figgrid`'s cold section fills the store that its
# `warm` section then reads.
WORKLOADS = {"figgrid": ("figgrid", "warm"), "crash": ("crash",)}
# Each exact end-to-end metric has one definition, on the report of one
# experiment. A workload whose passes do not run that experiment runs it
# once, untimed, after its passes, so every run reports every metric.
EXTRA = {"figgrid": FUZZ, "crash": FIG11}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    """Cargo's target directory. Cargo runs in ROOT, so a relative
    CARGO_TARGET_DIR is relative to ROOT."""
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(trace):
    """Builds the release `evaluate` binary and the reference kernel, and
    the tracer with --trace 1. Returns the paths of the three; exits 1 when
    the checkout cannot be built."""
    if not os.path.isfile(os.path.join(ROOT, "crates", "bench", "Cargo.toml")):
        log(f"error: {ROOT} holds no silo workspace to build")
        sys.exit(1)
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cargo = ["cargo", "build", "--release", "--offline"]
    commands = [cargo + ["-p", "silo-bench", "--bin", "evaluate"]]
    for package in ("refkernel", "tracer") if trace else ("refkernel",):
        manifest = os.path.join(ROOT, "perfbench", package, "Cargo.toml")
        commands.append(cargo + ["--manifest-path", manifest])
    for cmd in commands:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            log(f"error: {' '.join(cmd)} failed")
            sys.exit(1)
    release = os.path.join(target_dir(), "release")
    return tuple(
        os.path.join(release, name)
        for name in ("evaluate", "perfbench-tracer", "perfbench-refkernel")
    )


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def stolen_s():
    """Seconds of CPU time the hypervisor has taken from this VM, summed over
    its CPUs: the steal column of /proc/stat. 0 where there is none."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            fields = f.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def spawn(argv, log_stem=None, env=None):
    """Runs one child to its exit, its output going to `<log_stem>.out` and
    `.err` (or nowhere). Returns (exit code, seconds, peak RSS in KiB). The
    seconds are the wall time from spawn to exit less the time stolen from
    the VM meanwhile, spread over its CPUs. wait4 reports the child's own
    ru_maxrss, its VmHWM when it exited."""
    out = open(log_stem + ".out", "wb") if log_stem else subprocess.DEVNULL
    err = open(log_stem + ".err", "wb") if log_stem else subprocess.DEVNULL
    try:
        stolen, start = stolen_s(), time.perf_counter()
        child = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        _, status, usage = os.wait4(child.pid, 0)
        seconds = time.perf_counter() - start - (stolen_s() - stolen) / CPUS
    finally:
        if log_stem:
            out.close()
            err.close()
    return os.waitstatus_to_exitcode(status), seconds, usage.ru_maxrss


def read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


class Invocation:
    """One finished `evaluate <experiment>` child and what it left behind."""

    def __init__(self, experiment, code, rss_kib, out_dir):
        self.experiment = experiment
        self.code = code
        self.rss_kib = rss_kib
        stem = os.path.join(out_dir, experiment)
        self.stdout = read(stem + ".out")
        self.stderr = read(stem + ".err")
        self.report = None
        if code == 0 and os.path.isfile(stem + ".json"):
            with open(stem + ".json", encoding="utf-8") as f:
                self.report = json.load(f)


class Scaler:
    """Takes host seconds to reference-speed seconds. Each timed invocation
    is scaled by REF_NOMINAL_S over the mean of the reference-kernel times
    just before and just after it."""

    def __init__(self):
        self.refs = []
        # Invocations timed since the kernel last ran: (host seconds, the
        # kernel time before the invocation, the list its scaled time goes to).
        self.pending = []

    def reference(self, seconds):
        """Records one kernel time and scales the invocations timed since
        the one before it."""
        for host, before, scaled in self.pending:
            scaled.append(host * REF_NOMINAL_S / ((before + seconds) / 2))
        self.pending = []
        self.refs.append(seconds)

    def timed(self, seconds, scaled):
        """Records one invocation of `seconds` host time, timed since the
        last kernel time; its scaled time goes to `scaled` at the next one."""
        self.pending.append((seconds, self.refs[-1], scaled))


class Run:
    """The state of one benchmark run: the binaries, the seed, the
    run-private directories, the reference report bodies, the operation
    tally and the reference kernel's times."""

    def __init__(self, evaluate, seed, name, refkernel=None):
        self.evaluate = evaluate
        self.refkernel = refkernel
        self.seed = seed
        self.dir = fresh_dir(os.path.join(WORK, name))
        self.attempted = {}
        self.failed = {}
        # The first report body of each experiment in the run. Later
        # bodies must equal it. In `warm` the first fig11 and fig14 bodies
        # come from the cold set-up pass, so this also checks that a warm
        # report equals the cold one that populated the store.
        self.first = {}
        self.peak_rss_kib = 0
        self.scaler = Scaler()
        self.last_ref = None

    def reference(self, force=False):
        """Times the reference kernel, if `force` or REF_EVERY_S have gone
        by since it last ran."""
        recent = self.last_ref is not None and time.perf_counter() - self.last_ref < REF_EVERY_S
        if recent and not force:
            return
        code, seconds, _ = spawn([self.refkernel])
        if code != 0:
            log(f"error: the reference kernel exited with code {code}")
            sys.exit(1)
        self.scaler.reference(seconds)
        self.last_ref = time.perf_counter()

    def run_pass(self, workload, invocations, store, warm=False, tag="pass", scaled=None):
        """Spawns the invocations back to back on `store` and checks them.
        With a `scaled` list, the reference kernel runs before each
        invocation when it is due, and each invocation's reference-speed
        seconds go to `scaled`. Returns (the invocations' host seconds,
        summed from each spawn to its exit, invocations)."""
        out_dir = os.path.join(self.dir, tag)
        os.makedirs(out_dir, exist_ok=True)
        env = dict(os.environ, SILO_RESULT_STORE=store)
        raw = []
        seconds = 0.0
        for inv in invocations:
            if scaled is not None:
                self.reference()
            argv = [self.evaluate, *inv, "--seed", str(self.seed), "--jobs", str(JOBS)]
            argv += ["--json-dir", out_dir]
            code, t, rss_kib = spawn(argv, os.path.join(out_dir, inv[0]), env)
            if scaled is not None:
                self.scaler.timed(t, scaled)
            seconds += t
            raw.append((inv[0], code, rss_kib))
        done = [Invocation(*r, out_dir) for r in raw]
        self.check(workload, done, warm)
        return seconds, done

    def check(self, workload, done, warm):
        for inv in done:
            reasons = invocation_failures(inv, warm, self.first)
            if inv.experiment == "fig12" and not reasons:
                fig11 = next((d.report for d in done if d.experiment == "fig11"), None)
                reasons += fig12_cross_check(fig11, inv)
            self.attempted[workload] = self.attempted.get(workload, 0) + 1
            if reasons:
                self.failed[workload] = self.failed.get(workload, 0) + 1
                log(f"  FAILED {inv.experiment}: {'; '.join(reasons)}")

    def totals(self):
        return sum(self.attempted.values()), sum(self.failed.values())


def invocation_failures(inv, warm, first):
    """Why one invocation counts as failed; empty when it passed every check."""
    if inv.code != 0:
        return [f"exit code {inv.code}: {inv.stderr.strip()[-400:]}"]
    if inv.report is None:
        return ["wrote no report"]
    reasons = []
    body = A.body(inv.report)
    reference = first.setdefault(inv.experiment, body)
    if body != reference:
        reasons.append("report body differs from the run's first one")
    if inv.experiment in ("crashfuzz", "fuzz"):
        violations = A.crash_violations(inv.report)
        if violations:
            reasons.append(f"{violations} crash-consistency violations")
    why = A.cache_failure(A.cache_counts(inv.stderr), warm)
    if why:
        reasons.append(why)
    return reasons


def fig12_cross_check(fig11, fig12):
    """silo_tp_vs_base from fig11's cells must be fig12's 8-core Silo Average,
    both as rendered and as fig12's derived table holds it."""
    if fig11 is None:
        return ["no fig11 report in the pass to cross-check fig12 against"]
    tp = A.silo_tp_vs_base(fig11)
    rendered = A.rendered_average(fig12.stdout)
    derived = A.derived_average(fig12.report)
    reasons = []
    if f"{tp:.3f}" != rendered:
        reasons.append(f"fig12 renders Silo Average {rendered}, fig11 cells give {tp:.3f}")
    if abs(derived - tp) > 1e-9 * tp:
        reasons.append(f"fig12 derived Silo Average {derived!r} != {tp!r} from fig11 cells")
    return reasons


def setup(run, workload, k):
    """One set-up: everything a run does before its first timed pass, which
    is one warm-up invocation, the first of a pass, on an empty store.
    Report bodies it writes become the run's references. Returns (host
    seconds, the invocation's scaled seconds, filled at the next kernel run)."""
    store = fresh_dir(os.path.join(run.dir, f"store-setup{k}"))
    invocations = SECTIONS[WORKLOADS[workload][0]][:1]
    scaled = []
    seconds, done = run.run_pass(workload, invocations, store, tag=f"setup{k}", scaled=scaled)
    run.peak_rss_kib = max([run.peak_rss_kib] + [d.rss_kib for d in done])
    return seconds, scaled


def timed_passes(run, workload, seconds):
    """Repeats passes until `seconds` have gone by, not starting one that
    the median pass so far says would end past that. Returns the host pass
    times and, per pass, its invocations' scaled seconds."""
    times, scaled = [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if times and elapsed + statistics.median(times) > seconds:
            break
        store = fresh_dir(os.path.join(run.dir, "store"))
        scaled.append([])
        t = 0.0
        for section in WORKLOADS[workload]:
            warm = section == "warm"
            s, done = run.run_pass(
                workload, SECTIONS[section], store, warm, f"pass-{section}", scaled[-1]
            )
            run.peak_rss_kib = max([run.peak_rss_kib] + [d.rss_kib for d in done])
            t += s
        times.append(t)
        log(f"  pass {len(times)}: {t:.3f} s")
    run.reference(force=True)
    return times, scaled


def exact_metrics(run, workload):
    """silo_writes_vs_base, silo_tp_vs_base and fuzz_coverage_bits, from the
    run's first fig11 and fuzz reports. Runs EXTRA[workload] for the one the
    passes lack. Returns the metrics, or None when a report is missing."""
    store = fresh_dir(os.path.join(run.dir, "store-extra"))
    run.run_pass(workload, (EXTRA[workload],), store, tag="extra")
    fig11 = run.first.get("fig11")
    fuzz = run.first.get("fuzz")
    if fig11 is None or fuzz is None:
        return None
    fig14 = run.first.get("fig14")
    if fig14 is not None:
        avg = A.fig14_average(fig14)
        log(
            f"  fig14 16x Silo throughput Average: {avg:.3f}"
            f" (paper: 0.926, i.e. -7.4 %; error {100 * (avg - 0.926) / 0.926:+.1f} %)"
        )
    return {
        "silo_writes_vs_base": A.silo_writes_vs_base(fig11),
        "silo_tp_vs_base": A.silo_tp_vs_base(fig11),
        "fuzz_coverage_bits": A.fuzz_coverage_bits(fuzz),
    }


def spread(values):
    """'median (q1..q3, min..max, n=N)' of a list of seconds."""
    n = len(values)
    text = f"median {statistics.median(values):.4f}"
    if n >= 4:
        q = statistics.quantiles(values, n=4)
        text += f", quartiles {q[0]:.4f}..{q[2]:.4f}"
    return text + f", min {min(values):.4f}, max {max(values):.4f}, n={n}"


def run_workload(evaluate, refkernel, workload, seed, seconds):
    """One untraced run. Returns (correct, attempted, failed, metrics)."""
    run = Run(evaluate, seed, workload, refkernel)
    log(f"[perfbench] {workload}: seed {seed}, --jobs {JOBS}, {seconds} s of passes")
    setups = [setup(run, workload, k) for k in range(SETUPS)]
    log(f"  raw set-up times: {spread([s for s, _ in setups])}")
    times, scaled = timed_passes(run, workload, seconds)
    scaled_setups = [sum(s) for _, s in setups]
    scaled_passes = [sum(s) for s in scaled]
    exact = exact_metrics(run, workload)
    attempted, failed = run.totals()
    metrics = {
        "setup_s": statistics.median(scaled_setups),
        "pass_s": statistics.median(scaled_passes),
        "peak_rss_mb": run.peak_rss_kib / 1024,
    }
    metrics.update(exact or dict.fromkeys(("silo_writes_vs_base", "silo_tp_vs_base", "fuzz_coverage_bits"), 0.0))
    units = dict(A.END_TO_END)
    log(f"  {'metric':<22}{'value':>14}  unit")
    for name, value in metrics.items():
        log(f"  {name:<22}{value:>14.6g}  {units[name]}")
    log(f"  raw pass times: {spread(times)}")
    log(f"  scaled pass times: {spread(scaled_passes)}")
    log(f"  reference kernel: {spread(run.scaler.refs)}")
    log(f"  operations: {attempted} attempted, {failed} failed")
    correct = failed == 0 and exact is not None
    return correct, attempted, failed, {k: (v, units[k]) for k, v in metrics.items()}


def run_traced(evaluate, tracer, seed):
    """The traced run. Returns (correct, attempted, failed, metrics)."""
    run = Run(evaluate, seed, "traced")
    stores = {w: os.path.join(run.dir, f"store-{w}") for w in ("figgrid", "crash")}
    stores["warm"] = stores["figgrid"]
    reports, untraced_s, store_counts = {}, {}, {}
    # One untraced run of each section, in this order: the figgrid section
    # populates the store the warm section reads.
    for w in SECTIONS:
        if w != "warm":
            fresh_dir(stores[w])
        t, done = run.run_pass(w, SECTIONS[w], stores[w], warm=w == "warm", tag=w)
        untraced_s[w] = t
        reports[w] = {d.experiment: d.report for d in done}
        counts = [A.cache_counts(d.stderr)["result_store"] for d in done]
        store_counts[w] = {
            k: sum(c[k] for c in counts if c) for k in ("hits", "misses", "invalidated")
        }
        log(f"  untraced {w} pass: {t:.3f} s")
    binary_fingerprints = sorted(os.listdir(stores["figgrid"]))
    docs = {}
    for w in SECTIONS:
        out = os.path.join(run.dir, f"trace-{w}.json")
        argv = [tracer, w, "--seed", str(seed), "--txs", TXS, "--jobs", str(JOBS)]
        argv += ["--reports", os.path.join(run.dir, w), "--out", out]
        if w == "figgrid":
            argv += ["--store", fresh_dir(os.path.join(run.dir, "store-traced"))]
        elif w == "warm":
            argv += ["--store", stores["warm"]]
        code, t, _ = spawn(argv, os.path.join(run.dir, f"trace-{w}"))
        reasons = [f"tracer exit code {code}"] if code != 0 else []
        if not reasons:
            with open(out, encoding="utf-8") as f:
                docs[w] = json.load(f)
            reasons += docs[w]["mismatches"]
            if w != "crash" and docs[w]["store_fingerprints"] != binary_fingerprints:
                reasons.append(
                    f"tracer store fingerprints {docs[w]['store_fingerprints']} differ from"
                    f" the evaluate binary's {binary_fingerprints}: a stale build"
                )
        run.attempted[w] = run.attempted.get(w, 0) + 1
        if reasons:
            run.failed[w] = run.failed.get(w, 0) + 1
            log(f"  FAILED tracer {w}: {'; '.join(reasons)}")
        log(f"  traced {w} run: {t:.3f} s")
    attempted, failed = run.totals()
    for w in SECTIONS:
        log(f"  {w}: {run.attempted.get(w, 0)} attempted, {run.failed.get(w, 0)} failed")
    if len(docs) != len(SECTIONS) or reports["figgrid"].get("fig11") is None:
        return False, attempted, max(failed, 1), {}
    fig = reports["figgrid"]
    values = A.per_layer(docs, untraced_s, store_counts, fig["fig11"], fig["fig14"])
    for w in SECTIONS:
        layers, other, total = A.breakdown(docs[w]["spans"])
        parts = ", ".join(f"{k} {v:.4f}" for k, v in layers.items() if v)
        log(
            f"  {w}: sum(layers) {sum(layers.values()):.4f} + other_s {other:.4f}"
            f" == traced pass {total:.4f} s ({parts});"
            f" traced - untraced = {total - untraced_s[w]:+.4f} s"
        )
    units = {name: unit for name, unit, _ in A.per_layer_catalogue()}
    for name in units:
        log(f"  {name:<36}{values[name]:>16.6g}  {units[name]}")
    return failed == 0, attempted, failed, {k: (values[k], units[k]) for k in units}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    evaluate, tracer, refkernel = build(args.trace)
    os.makedirs(WORK, exist_ok=True)
    if args.trace:
        correct, attempted, failed, metrics = run_traced(evaluate, tracer, args.seed)
    elif args.workload == "all":
        correct, attempted, failed, metrics = True, 0, 0, {}
        for w in WORKLOADS:
            ok, a, f, m = run_workload(evaluate, refkernel, w, args.seed, args.seconds)
            correct, attempted, failed = correct and ok, attempted + a, failed + f
            metrics.update({f"{w}.{k}": v for k, v in m.items()})
    else:
        correct, attempted, failed, metrics = run_workload(
            evaluate, refkernel, args.workload, args.seed, args.seconds
        )
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
