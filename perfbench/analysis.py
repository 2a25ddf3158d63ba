"""Parsing and arithmetic of the perfbench benchmark.

Everything here is a pure function of recorded reports, stderr text and
tracer output, so tests/test_analysis.py checks it on recorded data
without building or running the simulator.
"""

import re
import statistics

WORKLOADS = ("figgrid", "crash", "warm")
SCHEMES = ("Base", "FWB", "MorLog", "LAD", "Silo")
CYCLE_CATEGORIES = ("execute", "commit_stall", "log_buffer_full", "wpq_full", "drain", "recovery")

# The end-to-end metrics every untraced run prints: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("peak_rss_mb", "MB"),
    ("silo_writes_vs_base", "ratio"),
    ("silo_tp_vs_base", "ratio"),
    ("fuzz_coverage_bits", "count"),
)

# A traced span is time in the layer named before the first '.' of its
# name (`engine.run:Silo` is engine time). `pass`, `experiment:..` and
# `cell:..` spans only group their children; their self time is other_s.
LAYERS = ("workloads", "trace_cache", "engine", "checkpoint", "crash", "result_store", "report")

# Modelled-layer counters, summed over fig11's 8-core cells:
# (metric prefix, stats group, stats key, schemes).
MODELLED = (
    ("pm.media_line_writes", "pm", "media_line_writes", ("Silo", "Base")),
    ("pm.coalesced_hits", "pm", "coalesced_hits", ("Silo",)),
    ("pm.dcw_suppressed", "pm", "dcw_suppressed", ("Silo",)),
    ("cache.pm_writebacks", "cache", "pm_writebacks", ("Silo", "Base")),
    ("core.log_entries_generated", "scheme_stats", "log_entries_generated", ("Silo",)),
    ("core.log_entries_ignored", "scheme_stats", "log_entries_ignored", ("Silo",)),
    ("core.log_entries_merged", "scheme_stats", "log_entries_merged", ("Silo",)),
    ("core.inplace_update_words", "scheme_stats", "inplace_update_words", ("Silo",)),
    ("memctrl.stall_cycles", "mc", "stall_cycles", ("Silo", "Base")),
)


def per_layer_catalogue():
    """(name, unit, better) of every per-layer metric a traced run prints."""
    cat = [("engine.run_s", "s", "lower")]
    cat += [(f"engine.run_s.{s}", "s", "lower") for s in SCHEMES]
    cat += [
        ("engine.events", "count", "lower"),
        ("engine.ns_per_event", "ns", "lower"),
        ("engine.setup_event_share", "ratio", "lower"),
    ]
    for prefix, _, _, schemes in MODELLED:
        cat += [(f"{prefix}.{s}", "count", "lower") for s in schemes]
    cat.append(("core.overflow_events.Silo", "count", "lower"))
    cat += [
        (f"cycles.{c}.{s}", "cycles", "lower") for c in CYCLE_CATEGORIES for s in ("Silo", "Base")
    ]
    cat += [
        ("checkpoint.record_s", "s", "lower"),
        ("checkpoint.count", "count", "lower"),
        ("crash.resume_ms", "ms", "lower"),
        ("crash.scratch_ms", "ms", "lower"),
        ("crash.execs", "count", "higher"),
        ("crash.resumed_share", "ratio", "higher"),
        ("spec.ms", "ms", "lower"),
        ("result_store.read_ms", "ms", "lower"),
        ("result_store.persist_ms", "ms", "lower"),
        ("result_store.hits", "count", "higher"),
        ("result_store.misses", "count", "lower"),
        ("result_store.invalidated", "count", "lower"),
        ("report.render_s", "s", "lower"),
        ("report.write_s", "s", "lower"),
    ]
    for w in WORKLOADS:
        cat += [
            (f"workloads.build_trace_s.{w}", "s", "lower"),
            (f"workloads.traces.{w}", "count", "lower"),
            (f"trace_cache.generations.{w}", "count", "lower"),
            (f"trace_cache.hits.{w}", "count", "higher"),
            (f"runner.efficiency.{w}", "ratio", "higher"),
            (f"runner.slowest_cell_s.{w}", "s", "lower"),
            (f"layers_s.{w}", "s", "lower"),
            (f"other_s.{w}", "s", "lower"),
            (f"traced_pass_s.{w}", "s", "lower"),
            (f"untraced_pass_s.{w}", "s", "lower"),
            (f"traced_minus_untraced_s.{w}", "s", "lower"),
        ]
    return cat


# --- reports -----------------------------------------------------------------


def body(report):
    """A report without its run envelope (`jobs`, `wall_ms`): the part that
    must repeat exactly from one invocation to the next."""
    return {k: v for k, v in report.items() if k not in ("jobs", "wall_ms")}


def grid_stats(report, cores):
    """{(workload, scheme): stats} of a grid report's cells at one core count."""
    return {
        (c["workload"], c["scheme"]): c["stats"]
        for c in report["cells"]
        if c.get("cores") == cores
    }


def throughput(stats):
    """Committed transactions per 1000 simulated cycles (`SimStats::throughput`)."""
    cycles = stats["sim_cycles"]
    return 0.0 if cycles == 0 else stats["txs_committed"] * 1000.0 / cycles


def _average_ratio(report, metric, cores=8, scheme="Silo", reference="Base"):
    """The Average-row entry of `scheme` in a grid table: the mean over the
    benchmarks of metric(scheme) / metric(reference), summed in row order
    exactly as the table renderer sums it."""
    cells = grid_stats(report, cores)
    benches = list(dict.fromkeys(w for w, _ in cells))
    total = 0.0
    for b in benches:
        norm = metric(cells[(b, reference)])
        total += 0.0 if norm == 0 else metric(cells[(b, scheme)]) / norm
    return total / len(benches)


def silo_writes_vs_base(fig11):
    """fig11's 8-core table, Silo column of the Average row: media line
    writes, Silo / Base."""
    return _average_ratio(fig11, lambda s: float(s["pm"]["media_line_writes"]))


def silo_tp_vs_base(fig11):
    """Silo / Base throughput over fig11's 8-core cells, averaged over the
    benchmarks: fig12's 8-core Silo Average."""
    return _average_ratio(fig11, throughput)


def rendered_average(text, cores=8, scheme="Silo"):
    """The Average entry of `scheme` in the `(N cores)` table of a grid
    experiment's text output, as printed."""
    lines = text.splitlines()
    title = f"({cores} core{'' if cores == 1 else 's'})"
    start = lines.index(title)
    column = lines[start + 1].split().index(scheme)
    for line in lines[start + 2 :]:
        fields = line.split()
        if fields and fields[0] == "Average":
            return fields[1 + column]
    raise ValueError(f"no Average row under {title}")


def derived_average(report, cores=8, scheme="Silo"):
    """Mean of the normalized `scheme` column of a grid report's derived table."""
    table = next(t for t in report["derived"]["tables"] if t["cores"] == cores)
    column = table["schemes"].index(scheme)
    total = 0.0
    for row in table["rows"]:
        total += row["normalized"][column]
    return total / len(table["rows"])


def fig14_average(fig14):
    """fig14's Silo throughput Average at its largest write-set multiplier
    (16x)."""
    rows = fig14["derived"]["throughput"]
    return sum(r["normalized"][-1] for r in rows) / len(rows)


def fuzz_coverage_bits(fuzz):
    """Sum of `coverage_bits` over a fuzz report's cells."""
    return sum(int(row["coverage_bits"]) for row in fuzz["derived"]["rows"])


def crash_violations(report):
    """Violations a crashfuzz (`p*_viol`) or fuzz (`violations`) report
    records; a cell that failed to run counts as one."""
    if report["experiment"] == "fuzz":
        return sum(int(row.get("violations", 1)) for row in report["derived"]["rows"])
    total = 0
    for cell in report["cells"]:
        values = cell.get("values")
        if not values:
            total += 1
            continue
        total += sum(int(values[f"p{j}_viol"]) for j in range(int(values["points"])))
    return total


def modelled_counts(fig11, fig14):
    """Exact modelled-layer counters: fig11's 8-core cells summed over the
    benchmarks, and Silo's overflow events in fig14's 16x cells."""
    cells = grid_stats(fig11, 8)
    m = {}
    for prefix, group, key, schemes in MODELLED:
        for s in schemes:
            m[f"{prefix}.{s}"] = sum(st[group][key] for (_, sc), st in cells.items() if sc == s)
    m["core.overflow_events.Silo"] = sum(
        c["stats"]["scheme_stats"]["overflow_events"]
        for c in fig14["cells"]
        if c.get("param") == "mult=16"
    )
    return m


# --- stderr ------------------------------------------------------------------

_TRACE_CACHE = re.compile(r"^\[trace-cache\] (\d+) unique keys, (\d+) generated, (\d+) hits", re.M)
_RESULT_STORE = re.compile(r"^\[result-store\] (\d+) hits, (\d+) misses, (\d+) invalidated", re.M)


def cache_counts(stderr):
    """The counters of an invocation's `[trace-cache]` and `[result-store]`
    stderr lines; a missing line gives None."""
    tc = _TRACE_CACHE.search(stderr)
    rs = _RESULT_STORE.search(stderr)
    return {
        "trace_cache": None
        if tc is None
        else dict(zip(("unique_keys", "generations", "hits"), map(int, tc.groups()))),
        "result_store": None
        if rs is None
        else dict(zip(("hits", "misses", "invalidated"), map(int, rs.groups()))),
    }


def cache_failure(counts, warm):
    """Why an invocation's result-store use is wrong, or None. On a warm
    store any miss or invalidation means it re-simulated; on an empty
    store any hit means it was not empty. A missing line is no failure."""
    store = counts["result_store"]
    if store is None:
        return None
    if warm and (store["misses"] or store["invalidated"]):
        return (
            f"re-simulated on a warm store: {store['misses']} misses, "
            f"{store['invalidated']} invalidated"
        )
    if not warm and store["hits"]:
        return f"{store['hits']} result-store hits on an empty store"
    return None


# --- traced spans ------------------------------------------------------------
#
# A span is [name, start ns, end ns, parent index or None, pass id]; pass 0
# is the traced pass, pass 1 the probes that run after it.


def layer_of(name):
    """The layer a span's self time belongs to, or None for a grouping span."""
    layer, dot, _ = name.split(":", 1)[0].partition(".")
    return layer if dot and layer in LAYERS else None


def breakdown(spans, pass_id=0):
    """(seconds per layer, other_s, pass seconds) of one traced pass.

    A span's self time is its duration minus its direct children's. The
    pass's spans all descend from one root span, so their self times add
    up to the root's duration: the self times of layer spans are the
    layers, and the rest is other_s. Raises ValueError when the spans do
    not nest, since sum(layers) + other_s == pass would then not hold."""
    own = {i: s[2] - s[1] for i, s in enumerate(spans) if s[4] == pass_id}
    roots = [i for i in own if spans[i][3] is None]
    if len(roots) != 1:
        raise ValueError(f"pass {pass_id} has {len(roots)} root spans")
    for i in own:
        name, start, end, parent, _ = spans[i]
        if parent is not None:
            if parent not in own:
                raise ValueError(f"span {name!r} has its parent outside pass {pass_id}")
            if start < spans[parent][1] or end > spans[parent][2]:
                raise ValueError(f"span {name!r} is not inside its parent")
            own[parent] -= end - start
    layers = dict.fromkeys(LAYERS, 0)
    other = 0
    for i, ns in own.items():
        if ns < 0:
            raise ValueError(f"span {spans[i][0]!r} is shorter than its children")
        layer = layer_of(spans[i][0])
        if layer:
            layers[layer] += ns
        else:
            other += ns
    root = spans[roots[0]]
    if sum(layers.values()) + other != root[2] - root[1]:
        raise ValueError("layer and other self times do not add up to the pass")
    return {k: v / 1e9 for k, v in layers.items()}, other / 1e9, (root[2] - root[1]) / 1e9


def durations(spans, name, pass_id=None):
    """Seconds of every span called `name` (in pass `pass_id`, if given)."""
    return [
        (end - start) / 1e9
        for n, start, end, _, p in spans
        if n == name and (pass_id is None or p == pass_id)
    ]


def _enclosing(spans, i, prefix):
    """The nearest span at or above span i whose name starts with prefix."""
    while i is not None and not spans[i][0].startswith(prefix):
        i = spans[i][3]
    return i


def runner_stats(spans, jobs):
    """(efficiency, slowest cell seconds) of a traced run. Efficiency is the
    cell time of the serial pass over jobs x the wall time of one
    run_cells of the same experiments. That run_cells runs after the pass,
    when every trace is cached, so the trace generation inside the pass's
    cells is left out of their time."""
    cell_s, slowest = {}, 0.0
    for name, start, end, parent, p in spans:
        if p == 0 and name.startswith("cell:"):
            experiment = spans[parent][0].partition(":")[2]
            cell_s[experiment] = cell_s.get(experiment, 0.0) + (end - start) / 1e9
            slowest = max(slowest, (end - start) / 1e9)
    for name, start, end, parent, p in spans:
        if p == 0 and name == "workloads.build_trace":
            cell = _enclosing(spans, parent, "cell:")
            if cell is not None:
                experiment = spans[spans[cell][3]][0].partition(":")[2]
                cell_s[experiment] -= (end - start) / 1e9
    wall = {
        n.partition(":")[2]: (e - s) / 1e9
        for n, s, e, _, _ in spans
        if n.startswith("probe.run_cells:")
    }
    return sum(cell_s[x] for x in wall) / (jobs * sum(wall.values())), slowest


def per_layer(docs, untraced_s, store_counts, fig11, fig14):
    """Every per-layer metric of a traced run.

    docs: the tracer's output per workload; untraced_s: seconds of the
    untraced pass per workload; store_counts: the result-store counters of
    each untraced pass, summed over its invocations; fig11, fig14: the
    untraced figgrid reports."""
    fig, crash, warm = (docs[w] for w in WORKLOADS)
    engine_s = breakdown(fig["spans"])[0]["engine"]
    m = {"engine.run_s": engine_s}
    for s in SCHEMES:
        m[f"engine.run_s.{s}"] = sum(durations(fig["spans"], f"engine.run:{s}", 0))
    m["engine.events"] = fig["counters"]["engine.events"]
    m["engine.ns_per_event"] = engine_s * 1e9 / fig["counters"]["engine.events"]
    m["engine.setup_event_share"] = (
        fig["counters"]["probe.setup_events"] / fig["counters"]["engine.delta_events"]
    )
    m.update(modelled_counts(fig11, fig14))
    for c in CYCLE_CATEGORIES:
        for s in ("Silo", "Base"):
            m[f"cycles.{c}.{s}"] = fig["counters"][f"cycles.{c}.{s}"]

    scratch = statistics.fmean(durations(crash["spans"], "probe.scratch"))
    m["checkpoint.record_s"] = breakdown(crash["spans"])[0]["checkpoint"]
    m["checkpoint.count"] = crash["counters"]["checkpoint.count"]
    m["crash.resume_ms"] = statistics.fmean(durations(crash["spans"], "crash.resume")) * 1e3
    m["crash.scratch_ms"] = scratch * 1e3
    m["crash.execs"] = crash["counters"]["crash.execs"]
    m["crash.resumed_share"] = (
        crash["counters"].get("crash.resumed", 0.0) / crash["counters"]["crash.execs"]
    )
    m["spec.ms"] = (statistics.fmean(durations(crash["spans"], "probe.spec")) - scratch) * 1e3

    cold = durations(fig["spans"], "probe.store_cold")
    plain = durations(fig["spans"], "probe.execute")
    m["result_store.read_ms"] = (
        statistics.fmean(durations(warm["spans"], "result_store.read")) * 1e3
    )
    m["result_store.persist_ms"] = statistics.median([a - b for a, b in zip(cold, plain)]) * 1e3
    for k in ("hits", "misses", "invalidated"):
        m[f"result_store.{k}"] = sum(store_counts[w][k] for w in WORKLOADS)
    m["report.render_s"] = sum(durations(warm["spans"], "report.render", 0))
    m["report.write_s"] = sum(durations(warm["spans"], "report.write", 0))

    for w in WORKLOADS:
        d = docs[w]
        layers, other, total = breakdown(d["spans"])
        efficiency, slowest = runner_stats(d["spans"], d["jobs"])
        m[f"workloads.build_trace_s.{w}"] = layers["workloads"]
        m[f"workloads.traces.{w}"] = d["counters"].get("workloads.traces", 0.0)
        m[f"trace_cache.generations.{w}"] = d["trace_cache"]["generations"]
        m[f"trace_cache.hits.{w}"] = d["trace_cache"]["hits"]
        m[f"runner.efficiency.{w}"] = efficiency
        m[f"runner.slowest_cell_s.{w}"] = slowest
        m[f"layers_s.{w}"] = sum(layers.values())
        m[f"other_s.{w}"] = other
        m[f"traced_pass_s.{w}"] = total
        m[f"untraced_pass_s.{w}"] = untraced_s[w]
        m[f"traced_minus_untraced_s.{w}"] = total - untraced_s[w]
    return m
