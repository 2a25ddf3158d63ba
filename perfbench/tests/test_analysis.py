"""Tests of the benchmark's parsing and arithmetic on recorded output.

    python3 -m unittest discover -s perfbench/tests

data/ holds output of `evaluate <exp> --seed 42 --jobs 2`: fig11, fig12 and
fig14 at --txs 50, crashfuzz at --txs 8, and fuzz at --txs 8 --execs 4
--no-corpus. The fig11 and fig12 reports keep only their 8-core cells and
tables, and the crashfuzz report only its Silo and Base cells; the
metrics read nothing else. stderr*.txt are the same invocations' standard
error, plus a warm fig11's.
"""

import json
import os
import sys
import types
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.dont_write_bytecode = True

import analysis as A  # noqa: E402
import run  # noqa: E402


def data(name):
    with open(os.path.join(HERE, "data", name), encoding="utf-8") as f:
        return json.load(f) if name.endswith(".json") else f.read()


def stderr_blocks(text):
    """One block per invocation: each ends with its `] done in` line."""
    blocks, current = [], []
    for line in text.splitlines(keepends=True):
        current.append(line)
        if "] done in " in line:
            blocks.append("".join(current))
            current = []
    return blocks


class ReportMetrics(unittest.TestCase):
    def test_silo_writes_vs_base_is_fig11s_rendered_average(self):
        fig11 = data("fig11.json")
        value = A.silo_writes_vs_base(fig11)
        self.assertEqual(f"{value:.3f}", A.rendered_average(data("fig11.txt")))
        self.assertEqual(f"{value:.3f}", "0.069")
        self.assertAlmostEqual(value, A.derived_average(fig11), places=12)

    def test_silo_tp_vs_base_is_fig12s_rendered_average(self):
        value = A.silo_tp_vs_base(data("fig11.json"))
        self.assertEqual(f"{value:.3f}", A.rendered_average(data("fig12.txt")))
        self.assertEqual(f"{value:.3f}", "17.042")
        self.assertAlmostEqual(value, A.derived_average(data("fig12.json")), places=9)

    def test_throughput_matches_the_reported_one(self):
        for cell in data("fig11.json")["cells"]:
            self.assertAlmostEqual(A.throughput(cell["stats"]), cell["stats"]["throughput"])
        self.assertEqual(A.throughput({"sim_cycles": 0, "txs_committed": 5}), 0.0)

    def test_rendered_average_reads_the_named_column_and_table(self):
        text = data("fig11.txt")
        self.assertEqual(A.rendered_average(text, cores=8, scheme="LAD"), "0.102")
        self.assertEqual(A.rendered_average(text, cores=1, scheme="Silo"), "0.037")
        with self.assertRaises(ValueError):
            A.rendered_average(text, cores=16)

    def test_fig12_cross_check(self):
        fig11, fig12 = data("fig11.json"), data("fig12.json")
        good = types.SimpleNamespace(stdout=data("fig12.txt"), report=fig12)
        self.assertEqual(run.fig12_cross_check(fig11, good), [])
        bad_text = good.stdout.replace("17.042", "17.043")
        bad = types.SimpleNamespace(stdout=bad_text, report=fig12)
        self.assertEqual(len(run.fig12_cross_check(fig11, bad)), 1)
        self.assertEqual(len(run.fig12_cross_check(None, good)), 1)

    def test_fig14_average_is_the_rendered_16x_average(self):
        rendered = next(
            line.split()[-1] for line in data("fig14.txt").splitlines() if line.startswith("Average")
        )
        self.assertEqual(f"{A.fig14_average(data('fig14.json')):.3f}", rendered)

    def test_fuzz_coverage_bits_sums_the_cells(self):
        fuzz = data("fuzz.json")
        cells = sum(int(c["values"]["cov"]) for c in fuzz["cells"])
        self.assertEqual(A.fuzz_coverage_bits(fuzz), cells)
        self.assertEqual(A.fuzz_coverage_bits(fuzz), 159)

    def test_crash_violations(self):
        crashfuzz, fuzz = data("crashfuzz.json"), data("fuzz.json")
        self.assertEqual(A.crash_violations(crashfuzz), 0)
        self.assertEqual(A.crash_violations(fuzz), 0)
        crashfuzz["cells"][3]["values"]["p2_viol"] = 2.0
        self.assertEqual(A.crash_violations(crashfuzz), 2)
        del crashfuzz["cells"][0]["values"]
        self.assertEqual(A.crash_violations(crashfuzz), 3)
        fuzz["derived"]["rows"][1]["violations"] = 1.0
        self.assertEqual(A.crash_violations(fuzz), 1)

    def test_modelled_counts(self):
        fig11, fig14 = data("fig11.json"), data("fig14.json")
        m = A.modelled_counts(fig11, fig14)
        silo = [c["stats"] for c in fig11["cells"] if c["scheme"] == "Silo"]
        self.assertEqual(len(silo), 7)
        self.assertEqual(m["pm.media_line_writes.Silo"], sum(s["pm"]["media_line_writes"] for s in silo))
        overflow = sum(c["values"]["overflow"] for c in fig14["cells"] if c["param"] == "mult=16")
        self.assertEqual(m["core.overflow_events.Silo"], overflow)
        self.assertEqual(m["core.overflow_events.Silo"], 4702 + 1769 + 1521 + 320 + 1007 + 2698 + 2440)

    def test_body_drops_only_the_envelope(self):
        fig11 = data("fig11.json")
        body = A.body(fig11)
        self.assertEqual(set(fig11) - set(body), {"jobs", "wall_ms"})
        self.assertEqual(body, A.body(dict(fig11, jobs=8, wall_ms=1.0)))


class Stderr(unittest.TestCase):
    def test_cache_counts(self):
        fig11, fuzz = stderr_blocks(data("stderr.txt"))
        self.assertEqual(
            A.cache_counts(fig11),
            {
                "trace_cache": {"unique_keys": 56, "generations": 56, "hits": 504},
                "result_store": {"hits": 0, "misses": 140, "invalidated": 0},
            },
        )
        self.assertEqual(A.cache_counts(fuzz)["result_store"], {"hits": 0, "misses": 0, "invalidated": 0})
        self.assertEqual(A.cache_counts("[fig11] done in 5 ms\n"), {"trace_cache": None, "result_store": None})

    def test_cache_failure(self):
        cold = A.cache_counts(stderr_blocks(data("stderr.txt"))[0])
        warm = A.cache_counts(data("stderr_warm.txt"))
        self.assertIsNone(A.cache_failure(cold, warm=False))
        self.assertIsNone(A.cache_failure(warm, warm=True))
        self.assertIn("empty store", A.cache_failure(warm, warm=False))
        self.assertIn("re-simulated", A.cache_failure(cold, warm=True))
        missing = A.cache_counts("")
        self.assertIsNone(A.cache_failure(missing, warm=True))
        self.assertIsNone(A.cache_failure(missing, warm=False))


def span(name, start, end, parent=None, pass_id=0):
    return [name, start, end, parent, pass_id]


# A traced pass: two cells, one of which generates a trace inside a trace
# cache lookup, then a render; and one probe span in pass 1.
SPANS = [
    span("pass", 0, 1000),
    span("experiment:fig11", 10, 990, 0),
    span("cell:a", 20, 500, 1),
    span("trace_cache.get", 30, 130, 2),
    span("workloads.build_trace", 40, 120, 3),
    span("engine.run:Silo", 140, 480, 2),
    span("cell:b", 500, 900, 1),
    span("engine.run:Base", 510, 890, 6),
    span("report.render", 900, 950, 1),
    span("probe.run_cells:fig11", 2000, 2350, None, 1),
]


class Breakdown(unittest.TestCase):
    def test_layers_plus_other_is_the_pass(self):
        layers, other, total = A.breakdown(SPANS)
        layers_ns = {k: round(v * 1e9) for k, v in layers.items()}
        self.assertEqual(
            layers_ns,
            {
                "workloads": 80,
                "trace_cache": 100 - 80,
                "engine": 340 + 380,
                "checkpoint": 0,
                "crash": 0,
                "result_store": 0,
                "report": 50,
            },
        )
        # The self times of pass, experiment:fig11, cell:a and cell:b.
        self.assertEqual(round(other * 1e9), 20 + 50 + 40 + 20)
        self.assertEqual(sum(layers_ns.values()) + round(other * 1e9), round(total * 1e9))
        self.assertEqual(round(total * 1e9), 1000)

    def test_spans_that_do_not_nest_are_refused(self):
        overlong = [list(s) for s in SPANS]
        overlong[5][2] = 520  # engine.run:Silo now ends after cell:a
        with self.assertRaises(ValueError):
            A.breakdown(overlong)
        with self.assertRaises(ValueError):
            A.breakdown(SPANS + [span("pass", 0, 5)])

    def test_layer_of(self):
        self.assertEqual(A.layer_of("engine.run:Silo"), "engine")
        self.assertEqual(A.layer_of("cell:Silo/Hash"), None)
        self.assertEqual(A.layer_of("probe.scratch"), None)

    def test_runner_stats_leave_trace_generation_out(self):
        efficiency, slowest = A.runner_stats(SPANS, jobs=2)
        cells = (480 - 80) + 400  # cell:a without its trace generation, cell:b
        self.assertAlmostEqual(efficiency, cells / (2 * 350), places=12)
        self.assertEqual(round(slowest * 1e9), 480)


class ReferenceScaling(unittest.TestCase):
    def test_each_invocation_is_scaled_by_the_kernel_times_around_it(self):
        nominal = run.REF_NOMINAL_S
        scaler = run.Scaler()
        first, second = [], []
        scaler.reference(nominal)
        scaler.timed(2.0, first)
        scaler.timed(1.0, second)
        self.assertEqual(first, [])
        scaler.reference(2 * nominal)
        scaler.timed(3.0, first)
        self.assertEqual(len(first), 1)
        scaler.reference(2 * nominal)
        # nominal / mean(nominal, 2 * nominal) is 2/3, nominal / (2 * nominal) 1/2.
        self.assertAlmostEqual(first[0], 2.0 / 1.5)
        self.assertAlmostEqual(second[0], 1.0 / 1.5)
        self.assertAlmostEqual(first[1], 3.0 / 2)
        self.assertEqual(scaler.refs, [nominal, 2 * nominal, 2 * nominal])


class Catalogue(unittest.TestCase):
    def test_benchmark_json_lists_what_run_py_prints(self):
        with open(os.path.join(HERE, "..", "..", "BENCHMARK.json"), encoding="utf-8") as f:
            bench = json.load(f)
        self.assertEqual(
            [(m["name"], m["unit"]) for m in bench["end_to_end"]], list(A.END_TO_END)
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
            A.per_layer_catalogue(),
        )
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
