#!/usr/bin/env python3
"""Self-tests of the comparator, the span accounting and the metric set
on synthetic inputs. Run: python3 perfbench/test_perfbench.py"""

import json
import unittest

import compare
import run

BENCH = {
    "workloads": [{"name": "w", "why": "-"}],
    "end_to_end": [
        {"name": "frames_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ],
}


def rec(seed, fps, setup, failed=0, time=""):
    return {"workload": "w",
            "provenance": {"seed": seed, "trace": 0, "time": time or f"{seed:04d}"},
            "result": {"correct": failed == 0, "attempted": 10, "failed": failed,
                       "metrics": {"frames_per_s": {"value": fps, "unit": "1/s"},
                                   "setup_s": {"value": setup, "unit": "s"}}}}


def runs(fps, setup=None, failed=0):
    setup = setup or [1.0] * len(fps)
    return {"w": [rec(i, f, s, failed) for i, (f, s) in enumerate(zip(fps, setup))]}


def verdicts(parent, change):
    return {r[1]: r[5] for r in compare.compare(parent, change, BENCH)}


TIGHT = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0, 10.01]


class Verdicts(unittest.TestCase):
    def test_better(self):
        v = verdicts(runs(TIGHT), runs([x * 1.2 for x in TIGHT]))
        self.assertEqual(v["frames_per_s"], "better")

    def test_worse(self):
        v = verdicts(runs(TIGHT), runs([x * 0.8 for x in TIGHT]))
        self.assertEqual(v["frames_per_s"], "worse")

    def test_worse_lower_is_better(self):
        v = verdicts(runs(TIGHT), runs(TIGHT, setup=[1.5] * 10))
        self.assertEqual(v["setup_s"], "worse")

    def test_unchanged(self):
        v = verdicts(runs(TIGHT), runs([x * 0.99 for x in TIGHT]))
        self.assertEqual(v["frames_per_s"], "unchanged")
        self.assertEqual(v["setup_s"], "unchanged")

    def test_unresolved_when_spread_exceeds_bound(self):
        wide = [6.0, 14.0, 7.0, 13.0, 8.0, 12.0, 6.5, 13.5, 10.0, 10.0]
        v = verdicts(runs(wide), runs([x * 0.97 for x in wide]))
        self.assertEqual(v["frames_per_s"], "unresolved")

    def test_wide_spread_but_every_change_run_better(self):
        wide = [1.0, 1.0, 1.0, 5.0, 5.0, 5.0, 9.0, 9.0, 9.0, 9.0]
        v = verdicts(runs(wide), runs([10.0] * 10))
        # Wins every pair, but the medians differ by less than the
        # parent's own spread: no gain, and no doubt that it is not worse.
        self.assertEqual(v["frames_per_s"], "unchanged")

    def test_too_few_pairs_for_a_gain(self):
        v = verdicts(runs(TIGHT[:5]), runs([x * 1.2 for x in TIGHT[:5]]))
        self.assertEqual(v["frames_per_s"], "unresolved")

    def test_too_few_wins_for_a_gain(self):
        change = [x * 1.2 for x in TIGHT]
        change[0] = change[1] = 9.0
        v = verdicts(runs(TIGHT), runs(change))
        self.assertNotEqual(v["frames_per_s"], "better")

    def test_more_failures_void_a_gain(self):
        v = verdicts(runs(TIGHT), runs([x * 1.2 for x in TIGHT], failed=1))
        self.assertEqual(v["failed_frac"], "worse")
        self.assertNotEqual(v["frames_per_s"], "better")

    def test_missing_workload_is_unresolved(self):
        v = verdicts(runs(TIGHT), {})
        self.assertEqual(v["*"], "unresolved")


class Pairing(unittest.TestCase):
    def test_pairs_by_seed(self):
        parent = [rec(s, 10.0 + s, 1.0) for s in (1, 2, 3)]
        change = [rec(s, 20.0 + s, 1.0) for s in (3, 1, 2)]
        got = [(p["provenance"]["seed"], c["provenance"]["seed"])
               for p, c in compare.pairs(parent, change)]
        self.assertEqual(got, [(1, 1), (2, 2), (3, 3)])

    def test_pairs_by_position_otherwise(self):
        parent = [rec(s, 10.0, 1.0) for s in (1, 2)]
        change = [rec(s, 10.0, 1.0) for s in (5, 6)]
        got = [(p["provenance"]["seed"], c["provenance"]["seed"])
               for p, c in compare.pairs(parent, change)]
        self.assertEqual(got, [(1, 5), (2, 6)])


class Spans(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = run.span_table([
            {"name": "root", "start_s": 0.0, "end_s": 10.0, "parent": -1},
            {"name": "a", "start_s": 1.0, "end_s": 4.0, "parent": 0},
            {"name": "b", "start_s": 5.0, "end_s": 9.0, "parent": 0},
            {"name": "c", "start_s": 6.0, "end_s": 7.0, "parent": 2},
        ])
        self.assertEqual([s["self_s"] for s in spans], [3.0, 3.0, 3.0, 1.0])
        self.assertAlmostEqual(sum(s["self_s"] for s in spans), spans[0]["dur_s"])


def frame(label, cycles=1000, **extra):
    f = {"label": label, "hash": "00000000000000ab", "cycles": cycles,
         "width": 64, "height": 48, "offchip_bytes": 300,
         "offchip_bytes_by_class_sum": 300, "offchip_texture_bytes": 100,
         "offchip_pim_package_bytes": 0, "tex_requests": 50, "tiles": 12,
         "fragments_shaded": 40, "phase1_s": 0.1, "phase2_s": 0.2,
         "record_bytes": 1024, "record_bytes_decoded": 4096,
         "record_bytes_peak": 512, "energy_j": 0.001, "angle_recalcs": 0,
         "link_retries": 0, "pim_fallbacks": 0,
         "seq_unique_blocks": 10, "seq_blocks_reused_prev": 5,
         "texture_bytes": 2048, "psnr_vs_baseline_db": 0.0,
         "stats": {"l1_hits": 9, "l1_misses": 1, "l2_hits": 1, "l2_misses": 1,
                   "l1_interframe_hits": 0, "row_hits": 1, "row_misses": 2,
                   "row_conflicts": 1, "hmc_internal_reads": 0,
                   "hmc_latency_p99_cycles": 0.0, "offload_packages": 0,
                   "reuse_mismatches": 0}}
    f.update(extra)
    return f


def raw_record(trace):
    frames = [frame("Baseline/doom3-64x48"),
              frame("A-TFIM/doom3-64x48", cycles=800, psnr_vs_baseline_db=40.0)]
    raw = {"workload": "suite-quick", "seed": 1, "provenance": {"knobs": {"jobs": 2}},
           "setup_s": [0.2, 0.1, 0.1], "timed_cpu_s": 4.0,
           "units": [{"wall_s": 1.0, "peak_rss_kib": 2048, "frames": frames}], "canary": []}
    if trace:
        raw["traced_frames"] = frames
        raw["traced_wall_s"] = 1.5
        raw["spans"] = [
            {"name": "bench.traced_unit", "start_s": 0.0, "end_s": 1.5, "parent": -1},
            {"name": "sim.spec", "start_s": 0.0, "end_s": 0.7, "parent": 0},
            {"name": "gpu.render_scene", "start_s": 0.1, "end_s": 0.6, "parent": 1},
            {"name": "sim.spec", "start_s": 0.7, "end_s": 1.4, "parent": 0},
            {"name": "gpu.render_scene", "start_s": 0.8, "end_s": 1.3, "parent": 3},
        ]
    return raw


class MetricSet(unittest.TestCase):
    """run.py reports exactly the metrics BENCHMARK.json lists."""

    def setUp(self):
        self.bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    def assert_matches(self, metrics, declared):
        self.assertEqual({k: u for k, (_, u) in metrics.items()},
                         {m["name"]: m["unit"] for m in declared})

    def test_end_to_end(self):
        m = run.end_to_end(raw_record(False))
        self.assert_matches(m, self.bench["end_to_end"])
        self.assertEqual(m["frames_per_s"][0], 2.0)
        self.assertEqual(m["sim_cycles"][0], 1800)

    def test_per_layer(self):
        raw = raw_record(True)
        m = run.per_layer(raw, run.span_table(raw["spans"]))
        self.assert_matches(m, self.bench["per_layer"])
        self.assertAlmostEqual(m["sim.atfim_render_speedup"][0], 1.25)
        self.assertAlmostEqual(m["sim.unattributed_s"][0], 0.1)
        self.assertAlmostEqual(m["sim.pool_busy_frac"][0], 0.7)

    def test_checks_pass_and_fail(self):
        raw = raw_record(True)
        self.assertEqual(run.check(raw, {})[:2], (4, 0))
        raw["traced_frames"] = [dict(f, cycles=f["cycles"] + 1) for f in raw["traced_frames"]]
        self.assertEqual(run.check(raw, {})[:2], (4, 2))


if __name__ == "__main__":
    unittest.main()
