#!/usr/bin/env python3
"""Unit tests for the bench tooling: scripts/validate_bench_json.py and
scripts/compare_bench_json.py. Invoked through CTest (stdlib unittest, no
third-party dependencies) so the tooling that guards the CI bench lane is
itself regression-guarded.
"""
import importlib.util
import json
import sys
import tempfile
import unittest
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


validate = load("validate_bench_json")
compare = load("compare_bench_json")


def table(name, headers, rows):
    return {"name": name, "headers": headers, "rows": rows}


GOOD = [table("mis: random", ["batch_ops", "update_ms", "full/update"],
              [["2", "0.10", "100.0"], ["20", "0.50", "40.0"]])]


class TempDirTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self._tmp.name)
        self.addCleanup(self._tmp.cleanup)

    def write(self, subdir, bench, doc):
        d = self.dir / subdir
        d.mkdir(parents=True, exist_ok=True)
        (d / f"BENCH_{bench}.json").write_text(json.dumps(doc))
        return d


class ValidateBenchJsonTest(TempDirTest):
    def run_main(self, *benches, subdir="a"):
        return validate.main(["validate", str(self.dir / subdir), *benches])

    def test_accepts_well_formed_capture(self):
        self.write("a", "demo", GOOD)
        self.assertEqual(self.run_main("demo"), 0)

    def test_missing_file_fails(self):
        (self.dir / "a").mkdir()
        self.assertEqual(self.run_main("demo"), 1)

    def test_malformed_json_fails(self):
        d = self.dir / "a"
        d.mkdir()
        (d / "BENCH_demo.json").write_text("[{]")
        self.assertEqual(self.run_main("demo"), 1)

    def test_empty_top_level_fails(self):
        self.write("a", "demo", [])
        self.assertEqual(self.run_main("demo"), 1)

    def test_row_arity_mismatch_fails(self):
        bad = [table("t", ["a", "b"], [["1", "2"], ["only-one"]])]
        self.write("a", "demo", bad)
        self.assertEqual(self.run_main("demo"), 1)

    def test_non_string_cells_fail(self):
        bad = [table("t", ["a"], [[1]])]
        self.write("a", "demo", bad)
        self.assertEqual(self.run_main("demo"), 1)

    def test_unexpected_keys_fail(self):
        bad = [dict(table("t", ["a"], [["1"]]), extra=1)]
        self.write("a", "demo", bad)
        self.assertEqual(self.run_main("demo"), 1)

    def test_one_bad_bench_fails_the_set(self):
        self.write("a", "good", GOOD)
        self.write("a", "bad", [])
        self.assertEqual(self.run_main("good", "bad"), 1)


class CompareBenchJsonTest(TempDirTest):
    def run_main(self, *extra):
        return compare.main(["compare", str(self.dir / "base"),
                             str(self.dir / "cur"), *extra])

    def test_identical_runs_pass(self):
        self.write("base", "demo", GOOD)
        self.write("cur", "demo", GOOD)
        self.assertEqual(self.run_main(), 0)

    def test_regression_in_worse_column_fails(self):
        self.write("base", "demo", GOOD)
        worse = [table("mis: random", GOOD[0]["headers"],
                       [["2", "0.50", "100.0"], ["20", "0.50", "40.0"]])]
        self.write("cur", "demo", worse)
        self.assertEqual(self.run_main(), 1)

    def test_improvement_in_worse_column_passes(self):
        self.write("base", "demo", GOOD)
        better = [table("mis: random", GOOD[0]["headers"],
                        [["2", "0.01", "100.0"], ["20", "0.05", "40.0"]])]
        self.write("cur", "demo", better)
        self.assertEqual(self.run_main(), 0)

    def test_drop_in_better_column_fails(self):
        self.write("base", "demo", GOOD)
        worse = [table("mis: random", GOOD[0]["headers"],
                       [["2", "0.10", "1.0"], ["20", "0.50", "40.0"]])]
        self.write("cur", "demo", worse)
        self.assertEqual(self.run_main(), 1)

    def test_threshold_masks_noise(self):
        self.write("base", "demo", GOOD)
        noisy = [table("mis: random", GOOD[0]["headers"],
                       [["2", "0.11", "95.0"], ["20", "0.54", "41.0"]])]
        self.write("cur", "demo", noisy)
        self.assertEqual(self.run_main("--threshold", "0.25"), 0)
        self.assertEqual(self.run_main("--threshold", "0.01"), 1)

    def test_new_bench_and_new_rows_are_informational(self):
        self.write("base", "demo", GOOD)
        extended = [table("mis: random", GOOD[0]["headers"],
                          GOOD[0]["rows"] + [["200", "2.0", "10.0"]]),
                    table("new series", ["a"], [["1"]])]
        self.write("cur", "demo", extended)
        self.write("cur", "brand_new_bench", GOOD)
        self.assertEqual(self.run_main(), 0)

    def test_missing_bench_in_current_is_informational(self):
        self.write("base", "demo", GOOD)
        self.write("base", "gone", GOOD)
        self.write("cur", "demo", GOOD)
        self.assertEqual(self.run_main(), 0)

    def test_header_change_skips_table(self):
        self.write("base", "demo", GOOD)
        renamed = [table("mis: random", ["batch_ops", "other_ms", "x"],
                         [["2", "9.99", "1"]])]
        self.write("cur", "demo", renamed)
        self.assertEqual(self.run_main(), 0)

    def test_benches_filter_restricts_comparison(self):
        self.write("base", "demo", GOOD)
        regressed = [table("mis: random", GOOD[0]["headers"],
                           [["2", "9.99", "100.0"]])]
        self.write("cur", "demo", regressed)
        self.write("base", "other", GOOD)
        self.write("cur", "other", GOOD)
        self.assertEqual(self.run_main("--benches", "other"), 0)
        self.assertEqual(self.run_main("--benches", "demo"), 1)

    def test_unknown_direction_columns_never_fail(self):
        headers = ["k", "mystery_metric"]
        self.write("base", "demo", [table("t", headers, [["1", "10"]])])
        self.write("cur", "demo", [table("t", headers, [["1", "99"]])])
        self.assertEqual(self.run_main(), 0)

    def test_missing_directory_errors(self):
        self.write("base", "demo", GOOD)
        self.assertEqual(self.run_main(), 2)

    def test_malformed_current_capture_is_io_error(self):
        # The PR's own artifact being broken is load-bearing: hard error.
        self.write("base", "demo", GOOD)
        d = self.dir / "cur"
        d.mkdir()
        (d / "BENCH_demo.json").write_text("[{]")
        with self.assertRaises(SystemExit) as ctx:
            self.run_main()
        self.assertEqual(ctx.exception.code, 2)

    def test_unjoinable_current_capture_is_io_error(self):
        self.write("base", "demo", GOOD)
        self.write("cur", "demo", {"not": "a list of tables"})
        with self.assertRaises(SystemExit) as ctx:
            self.run_main()
        self.assertEqual(ctx.exception.code, 2)

    def test_malformed_baseline_demotes_bench_to_new(self):
        # A truncated/garbage baseline artifact must not block the PR:
        # the bench joins as absent-from-baseline, current reports as
        # new, informational — even when the current rows would have
        # regressed against what the baseline used to say.
        d = self.dir / "base"
        d.mkdir()
        (d / "BENCH_demo.json").write_text("[{]")
        regressed = [table("mis: random", GOOD[0]["headers"],
                           [["2", "9.99", "1.0"]])]
        self.write("cur", "demo", regressed)
        self.assertEqual(self.run_main(), 0)

    def test_unjoinable_baseline_demotes_bench_to_new(self):
        # Valid JSON, wrong shape (not a list of named tables) — same
        # lenient treatment as malformed JSON, and it must not traceback.
        self.write("base", "demo", {"tables": "nope"})
        self.write("base", "shaped", [["rows", "without", "dicts"]])
        self.write("cur", "demo", GOOD)
        self.write("cur", "shaped", GOOD)
        self.assertEqual(self.run_main(), 0)

    def test_lenient_baseline_only_drops_the_broken_bench(self):
        # The broken baseline capture is scoped: other benches still
        # join and still gate.
        d = self.dir / "base"
        self.write("base", "demo", GOOD)
        (d / "BENCH_broken.json").write_text("[{]")
        regressed = [table("mis: random", GOOD[0]["headers"],
                           [["2", "9.99", "100.0"]])]
        self.write("cur", "demo", regressed)
        self.write("cur", "broken", GOOD)
        self.assertEqual(self.run_main(), 1)

    def test_new_bench_lands_without_baseline(self):
        # The exact scenario the lenient baseline exists for: the PR
        # introduces a new bench (here bench/fresh_batch), so
        # BENCH_fresh_batch.json is in the current artifacts but main's
        # baseline has never produced one. The gate must pass without an
        # exemption.
        self.write("base", "dynamic_batch", GOOD)
        self.write("cur", "dynamic_batch", GOOD)
        fresh = [table("mis: random", ["workers", "avg_update_ms",
                                       "repro_rounds",
                                       "frontier_seeds",
                                       "txn_retries"],
                       [["1", "0.22", "5", "0", "0"],
                        ["8", "0.91", "14", "123", "2"]])]
        self.write("cur", "fresh_batch", fresh)
        self.assertEqual(self.run_main(), 0)
        # And once main has a baseline, the counters gate as usual.
        self.write("base", "fresh_batch", fresh)
        self.assertEqual(self.run_main(), 0)
        worse = [table("mis: random", fresh[0]["headers"],
                       [["1", "0.22", "5", "0", "0"],
                        ["8", "0.91", "44", "999", "2"]])]
        self.write("cur", "fresh_batch", worse)
        self.assertEqual(self.run_main(), 1)

    def test_unjoinable_rows_are_skipped_not_fatal(self):
        # A baseline table whose rows list contains junk joins on the
        # well-formed rows and ignores the rest.
        messy = [dict(table("mis: random", GOOD[0]["headers"],
                            [GOOD[0]["rows"][0], [], "junk",
                             GOOD[0]["rows"][1]]))]
        self.write("base", "demo", messy)
        self.write("cur", "demo", GOOD)
        self.assertEqual(self.run_main(), 0)


if __name__ == "__main__":
    unittest.main(verbosity=2)
