#!/usr/bin/env python3
"""Unit tests for scripts/validate_events_json.py — the flight-recorder
validator guarding the CI bench-capture lane's event artifacts. Invoked
through CTest (stdlib unittest, no third-party dependencies).
"""
import importlib.util
import json
import tempfile
import unittest
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


validate = load("validate_events_json")


def event(name, ph="i", ts=10, tid=0, batch_id=1, txn_id=0, **args):
    return {"name": name, "ph": ph, "ts": ts, "pid": 1, "tid": tid,
            "args": {"batch_id": batch_id, "txn_id": txn_id, **args}}


def doc(events, reason="on_demand", overwritten=0):
    return {"schema": "pargreedy-events-v3", "reason": reason,
            "overwritten": overwritten, "traceEvents": events}


GOOD = doc([
    event("txn.begin", "B", ts=0, batch_id=0, txn_id=3),
    event("txn.begin", "E", ts=0, batch_id=0, txn_id=3),
    event("apply_batch", "B", ts=1, txn_id=3, batch_size=64),
    event("decide", "B", ts=2, txn_id=3, round=1, frontier=12),
    event("decide", "E", ts=2, txn_id=3),
    event("txn.epoch_fail", ts=3, txn_id=3, seen=2, expected=1),
    event("decide", "B", ts=3, tid=1, txn_id=3, round=1, frontier=4),
    event("decide", "E", ts=4, tid=1, txn_id=3),
    event("apply_batch", "E", ts=4, txn_id=3, rounds=2, changed=4),
    event("txn.commit", "B", ts=5, batch_id=0, txn_id=3, journal_records=9),
])


class EventsFileTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self._tmp.name)
        self.addCleanup(self._tmp.cleanup)

    def write(self, content, name="EVENTS_demo.json"):
        path = self.dir / name
        path.write_text(
            content if isinstance(content, str) else json.dumps(content))
        return path

    def run_main(self, *argv):
        return validate.main(["validate_events_json", *map(str, argv)])


class ValidateEventsJsonTest(EventsFileTest):
    def test_accepts_well_formed_recording(self):
        # Includes a span still open at the end (a mid-span failure dump)
        # and a second tid's spans interleaved with the first's.
        self.assertEqual(self.run_main(self.write(GOOD)), 0)

    def test_missing_file_fails(self):
        self.assertEqual(self.run_main(self.dir / "EVENTS_absent.json"), 1)

    def test_malformed_json_fails(self):
        self.assertEqual(self.run_main(self.write("{]")), 1)

    def test_top_level_list_fails(self):
        # The recorder emits Chrome's JSON *object* format; a bare event
        # array (also legal Chrome input) is rejected so a writer
        # regression shows.
        self.assertEqual(self.run_main(self.write(GOOD["traceEvents"])), 1)

    def test_wrong_schema_fails(self):
        self.assertEqual(
            self.run_main(self.write(dict(GOOD, schema="v0"))), 1)

    def test_previous_schema_version_fails(self):
        # A v2 dump (the pre-v3 "events"/"kind" layout) must not pass.
        v2 = {"schema": "pargreedy-events-v2", "reason": "on_demand",
              "overwritten": 0,
              "events": [{"ts": 0, "tid": 0, "kind": "txn.begin",
                          "batch_id": 0, "txn_id": 1, "arg0": 1,
                          "arg1": 0}]}
        self.assertEqual(self.run_main(self.write(v2)), 1)
        self.assertEqual(
            self.run_main(
                self.write(dict(GOOD, schema="pargreedy-events-v2"))), 1)

    def test_empty_trace_events_fails(self):
        self.assertEqual(self.run_main(self.write(doc([]))), 1)

    def test_missing_overwritten_fails(self):
        bad = dict(GOOD)
        del bad["overwritten"]
        self.assertEqual(self.run_main(self.write(bad)), 1)

    def test_empty_name_fails(self):
        self.assertEqual(
            self.run_main(self.write(doc([event("")]))), 1)

    def test_unknown_phase_fails(self):
        # Chrome phases the recorder never writes (X complete, C counter,
        # M metadata) are rejected too.
        for ph in ("Z", "X", "C", "M"):
            with self.subTest(ph=ph):
                self.assertEqual(
                    self.run_main(self.write(doc([event("x", ph)]))), 1)

    def test_negative_ts_fails(self):
        self.assertEqual(
            self.run_main(self.write(doc([event("x", ts=-1)]))), 1)

    def test_non_integer_pid_tid_fail(self):
        for key, value in (("pid", "1"), ("tid", -1), ("tid", 1.5)):
            with self.subTest(key=key, value=value):
                bad = event("x")
                bad[key] = value
                self.assertEqual(self.run_main(self.write(doc([bad]))), 1)

    def test_boolean_args_fail(self):
        self.assertEqual(
            self.run_main(self.write(doc([event("x", flag=True)]))), 1)

    def test_string_args_fail(self):
        self.assertEqual(
            self.run_main(self.write(doc([event("x", cat="repro")]))), 1)

    def test_args_without_correlation_ids_fail(self):
        bad = event("x")
        del bad["args"]["txn_id"]
        self.assertEqual(self.run_main(self.write(doc([bad]))), 1)
        bad = event("x")
        del bad["args"]
        self.assertEqual(self.run_main(self.write(doc([bad]))), 1)

    def test_decreasing_timestamps_fail(self):
        bad = doc([event("a", ts=5), event("b", ts=4)])
        self.assertEqual(self.run_main(self.write(bad)), 1)

    def test_end_without_begin_fails(self):
        bad = doc([event("decide", "E")])
        self.assertEqual(self.run_main(self.write(bad)), 1)

    def test_end_closing_another_thread_span_fails(self):
        bad = doc([event("decide", "B", tid=0), event("decide", "E", tid=1)])
        self.assertEqual(self.run_main(self.write(bad)), 1)

    def test_mismatched_end_name_fails(self):
        bad = doc([event("apply_batch", "B"), event("decide", "B"),
                   event("apply_batch", "E")])
        self.assertEqual(self.run_main(self.write(bad)), 1)

    def test_require_satisfied_passes(self):
        path = self.write(GOOD)
        self.assertEqual(
            self.run_main(path, "--require",
                          "apply_batch,decide,txn.begin,txn.commit"), 0)
        self.assertEqual(
            self.run_main(path, "--require", "txn.epoch_fail"), 0)

    def test_require_missing_name_fails(self):
        self.assertEqual(
            self.run_main(self.write(GOOD), "--require", "never.emitted"), 1)

    def test_require_applies_to_every_file(self):
        other = doc([event("apply_batch", "B")])
        self.assertEqual(
            self.run_main(self.write(GOOD),
                          self.write(other, "EVENTS_other.json"),
                          "--require", "decide"), 1)

    def test_one_bad_file_fails_the_set(self):
        self.assertEqual(
            self.run_main(self.write(GOOD),
                          self.write("{]", "EVENTS_bad.json")), 1)

    def test_no_files_is_usage_error(self):
        self.assertEqual(self.run_main(), 2)

    def test_require_without_argument_is_usage_error(self):
        self.assertEqual(self.run_main(self.write(GOOD), "--require"), 2)

    def test_unknown_option_is_usage_error(self):
        self.assertEqual(
            self.run_main(self.write(GOOD), "--require-all", "4"), 2)


if __name__ == "__main__":
    unittest.main(verbosity=2)
