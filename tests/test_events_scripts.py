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


def event(kind, ts=10, batch_id=1, txn_id=0, arg0=0, arg1=0):
    return {"ts": ts, "tid": 0, "kind": kind, "batch_id": batch_id,
            "txn_id": txn_id, "arg0": arg0, "arg1": arg1}


def doc(events, reason="on_demand", overwritten=0):
    return {"schema": "pargreedy-events-v2", "reason": reason,
            "overwritten": overwritten, "events": events}


GOOD = doc([
    event("txn.begin", ts=0, batch_id=0, txn_id=3, arg0=3),
    event("batch.begin", ts=1, txn_id=3, arg0=64),
    event("repro.round", ts=2, txn_id=3, arg0=12, arg1=3),
    event("repro.round", ts=3, txn_id=3, arg0=3, arg1=1),
    event("batch.end", ts=4, txn_id=3, arg0=2, arg1=4),
    event("txn.commit", ts=5, batch_id=0, txn_id=3, arg0=9),
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
        self.assertEqual(self.run_main(self.write(GOOD)), 0)

    def test_missing_file_fails(self):
        self.assertEqual(self.run_main(self.dir / "EVENTS_absent.json"), 1)

    def test_malformed_json_fails(self):
        self.assertEqual(self.run_main(self.write("{]")), 1)

    def test_top_level_list_fails(self):
        self.assertEqual(self.run_main(self.write(GOOD["events"])), 1)

    def test_wrong_schema_fails(self):
        self.assertEqual(
            self.run_main(self.write(dict(GOOD, schema="v0"))), 1)

    def test_previous_schema_version_fails(self):
        # A v1 dump (the pre-v2 record layout) must not pass as v2.
        self.assertEqual(
            self.run_main(
                self.write(dict(GOOD, schema="pargreedy-events-v1"))), 1)

    def test_empty_events_fails(self):
        self.assertEqual(self.run_main(self.write(doc([]))), 1)

    def test_missing_overwritten_fails(self):
        bad = dict(GOOD)
        del bad["overwritten"]
        self.assertEqual(self.run_main(self.write(bad)), 1)

    def test_empty_kind_fails(self):
        self.assertEqual(
            self.run_main(self.write(doc([event("")]))), 1)

    def test_negative_ts_fails(self):
        self.assertEqual(
            self.run_main(self.write(doc([event("x", ts=-1)]))), 1)

    def test_boolean_field_fails(self):
        self.assertEqual(
            self.run_main(self.write(doc([event("x", arg0=True)]))), 1)

    def test_decreasing_timestamps_fail(self):
        bad = doc([event("a", ts=5), event("b", ts=4)])
        self.assertEqual(self.run_main(self.write(bad)), 1)

    def test_require_satisfied_passes(self):
        path = self.write(GOOD)
        self.assertEqual(
            self.run_main(path, "--require",
                          "batch.begin,repro.round,batch.end,"
                          "txn.begin,txn.commit"), 0)

    def test_require_missing_kind_fails(self):
        self.assertEqual(
            self.run_main(self.write(GOOD), "--require", "never.emitted"), 1)

    def test_require_applies_to_every_file(self):
        other = doc([event("batch.begin")])
        self.assertEqual(
            self.run_main(self.write(GOOD),
                          self.write(other, "EVENTS_other.json"),
                          "--require", "repro.round"), 1)

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
