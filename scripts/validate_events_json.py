#!/usr/bin/env python3
"""Validate flight-recorder event JSON exported by the obs EventRecorder.

Usage: validate_events_json.py FILE [FILE ...] [--require KIND[,KIND...]]

Each FILE must be a "pargreedy-events-v2" document as emitted by
pargreedy's obs::EventRecorder (docs/OBSERVABILITY.md):

  * top level: an object with string "schema" == "pargreedy-events-v2",
    string "reason", integer "overwritten" >= 0, and a non-empty
    "events" list;
  * every event: an object with integer "ts"/"tid"/"batch_id"/"txn_id"/
    "arg0"/"arg1" >= 0 and a non-empty string "kind";
  * timestamps are non-decreasing (the recorder merges per-thread rings
    sorted by timestamp).

--require KIND[,KIND...] additionally demands that every listed event
kind occurs somewhere in each file — CI uses it to pin the batch,
repropagation and transaction events, so an instrumentation regression
fails the lane instead of shipping a hollow recording.

Exits 0 when every file validates, 1 otherwise (all problems are
reported, not just the first), 2 on usage errors (including an unknown
option).
"""
import json
import sys
from pathlib import Path

SCHEMA = "pargreedy-events-v2"


def _nonneg_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def validate_event(event, where: str) -> list[str]:
    """Schema errors for one flight-recorder event object."""
    if not isinstance(event, dict):
        return [f"{where}: event is {type(event).__name__}, not an object"]
    errors = []
    kind = event.get("kind")
    if not isinstance(kind, str) or not kind:
        errors.append(f"{where}: 'kind' must be a non-empty string")
    for key in ("ts", "tid", "batch_id", "txn_id", "arg0", "arg1"):
        if not _nonneg_int(event.get(key)):
            errors.append(f"{where}: '{key}' must be a non-negative integer")
    return errors


def validate_file(path: Path, required: list[str]):
    """(errors, event count) for one events file."""
    if not path.is_file():
        return [f"{path}: missing (recorder did not export)"], 0
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        return [f"{path}: unreadable or malformed JSON — {e}"], 0
    if not isinstance(doc, dict):
        return [f"{path}: top level must be an object"], 0
    errors = []
    if doc.get("schema") != SCHEMA:
        errors.append(f"{path}: 'schema' must be {SCHEMA!r}")
    if not isinstance(doc.get("reason"), str) or not doc.get("reason"):
        errors.append(f"{path}: 'reason' must be a non-empty string")
    if not _nonneg_int(doc.get("overwritten")):
        errors.append(f"{path}: 'overwritten' must be a non-negative integer")
    events = doc.get("events")
    if not isinstance(events, list) or not events:
        return errors + [f"{path}: 'events' must be a non-empty list"], 0
    seen_kinds = set()
    last_ts = 0
    for i, event in enumerate(events):
        errors += validate_event(event, f"{path} event {i}")
        if not isinstance(event, dict):
            continue
        if isinstance(event.get("kind"), str):
            seen_kinds.add(event["kind"])
        ts = event.get("ts")
        if _nonneg_int(ts):
            if ts < last_ts:
                errors.append(
                    f"{path} event {i}: 'ts' decreased ({ts} < {last_ts})")
            last_ts = ts
    for kind in required:
        if kind not in seen_kinds:
            errors.append(f"{path}: required event kind {kind!r} never occurs")
    return errors, len(events)


def main(argv: list[str]) -> int:
    files, required = [], []
    args = argv[1:]
    while args:
        arg = args.pop(0)
        if arg == "--require":
            if not args:
                print("error: --require needs an argument", file=sys.stderr)
                return 2
            required += [n for n in args.pop(0).split(",") if n]
        elif arg.startswith("--"):
            print(f"error: unknown option {arg}", file=sys.stderr)
            return 2
        else:
            files.append(Path(arg))
    if not files:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    errors = []
    for path in files:
        file_errors, count = validate_file(path, required)
        if file_errors:
            errors += file_errors
        else:
            print(f"ok: {path} — {count} events")
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
