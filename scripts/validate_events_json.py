#!/usr/bin/env python3
"""Validate flight-recorder dumps exported by the obs EventRecorder.

Usage: validate_events_json.py FILE [FILE ...] [--require NAME[,NAME...]]

Each FILE must be a "pargreedy-events-v3" document as emitted by
pargreedy's obs::EventRecorder (docs/OBSERVABILITY.md) — Chrome's
trace_event JSON object format, so the same file opens in Perfetto:

  * top level: an object with string "schema" == "pargreedy-events-v3",
    non-empty string "reason", integer "overwritten" >= 0, and a
    non-empty "traceEvents" list;
  * every event: an object with non-empty string "name", "ph" in
    {B, E, i} (span begin, span end, instant), integer "ts"/"pid"/"tid"
    >= 0, and an "args" object of non-negative integers that names at
    least "batch_id" and "txn_id";
  * timestamps are non-decreasing (the recorder merges per-thread rings
    sorted by timestamp);
  * spans balance per tid: every "E" closes the innermost open "B" of
    the same name on its thread. Begins still open at the end of the file
    are allowed — a failure dump is taken mid-span.

--require NAME[,NAME...] additionally demands that every listed event
name occurs somewhere in each file — CI uses it to pin the batch,
repropagation and transaction spans, so an instrumentation regression
fails the lane instead of shipping a hollow recording.

Exits 0 when every file validates, 1 otherwise (all problems are
reported, not just the first), 2 on usage errors (including an unknown
option).
"""
import json
import sys
from pathlib import Path

SCHEMA = "pargreedy-events-v3"
PHASES = ("B", "E", "i")


def _nonneg_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def validate_event(event, where: str) -> list[str]:
    """Schema errors for one trace event object."""
    if not isinstance(event, dict):
        return [f"{where}: event is {type(event).__name__}, not an object"]
    errors = []
    name = event.get("name")
    if not isinstance(name, str) or not name:
        errors.append(f"{where}: 'name' must be a non-empty string")
    if event.get("ph") not in PHASES:
        errors.append(f"{where}: 'ph' must be one of {list(PHASES)}")
    for key in ("ts", "pid", "tid"):
        if not _nonneg_int(event.get(key)):
            errors.append(f"{where}: '{key}' must be a non-negative integer")
    args = event.get("args")
    if not isinstance(args, dict):
        return errors + [f"{where}: 'args' must be an object"]
    for key in ("batch_id", "txn_id"):
        if key not in args:
            errors.append(f"{where}: args must name {key!r}")
    for key, value in args.items():
        if not _nonneg_int(value):
            errors.append(
                f"{where}: args[{key!r}] must be a non-negative integer")
    return errors


def check_spans(events, where: str) -> list[str]:
    """Per-tid B/E balance errors over well-formed events."""
    errors = []
    open_spans = {}  # tid -> stack of open span names
    for i, event in enumerate(events):
        stack = open_spans.setdefault(event["tid"], [])
        if event["ph"] == "B":
            stack.append(event["name"])
        elif event["ph"] == "E":
            if not stack:
                errors.append(f"{where} event {i}: 'E' of {event['name']!r} "
                              f"with no span open on tid {event['tid']}")
            else:
                if stack[-1] != event["name"]:
                    errors.append(
                        f"{where} event {i}: 'E' of {event['name']!r} "
                        f"closes open span {stack[-1]!r}")
                stack.pop()
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
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        return errors + [f"{path}: 'traceEvents' must be a non-empty list"], 0
    event_errors = []
    last_ts = 0
    for i, event in enumerate(events):
        event_errors += validate_event(event, f"{path} event {i}")
        ts = event.get("ts") if isinstance(event, dict) else None
        if _nonneg_int(ts):
            if ts < last_ts:
                event_errors.append(
                    f"{path} event {i}: 'ts' decreased ({ts} < {last_ts})")
            last_ts = ts
    errors += event_errors
    if not event_errors:  # balance is only meaningful over valid events
        errors += check_spans(events, str(path))
    seen = {e["name"] for e in events
            if isinstance(e, dict) and isinstance(e.get("name"), str)}
    for name in required:
        if name not in seen:
            errors.append(f"{path}: required event name {name!r} never occurs")
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
