#!/usr/bin/env python3
"""Validate a Chrome trace-event JSON file produced by --trace.

Checks the subset of the trace-event format the obs::Tracer emits, i.e.
what chrome://tracing / Perfetto need to render the file:

  * top level: object with a "traceEvents" array
  * every event: ph == "X" with name/cat/ts/dur/pid/tid, ts/dur >= 0
  * args, when present: an object of numbers/strings
  * otherData.counters, when present: flat name -> number map

Optionally asserts a minimum span count and the presence of expected
span names (--expect), so CI can require that the instrumented hot
paths really fired.

With --telemetry the input is instead a serve-sim --out telemetry JSON
(written after a drain): every counter of the "counters" and
"resilience" blocks must be present and non-negative, the drained
exactly-once identity received == delivered + suppressed_budget +
rejected_queue_full + degraded_suppressed + degraded_fallback must
hold, the latency/eps blocks must be objects, and when the file has an
"adaptive" block (a run with --objectives) its decision counts,
action histogram and ε-trajectory histogram must be present and
internally consistent. --require-adaptive fails if the block is absent.

Usage: tools/validate_trace.py TRACE.json [--min-spans N] [--expect NAME ...]
       tools/validate_trace.py --telemetry TELEMETRY.json [--require-adaptive]
"""
import argparse
import json
import sys

REQUIRED_EVENT_KEYS = ("name", "cat", "ph", "ts", "dur", "pid", "tid")


def fail(msg: str) -> None:
    print(f"validate_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def validate_event(i: int, event: object) -> str:
    if not isinstance(event, dict):
        fail(f"event {i}: not an object")
    for key in REQUIRED_EVENT_KEYS:
        if key not in event:
            fail(f"event {i}: missing key '{key}'")
    if event["ph"] != "X":
        fail(f"event {i}: ph is {event['ph']!r}, expected complete event 'X'")
    if not isinstance(event["name"], str) or not event["name"]:
        fail(f"event {i}: name must be a non-empty string")
    if not isinstance(event["cat"], str):
        fail(f"event {i}: cat must be a string")
    for key in ("ts", "dur", "pid", "tid"):
        if not isinstance(event[key], (int, float)) or isinstance(event[key], bool):
            fail(f"event {i}: {key} must be a number")
        if event[key] < 0:
            fail(f"event {i}: {key} is negative")
    args = event.get("args")
    if args is not None:
        if not isinstance(args, dict):
            fail(f"event {i}: args must be an object")
        for k, v in args.items():
            if not isinstance(v, (int, float, str)) or isinstance(v, bool):
                fail(f"event {i}: args[{k!r}] must be a number or string")
    return event["name"]


# The gateway's counter table (service::kCountTable in
# src/service/telemetry.h), by JSON block; degraded_* are in both.
COUNTERS_BLOCK = ("received", "delivered", "suppressed_budget", "rejected_queue_full",
                  "degraded_suppressed", "degraded_fallback", "sessions_created",
                  "sessions_evicted_idle", "sessions_evicted_lru")
RESILIENCE_BLOCK = ("downstream_attempts", "downstream_failures", "downstream_retries",
                    "breaker_trips", "breaker_short_circuits", "deadline_exceeded",
                    "degraded_suppressed", "degraded_fallback", "injected_burst_rejects",
                    "worker_stalls", "clock_skews", "timestamps_clamped")
ANSWERS = ("delivered", "suppressed_budget", "rejected_queue_full",
           "degraded_suppressed", "degraded_fallback")

ADAPTIVE_ACTIONS = ("hold_in_band", "hold_cooldown", "hold_insufficient",
                    "hold_frozen", "step", "saturate_lo", "saturate_hi")
EPS_BUCKETS = ("lt_1e-3", "1e-3_1e-2", "1e-2_1e-1", "1e-1_1", "ge_1")


def require_count(doc: dict, block: str, key: str) -> float:
    if key not in doc:
        fail(f"telemetry: {block}.{key} missing")
    v = doc[key]
    if not isinstance(v, (int, float)) or isinstance(v, bool) or v < 0:
        fail(f"telemetry: {block}.{key} must be a non-negative number, got {v!r}")
    return float(v)


def validate_adaptive_block(adaptive: object) -> None:
    if not isinstance(adaptive, dict):
        fail("telemetry: 'adaptive' must be an object")
    users = require_count(adaptive, "adaptive", "users")
    decisions = require_count(adaptive, "adaptive", "decisions")
    steps = require_count(adaptive, "adaptive", "steps")
    require_count(adaptive, "adaptive", "saturations_lo")
    require_count(adaptive, "adaptive", "saturations_hi")
    in_band = require_count(adaptive, "adaptive", "users_in_band_final")
    if in_band > users:
        fail(f"telemetry: adaptive.users_in_band_final {in_band} exceeds users {users}")
    actions = adaptive.get("actions")
    if not isinstance(actions, dict):
        fail("telemetry: adaptive.actions must be an object")
    for name in ADAPTIVE_ACTIONS:
        require_count(actions, "adaptive.actions", name)
    unknown = set(actions) - set(ADAPTIVE_ACTIONS)
    if unknown:
        fail(f"telemetry: adaptive.actions has unknown keys: {sorted(unknown)}")
    if sum(actions.values()) != decisions:
        fail(f"telemetry: adaptive.actions sums to {sum(actions.values())}, "
             f"expected decisions = {decisions}")
    if steps > decisions:
        fail(f"telemetry: adaptive.steps {steps} exceeds decisions {decisions}")
    trajectory = adaptive.get("eps_trajectory")
    if not isinstance(trajectory, dict):
        fail("telemetry: adaptive.eps_trajectory must be an object")
    for name in EPS_BUCKETS:
        require_count(trajectory, "adaptive.eps_trajectory", name)
    unknown = set(trajectory) - set(EPS_BUCKETS)
    if unknown:
        fail(f"telemetry: adaptive.eps_trajectory has unknown buckets: {sorted(unknown)}")
    if sum(trajectory.values()) != decisions:
        fail(f"telemetry: adaptive.eps_trajectory sums to {sum(trajectory.values())}, "
             f"expected decisions = {decisions}")


def validate_telemetry(path: str, require_adaptive: bool) -> None:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load {path}: {e}")
    if not isinstance(doc, dict):
        fail("telemetry: top level must be an object")
    for block in ("counters", "latency", "eps_spend", "resilience"):
        if not isinstance(doc.get(block), dict):
            fail(f"telemetry: '{block}' must be an object")
    counters = {key: require_count(doc["counters"], "counters", key) for key in COUNTERS_BLOCK}
    for key in RESILIENCE_BLOCK:
        require_count(doc["resilience"], "resilience", key)
    answered = sum(counters[key] for key in ANSWERS)
    if counters["received"] != answered:
        fail(f"telemetry: received {counters['received']:.0f} != {answered:.0f} answered "
             f"({' + '.join(ANSWERS)}): a report was lost or answered twice")
    adaptive = doc.get("adaptive")
    if adaptive is None:
        if require_adaptive:
            fail("telemetry: 'adaptive' block missing but --require-adaptive was given")
        print(f"validate_trace: OK: telemetry {path} (no adaptive block)")
        return
    validate_adaptive_block(adaptive)
    print(f"validate_trace: OK: telemetry {path} "
          f"(adaptive: {int(adaptive['decisions'])} decisions over "
          f"{int(adaptive['users'])} users)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="trace JSON written by --trace "
                        "(or a telemetry JSON with --telemetry)")
    parser.add_argument("--min-spans", type=int, default=1,
                        help="require at least this many span events (default 1)")
    parser.add_argument("--expect", nargs="*", default=[],
                        help="span names that must appear at least once")
    parser.add_argument("--telemetry", action="store_true",
                        help="validate a serve-sim --out telemetry JSON instead")
    parser.add_argument("--require-adaptive", action="store_true",
                        help="with --telemetry: fail when the adaptive block is absent")
    opts = parser.parse_args()

    if opts.telemetry:
        validate_telemetry(opts.trace, opts.require_adaptive)
        return

    try:
        with open(opts.trace, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load {opts.trace}: {e}")

    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail("top level must be an object with a 'traceEvents' array")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        fail("'traceEvents' must be an array")

    names = set()
    for i, event in enumerate(events):
        names.add(validate_event(i, event))

    if len(events) < opts.min_spans:
        fail(f"only {len(events)} spans, expected at least {opts.min_spans}")
    missing = [n for n in opts.expect if n not in names]
    if missing:
        fail(f"expected span names never fired: {', '.join(missing)} "
             f"(saw: {', '.join(sorted(names))})")

    counters = doc.get("otherData", {}).get("counters")
    if counters is not None:
        if not isinstance(counters, dict):
            fail("otherData.counters must be an object")
        for k, v in counters.items():
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                fail(f"counter {k!r} must be a number")

    print(f"validate_trace: OK: {len(events)} spans, {len(names)} distinct names, "
          f"{len(counters or {})} counters")


if __name__ == "__main__":
    main()
