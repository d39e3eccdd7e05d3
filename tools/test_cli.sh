#!/usr/bin/env bash
# End-to-end smoke test of the locpriv CLI: the complete designer
# workflow on a small synthetic dataset. Registered with ctest.
set -euo pipefail
CLI="$1"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

"$CLI" generate --scenario taxi --users 6 --shift-hours 5 --seed 7 --out "$DIR/data.csv"
"$CLI" profile --data "$DIR/data.csv" > "$DIR/profile.txt"
grep -q "poi_count" "$DIR/profile.txt"

"$CLI" sweep --data "$DIR/data.csv" --points 13 --trials 1 --out "$DIR/sweep.json" > /dev/null
"$CLI" fit --sweep "$DIR/sweep.json" --out "$DIR/model.json" > /dev/null
"$CLI" configure --model "$DIR/model.json" --privacy-max 0.5 > "$DIR/configure.txt"
grep -q "recommended epsilon" "$DIR/configure.txt"
EPS=$(sed -n 's/^recommended epsilon = //p' "$DIR/configure.txt")

"$CLI" protect --data "$DIR/data.csv" --value "$EPS" --out "$DIR/protected.csv"
"$CLI" audit --actual "$DIR/data.csv" --protected "$DIR/protected.csv" > "$DIR/audit.txt"
grep -q "poi-retrieval" "$DIR/audit.txt"

"$CLI" clean --data "$DIR/data.csv" --out "$DIR/cleaned.csv" > "$DIR/clean.txt"
grep -q "kept" "$DIR/clean.txt"

"$CLI" report --sweep "$DIR/sweep.json" --model "$DIR/model.json" --privacy-max 0.5 --out "$DIR/report.md"
grep -q "## Fitted model" "$DIR/report.md"

"$CLI" serve-sim --data "$DIR/data.csv" --threads 2 --shards 4 --out "$DIR/telemetry.json" > "$DIR/serve.txt"
grep -q "events/sec" "$DIR/serve.txt"
grep -q "rejected_queue_full" "$DIR/telemetry.json"

# Format conversion: CSV -> binary -> CSV, each leg verified in-process.
"$CLI" convert --in "$DIR/data.csv" --out "$DIR/data.lpds" --check > "$DIR/convert.txt"
grep -q "round-trip exactly" "$DIR/convert.txt"
"$CLI" convert --in "$DIR/data.lpds" --out "$DIR/back.csv" --check > "$DIR/convert2.txt"
grep -q "round-trip within csv precision" "$DIR/convert2.txt"

# A corrupted binary dataset must make convert --check exit nonzero
# (checksum catches the flipped byte on reload).
cp "$DIR/data.lpds" "$DIR/corrupt.lpds"
SIZE=$(wc -c < "$DIR/corrupt.lpds")
printf '\xff' | dd of="$DIR/corrupt.lpds" bs=1 seek=$((SIZE - 1)) conv=notrunc 2>/dev/null
if "$CLI" convert --in "$DIR/corrupt.lpds" --out "$DIR/junk.csv" --check 2>/dev/null; then
  echo "corrupted dataset accepted"; exit 1
fi

# Real network front end over UDS: serve in the background, ping until
# the supervisor answers, check routed submits and telemetry (also with
# one shard stopped), drain.
SOCK="$DIR/locpriv-cli.sock"
"$CLI" serve --listen "unix:$SOCK" --shards 2 --workers 1 --data "$DIR/data.lpds" \
  > "$DIR/serve_net.txt" 2>&1 &
SERVE_PID=$!
PING_OK=0
for _ in $(seq 1 50); do
  if "$CLI" ping --connect "unix:$SOCK" --user smoke --count 3 > "$DIR/ping.txt" \
      2> "$DIR/ping_err.txt"; then
    PING_OK=1; break
  fi
  sleep 0.2
done
[ "$PING_OK" = 1 ] || { echo "serve never became pingable"; kill "$SERVE_PID"; exit 1; }
grep -q "2 shards via" "$DIR/ping_err.txt"
grep -q "3 reports answered, last status delivered" "$DIR/ping.txt"
# --telemetry submits nothing and its stdout is exactly the aggregate
# JSON, which counts the three reports above and no probe of its own.
"$CLI" ping --connect "unix:$SOCK" --telemetry > "$DIR/ping_telemetry.txt" 2>/dev/null
python3 -c 'import json,sys
t = json.load(open(sys.argv[1]))
assert t["aggregate"]["received"] == 3, t["aggregate"]
assert len(t["aggregate"]["resident_set_kb_per_shard"]) == 2, t["aggregate"]' \
  "$DIR/ping_telemetry.txt"
# A stopped shard must not freeze the supervisor: telemetry comes back
# at its reply deadline and names the shard that missed it.
STOPPED_PID=$(pgrep -P "$SERVE_PID" | head -n 1)
kill -STOP "$STOPPED_PID"
STOPPED_OK=1
timeout 5 "$CLI" ping --connect "unix:$SOCK" --telemetry > "$DIR/ping_stopped.txt" \
  2>/dev/null || STOPPED_OK=0
kill -CONT "$STOPPED_PID"
[ "$STOPPED_OK" = 1 ] || { echo "telemetry froze on a stopped shard"; kill "$SERVE_PID"; exit 1; }
python3 -c 'import json,sys
t = json.load(open(sys.argv[1]))
missing = t["aggregate"]["unanswered"]
assert len(missing) == 1 and len(t["per_shard"]) == 1, t
assert t["per_shard"][0]["shard"]["index"] != missing[0], t' "$DIR/ping_stopped.txt"
"$CLI" ping --connect "unix:$SOCK" --drain > "$DIR/ping_drain.txt"
grep -q "drained" "$DIR/ping_drain.txt"
wait "$SERVE_PID"
grep -q "drained, bye" "$DIR/serve_net.txt"

# Error paths: unknown command and unknown option must fail loudly.
if "$CLI" frobnicate 2>/dev/null; then echo "unknown command accepted"; exit 1; fi
if "$CLI" generate --nope 1 --out /dev/null 2>/dev/null; then echo "unknown option accepted"; exit 1; fi
# An integer flag is read at its field's type: -1 queue slots is a usage
# error naming the flag, not 2^64 - 1 slots (backpressure silently off).
if "$CLI" serve-sim --users 2 --queue-capacity -1 > /dev/null 2> "$DIR/range.txt"; then
  echo "negative queue capacity accepted"; exit 1
fi
grep -q -- "--queue-capacity" "$DIR/range.txt"
# So is a shift too long to count in seconds.
if "$CLI" generate --shift-hours 9223372036854775807 --out "$DIR/long.csv" 2> "$DIR/shift.txt"; then
  echo "oversized shift accepted"; exit 1
fi
grep -q -- "--shift-hours" "$DIR/shift.txt"

echo "cli workflow OK"
