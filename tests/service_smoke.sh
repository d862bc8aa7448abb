#!/usr/bin/env bash
# End-to-end smoke of the reschedd service through the CLI: a scripted
# stdio session (batch over stdin), journal capture + offline replay, and
# the unix-socket serve/submit pair. Invoked by ctest with the CLI binary
# path as $1.
set -euo pipefail

CLI=$1
TMP=$(mktemp -d)
SRV_PID=""
cleanup() {
  [ -n "$SRV_PID" ] && kill "$SRV_PID" 2>/dev/null
  rm -rf "$TMP"
}
trap cleanup EXIT

fail() { echo "FAIL: $1" >&2; exit 1; }

# --- build stamping -----------------------------------------------------------
"$CLI" --version | grep -q '^resched ' || fail "--version banner"

# --- a scripted stdio session -------------------------------------------------
"$CLI" gen --tasks 12 --seed 3 --out "$TMP/i.json"

{
  "$CLI" submit --print --instance "$TMP/i.json" --id job1
  "$CLI" submit --print --instance "$TMP/i.json" --id job2   # duplicate
  "$CLI" submit --print --verb simulate --instance "$TMP/i.json" --id sim1 \
      --fault-rate 0.1 --trials 2
  echo '{"verb":"stats","id":"st"}'
  echo 'this is not json'
  echo '{"verb":"shutdown","id":"bye"}'
} > "$TMP/batch.jsonl"

# One worker: the batch is processed in order, so the duplicate is
# guaranteed to hit the result cache rather than race the first copy.
"$CLI" serve --stdio --workers 1 --journal "$TMP/journal.jsonl" \
    < "$TMP/batch.jsonl" > "$TMP/out.jsonl" 2> "$TMP/err.txt" \
    || fail "serve --stdio exited non-zero"

# Handshake + one response per input line (including the parse error).
[ "$(wc -l < "$TMP/out.jsonl")" -eq 7 ] || fail "expected 7 output lines"
head -n 1 "$TMP/out.jsonl" | grep -q '"protocol"' || fail "handshake missing"
grep -q '"parse_error"' "$TMP/out.jsonl" || fail "bad line not rejected"
grep -q '"id":"st"' "$TMP/out.jsonl" || fail "stats response missing"
tail -n 1 "$TMP/out.jsonl" | grep -q '"id":"bye"' || fail "shutdown ack not last"
tail -n 1 "$TMP/out.jsonl" | grep -q '"drained":true' || fail "drain flag"
grep -q "1 cache hit" "$TMP/err.txt" || fail "duplicate was not a cache hit"

# Duplicate submission must be answered bit-identically modulo the id.
grep '"id":"job1"' "$TMP/out.jsonl" | sed 's/"id":"job1"//' > "$TMP/job1.body"
grep '"id":"job2"' "$TMP/out.jsonl" | sed 's/"id":"job2"//' > "$TMP/job2.body"
cmp "$TMP/job1.body" "$TMP/job2.body" || fail "cache hit is not bit-identical"

# --- a hostile fabric does not take the daemon down ---------------------------
# A column with no resources is a bad request; the stats line after it must
# still be answered and the daemon must exit cleanly at end of input.
{
  "$CLI" submit --print --instance "$TMP/i.json" --id zero \
      | sed 's/"units":[0-9]*/"units":0/'
  echo '{"verb":"stats","id":"after"}'
} > "$TMP/hostile.jsonl"
grep -q '"units":0' "$TMP/hostile.jsonl" || fail "hostile line not built"
"$CLI" serve --stdio --workers 1 < "$TMP/hostile.jsonl" \
    > "$TMP/hostile.out" 2> "$TMP/hostile.err" \
    || fail "serve --stdio died on a units:0 fabric"
grep '"id":"zero"' "$TMP/hostile.out" | grep -q '"bad_request"' \
    || fail "units:0 fabric not answered with bad_request"
grep -q '"id":"after"' "$TMP/hostile.out" || fail "stats after units:0 unanswered"

# --- journal replay -----------------------------------------------------------
[ -s "$TMP/journal.jsonl" ] || fail "journal not written"
out=$("$CLI" replay --journal "$TMP/journal.jsonl") \
    || fail "replay reported mismatches"
echo "$out" | grep -q "0 mismatched" || fail "replay summary: $out"
echo "$out" | grep -q "3 replayed" || fail "replay count: $out"

# --- unix-socket serve/submit -------------------------------------------------
SOCK="$TMP/reschedd.sock"
"$CLI" serve --socket "$SOCK" --workers 1 2> "$TMP/srv.txt" &
SRV_PID=$!
for _ in $(seq 1 100); do
  [ -S "$SOCK" ] && break
  sleep 0.1
done
[ -S "$SOCK" ] || fail "socket never appeared"

"$CLI" submit --socket "$SOCK" --instance "$TMP/i.json" --id net1 \
    > "$TMP/net.out" 2> "$TMP/net.err" || fail "socket submit failed"
grep -q '"ok":true' "$TMP/net.out" || fail "socket response not ok"
grep -q '"protocol"' "$TMP/net.err" || fail "client did not see handshake"

# A failing request exits non-zero but still yields a well-formed response.
if "$CLI" submit --socket "$SOCK" --verb cancel --target nosuch \
    > "$TMP/cancel.out" 2>/dev/null; then
  : # cancel of an unknown id is ok:true with cancelled:false
fi
grep -q '"cancelled":false' "$TMP/cancel.out" || fail "cancel miss response"

"$CLI" submit --socket "$SOCK" --verb shutdown > /dev/null 2>&1 \
    || fail "socket shutdown failed"
wait "$SRV_PID" || fail "server exited non-zero after shutdown"
SRV_PID=""

echo "service_smoke OK"
