#!/usr/bin/env bash
# End-to-end test of the resched_cli tool: generate -> schedule (every
# algorithm) -> persist -> validate -> render. Invoked by ctest with the
# CLI binary path as $1.
set -euo pipefail

CLI=$1
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

fail() { echo "FAIL: $1" >&2; exit 1; }

# --- generation ------------------------------------------------------------
"$CLI" gen --tasks 15 --seed 3 --out "$TMP/i.json"
[ -s "$TMP/i.json" ] || fail "instance file not written"
grep -q '"resched-instance"' "$TMP/i.json" || fail "format marker missing"

# gen to stdout (capture first: grep -q + pipefail would SIGPIPE the CLI)
out=$("$CLI" gen --tasks 5 --seed 1)
echo "$out" | grep -q '"tasks"' || fail "gen stdout"

# --- scheduling with every algorithm ----------------------------------------
for algo in pa allsw is1 is5; do
  "$CLI" schedule --instance "$TMP/i.json" --algo "$algo" \
      --format summary > "$TMP/$algo.txt" || fail "schedule $algo"
  grep -q "makespan" "$TMP/$algo.txt" || fail "$algo summary lacks makespan"
done
out=$("$CLI" schedule --instance "$TMP/i.json" --algo par --budget 0.2 \
    --format summary 2>/dev/null)
echo "$out" | grep -q "PA-R" || fail "par summary"

# --- persisted schedule + validation ----------------------------------------
"$CLI" schedule --instance "$TMP/i.json" --algo pa --format json \
    --out "$TMP/s.json" > /dev/null
grep -q '"resched-schedule"' "$TMP/s.json" || fail "schedule format marker"
out=$("$CLI" validate --instance "$TMP/i.json" --schedule "$TMP/s.json")
echo "$out" | grep -q '^valid$' || fail "validate"

# A corrupted schedule must fail validation with non-zero exit.
sed 's/"makespan": \([0-9]*\)/"makespan": 1/' "$TMP/s.json" > "$TMP/bad.json"
if "$CLI" validate --instance "$TMP/i.json" --schedule "$TMP/bad.json" \
    > /dev/null 2>&1; then
  fail "corrupted schedule accepted"
fi

# --- renderers ---------------------------------------------------------------
out=$("$CLI" schedule --instance "$TMP/i.json" --algo pa --format gantt)
echo "$out" | grep -q "icap" || fail "gantt"
out=$("$CLI" schedule --instance "$TMP/i.json" --algo pa --format table)
echo "$out" | grep -q "start" || fail "table"
out=$("$CLI" schedule --instance "$TMP/i.json" --algo pa --format svg)
echo "$out" | grep -q "<svg" || fail "svg"
"$CLI" schedule --instance "$TMP/i.json" --algo pa --format summary \
    --svg-out "$TMP/g.svg" --floorplan-svg-out "$TMP/f.svg" > /dev/null
[ -s "$TMP/g.svg" ] || fail "svg-out"
[ -s "$TMP/f.svg" ] || fail "floorplan-svg-out"
out=$("$CLI" dot --instance "$TMP/i.json")
echo "$out" | grep -q "digraph" || fail "dot"

# --- extensions ---------------------------------------------------------------
"$CLI" schedule --instance "$TMP/i.json" --algo pa --module-reuse \
    --format summary > /dev/null || fail "module-reuse flag"
"$CLI" schedule --instance "$TMP/i.json" --algo pa --no-balancing \
    --no-floorplan --format summary > /dev/null || fail "ablation flags"

# --- info / new algorithms / unrolling ----------------------------------------
out=$("$CLI" info --instance "$TMP/i.json")
echo "$out" | grep -q "platform:" || fail "info platform"
echo "$out" | grep -q "graph:" || fail "info graph"
out=$("$CLI" schedule --instance "$TMP/i.json" --algo pals --budget 0.2 \
    --format summary 2>/dev/null)
echo "$out" | grep -q "PA-LS" || fail "pals summary"
out=$("$CLI" schedule --instance "$TMP/i.json" --algo grid \
    --format summary)
echo "$out" | grep -q "fixed-grid" || fail "grid summary"
out=$("$CLI" schedule --instance "$TMP/i.json" --algo pa --frames 2 \
    --metrics --format summary 2>"$TMP/err.txt")
grep -q "throughput" "$TMP/err.txt" || fail "frames throughput"
grep -q "parallelism" "$TMP/err.txt" || fail "metrics flag"

# --- STG import ----------------------------------------------------------------
STG_SAMPLE=$(dirname "$0")/../data/stg/rand0008.stg
if [ -f "$STG_SAMPLE" ]; then
  "$CLI" import-stg --stg "$STG_SAMPLE" --out "$TMP/stg.json"
  out=$("$CLI" info --instance "$TMP/stg.json")
  echo "$out" | grep -q "8 tasks" || fail "stg import task count"
  "$CLI" schedule --instance "$TMP/stg.json" --algo pa --format summary \
      > /dev/null || fail "stg schedule"
fi

# --- determinism: same seed => bit-for-bit identical output -------------------
# This is the regression guard behind the resched_lint determinism rules
# (no-std-rand, no-wall-clock-seed, no-argless-random-device,
# no-unordered-in-output): every output path must be a pure function of the
# instance and the seed.
"$CLI" gen --tasks 20 --seed 7 --out "$TMP/d1.json"
"$CLI" gen --tasks 20 --seed 7 --out "$TMP/d2.json"
cmp "$TMP/d1.json" "$TMP/d2.json" || fail "gen output differs for equal seeds"

for det_algo in pa is5 grid; do
  for fmt in table gantt svg summary; do
    "$CLI" schedule --instance "$TMP/d1.json" --algo "$det_algo" \
        --format "$fmt" > "$TMP/r1.txt" 2>/dev/null
    "$CLI" schedule --instance "$TMP/d1.json" --algo "$det_algo" \
        --format "$fmt" > "$TMP/r2.txt" 2>/dev/null
    cmp "$TMP/r1.txt" "$TMP/r2.txt" \
        || fail "$det_algo $fmt output differs across identical runs"
  done
done

# The JSON schedule embeds wall-clock solver timings (*_seconds); every other
# byte must be identical.
"$CLI" schedule --instance "$TMP/d1.json" --algo pa --format json \
    --out "$TMP/j1.json" > /dev/null
"$CLI" schedule --instance "$TMP/d1.json" --algo pa --format json \
    --out "$TMP/j2.json" > /dev/null
grep -v '_seconds' "$TMP/j1.json" > "$TMP/j1.flt"
grep -v '_seconds' "$TMP/j2.json" > "$TMP/j2.flt"
cmp "$TMP/j1.flt" "$TMP/j2.flt" || fail "pa json output differs beyond timings"

# --- faulted simulation -------------------------------------------------------
# Nominal replay of a valid schedule must survive with stretch <= 1.
out=$("$CLI" simulate --instance "$TMP/i.json" --schedule "$TMP/s.json")
echo "$out" | grep -q "survival: 100.0%" || fail "nominal simulate survival"

# Scenario round-trip: generate a seeded scenario, then replay it twice
# from the file — the runs must be bit-for-bit identical, and the replay
# must match the generating run's summary.
"$CLI" simulate --instance "$TMP/i.json" --schedule "$TMP/s.json" \
    --fault-rate 0.3 --seed 5 --jitter 0.2 --policy suffix \
    --scenario-out "$TMP/fs.json" > "$TMP/sim0.txt" \
    || fail "fault-rate simulate"
grep -q '"resched-faults"' "$TMP/fs.json" || fail "scenario format marker"
"$CLI" simulate --instance "$TMP/i.json" --schedule "$TMP/s.json" \
    --faults "$TMP/fs.json" --seed 5 --jitter 0.2 --policy suffix \
    > "$TMP/sim1.txt" || fail "scenario replay"
"$CLI" simulate --instance "$TMP/i.json" --schedule "$TMP/s.json" \
    --faults "$TMP/fs.json" --seed 5 --jitter 0.2 --policy suffix \
    > "$TMP/sim2.txt" || fail "scenario replay (second run)"
cmp "$TMP/sim1.txt" "$TMP/sim2.txt" \
    || fail "faulted replay differs across identical runs"
cmp "$TMP/sim0.txt" "$TMP/sim1.txt" \
    || fail "scenario file replay differs from generating run"

# Every recovery policy survives the same scenario.
for policy in retry swfallback suffix; do
  "$CLI" simulate --instance "$TMP/i.json" --schedule "$TMP/s.json" \
      --faults "$TMP/fs.json" --policy "$policy" > /dev/null \
      || fail "policy $policy did not survive"
done

# --faults and --fault-rate are mutually exclusive.
"$CLI" simulate --instance "$TMP/i.json" --schedule "$TMP/s.json" \
    --faults "$TMP/fs.json" --fault-rate 0.1 > /dev/null 2>&1 \
    && fail "conflicting fault flags accepted"

# --- error handling -----------------------------------------------------------
"$CLI" schedule --instance "$TMP/i.json" --algo bogus > /dev/null 2>&1 \
    && fail "bogus algo accepted"
"$CLI" schedule --algo pa > /dev/null 2>&1 && fail "missing instance accepted"
"$CLI" frobnicate > /dev/null 2>&1 && fail "unknown command accepted"

# Unknown flags (a removed option, a typo) fail the command with exit 2.
for extra in "--fp-order learned" "--bogus-flag 1"; do
  rc=0
  # shellcheck disable=SC2086  # split "--name value" into two words
  "$CLI" schedule --instance "$TMP/i.json" --algo pa $extra \
      > /dev/null 2> "$TMP/unknown.err" || rc=$?
  [ "$rc" -eq 2 ] || fail "unknown flag '$extra' exited $rc, want 2"
  grep -q "^error: unknown flag ${extra%% *}$" "$TMP/unknown.err" \
      || fail "unknown flag '$extra' message"
done

echo "cli_test OK"
