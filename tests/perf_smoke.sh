#!/usr/bin/env bash
# Perf smoke for the ISSUE-6 hot paths, run by ctest in Release builds:
# executes bench/micro_restart and bench/micro_validate with a small fixed
# iteration cap and fails when the reuse+cache restart rate at 8 threads,
# or the bitset-scan validation rate, regresses more than 30% below the
# committed floor (tests/perf_baseline.txt — `validate:` prefix selects
# the validator floors). Both binaries abort on any fast/reference output
# disagreement (makespans, violation lists), so this gate also re-proves
# bit-identity on every CI run. Given bench/micro_components, it also
# gates reschedd request ingest: ParseRequest/s on the shipped
# data/instances/large_100.json (`ingest:` prefix), and the floorplan DFS:
# nodes/s over the query corpus data/floorplan_corpus.txt (`floorplan:`
# prefix; that case fails when a query's nodes or verdict drift from the
# recorded ones). The corpus case is labelled with the SIMD backend it ran
# on; a `floorplan:corpus:<backend>` floor, when present, replaces the
# plain `floorplan:corpus` one, so a host without AVX2 is gated against
# the scalar kernels' rate.
#
# Usage: perf_smoke.sh <micro_restart-binary> <baseline-file> [config] \
#                      [micro_validate-binary] [micro_components-binary]
#   RESCHED_PERF_BASELINE  overrides the baseline file (per-machine floors)
#   RESCHED_PERF_SCALE     overrides the bench scale (default 0.34)
set -euo pipefail

BIN=$1
BASELINE=${RESCHED_PERF_BASELINE:-$2}
CONFIG=${3:-Release}
VALIDATE_BIN=${4:-}
COMPONENTS_BIN=${5:-}

if [[ "$CONFIG" != "Release" ]]; then
  echo "perf_smoke: skipped ($CONFIG build — floors are for Release)"
  exit 77
fi
[[ -x "$BIN" ]] || { echo "perf_smoke: missing binary $BIN" >&2; exit 1; }
[[ -f "$BASELINE" ]] || { echo "perf_smoke: missing baseline $BASELINE" >&2; exit 1; }

OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT

RESCHED_BENCH_SCALE=${RESCHED_PERF_SCALE:-0.34} RESCHED_BENCH_OUT="$OUT" \
    "$BIN" > "$OUT/log.txt" || {
  echo "perf_smoke: micro_restart failed (makespan mismatch or no schedule):" >&2
  cat "$OUT/log.txt" >&2
  exit 1
}

if [[ -n "$VALIDATE_BIN" ]]; then
  [[ -x "$VALIDATE_BIN" ]] || {
    echo "perf_smoke: missing binary $VALIDATE_BIN" >&2; exit 1; }
  RESCHED_BENCH_SCALE=${RESCHED_PERF_SCALE:-0.34} RESCHED_BENCH_OUT="$OUT" \
      "$VALIDATE_BIN" > "$OUT/validate_log.txt" || {
    echo "perf_smoke: micro_validate failed (scan disagreement):" >&2
    cat "$OUT/validate_log.txt" >&2
    exit 1
  }
fi

if [[ -n "$COMPONENTS_BIN" ]]; then
  [[ -x "$COMPONENTS_BIN" ]] || {
    echo "perf_smoke: missing binary $COMPONENTS_BIN" >&2; exit 1; }
  "$COMPONENTS_BIN" \
      --benchmark_filter='^(BM_IngestParseRequestLarge100|BM_FloorplanCorpusSolve)$' \
      --benchmark_format=json > "$OUT/components.json" || {
    echo "perf_smoke: micro_components ingest/floorplan cases failed:" >&2
    cat "$OUT/components.json" >&2
    exit 1
  }
fi

python3 - "$OUT" "$BASELINE" <<'EOF'
import csv
import json
import os
import sys

out_dir, baseline_path = sys.argv[1], sys.argv[2]

restart_floors, validate_floors, ingest_floors, floorplan_floors = {}, {}, {}, {}
with open(baseline_path) as fh:
    for line in fh:
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        instance, rate = line.split()
        if instance.startswith("validate:"):
            validate_floors[instance.removeprefix("validate:")] = float(rate)
        elif instance.startswith("ingest:"):
            ingest_floors[instance.removeprefix("ingest:")] = float(rate)
        elif instance.startswith("floorplan:"):
            floorplan_floors[instance.removeprefix("floorplan:")] = float(rate)
        else:
            restart_floors[instance] = float(rate)


def read_csv(csv_path, row_filter, rate_column):
    measured = {}
    with open(csv_path) as fh:
        for row in csv.DictReader(fh):
            if row_filter(row):
                measured[row["instance"]] = float(row[rate_column])
    return measured


def component_runs(json_path, case):
    """The google-benchmark JSON runs of one micro_components case that
    did not report an error."""
    with open(json_path) as fh:
        runs = json.load(fh)["benchmarks"]
    return [run for run in runs
            if run["name"] == case and not run.get("error_occurred")]


def read_components(json_path, case, key):
    """items/s of one micro_components case; a case that reported an
    error has no rate."""
    return {key: run["items_per_second"]
            for run in component_runs(json_path, case)}


def backend_floors(floors, json_path, case):
    """`floors` with a `<name>:<backend>` floor in place of `<name>` for
    the SIMD backend the case's run is labelled with; other backends'
    floors are dropped."""
    labels = {run.get("label", "") for run in component_runs(json_path, case)}
    chosen = {}
    for name, floor in floors.items():
        base, _, backend = name.partition(":")
        if backend and backend not in labels:
            continue
        if not backend and any(f"{base}:{label}" in floors for label in labels):
            continue
        chosen[base] = floor
    return chosen


def check(path, floors, read, unit):
    if not floors:
        return 0
    if not os.path.exists(path):
        print(f"perf_smoke: FAIL missing {path}")
        return 1
    measured = read(path)
    status = 0
    for instance, floor in sorted(floors.items()):
        rate = measured.get(instance)
        if rate is None:
            print(f"perf_smoke: FAIL {instance}: no measurement in {path}")
            status = 1
            continue
        threshold = 0.7 * floor  # 30% regression allowance below the floor
        verdict = "ok" if rate >= threshold else "FAIL"
        print(f"perf_smoke: {verdict} {instance}: {rate:.1f} {unit} "
              f"(floor {floor:.0f}, threshold {threshold:.1f})")
        if rate < threshold:
            status = 1
    return status


status = check(
    os.path.join(out_dir, "micro_restart.csv"), restart_floors,
    lambda path: read_csv(
        path, lambda row: row["mode"] == "reuse+cache" and
        row["threads"] == "8", "restarts_per_sec"),
    "restarts/s")
if os.path.exists(os.path.join(out_dir, "validate_log.txt")):
    status |= check(
        os.path.join(out_dir, "micro_validate.csv"), validate_floors,
        lambda path: read_csv(path, lambda row: row["scan"] == "bitset",
                              "validations_per_sec"),
        "validations/s")
components = os.path.join(out_dir, "components.json")
if os.path.exists(components):
    status |= check(components, ingest_floors,
                    lambda path: read_components(
                        path, "BM_IngestParseRequestLarge100", "large_100"),
                    "requests/s")
    status |= check(components,
                    backend_floors(floorplan_floors, components,
                                   "BM_FloorplanCorpusSolve"),
                    lambda path: read_components(
                        path, "BM_FloorplanCorpusSolve", "corpus"),
                    "nodes/s")
sys.exit(status)
EOF

echo "perf_smoke OK"
