#!/usr/bin/env bash
# Self-test for scripts/check_bench_citations.py, run by ctest:
#  1. the repo's EXPERIMENTS.md and DESIGN.md cite only tracked
#     bench_results/ files (the gate), and
#  2. a seeded untracked citation is caught, in both the path form and
#     the bare BENCH_*.json form.
# Exits 77 (ctest SKIP) outside a git work tree.
# Usage: bench_citations_test.sh <python3> <check_bench_citations.py> <repo-root>
set -euo pipefail

PYTHON=$1
CHECK=$2
ROOT=$3

fail() { echo "FAIL: $1" >&2; exit 1; }

status=0
"$PYTHON" "$CHECK" --root "$ROOT" || status=$?
[ "$status" -eq 77 ] && exit 77
[ "$status" -eq 0 ] || fail "repo documents cite untracked bench_results/ files"

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
git -C "$TMP" init -q
mkdir -p "$TMP/bench_results"
echo "a,b" > "$TMP/bench_results/kept.csv"
echo "{}" > "$TMP/bench_results/BENCH_kept.json"
echo "a,b" > "$TMP/bench_results/loose.csv"
git -C "$TMP" add bench_results/kept.csv bench_results/BENCH_kept.json
cat > "$TMP/EXPERIMENTS.md" <<'EOF'
Numbers: `bench_results/kept.csv` (+ `BENCH_kept.json`); dumps go under
`bench_results/`.
EOF
cat > "$TMP/DESIGN.md" <<'EOF'
Also `bench_results/loose.csv` and `BENCH_missing.json`.
EOF

"$PYTHON" "$CHECK" --root "$TMP" EXPERIMENTS.md \
    || fail "tracked citations were reported"
out=$("$PYTHON" "$CHECK" --root "$TMP") && fail "untracked citations passed"
echo "$out" | grep -q "DESIGN.md:1: cites bench_results/loose.csv" \
    || fail "path-form citation not caught: $out"
echo "$out" | grep -q "DESIGN.md:1: cites bench_results/BENCH_missing.json" \
    || fail "bare BENCH_*.json citation not caught: $out"
[ "$(echo "$out" | wc -l)" -eq 2 ] || fail "unexpected findings: $out"

echo "bench_citations_test OK"
