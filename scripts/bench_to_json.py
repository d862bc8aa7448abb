#!/usr/bin/env python3
"""Convert bench CSV dumps into BENCH_<name>.json result files.

Every bench binary writes ``<out_dir>/<name>.csv`` (see
bench/common/bench_common.cpp). This script re-emits each CSV as
``BENCH_<name>.json`` — a machine-readable artifact for CI trend tracking
and for diffing runs without a CSV parser:

    {
      "name": "micro_restart",
      "source_csv": "bench_results/micro_restart.csv",
      "num_rows": 18,
      "columns": ["instance", "mode", ...],
      "rows": [{"instance": "tg_n20_i0", "mode": "legacy", ...}, ...]
    }

Cell values are coerced to int or float when they parse as one, so
downstream tooling can compare numerically.

Usage:
    bench_to_json.py [--out-dir DIR] [csv-or-dir ...]
    bench_to_json.py --diff [--baseline-dir DIR] [csv-or-dir ...]

With no positional arguments, converts every ``*.csv`` under
``bench_results/``. JSON files land next to each CSV unless --out-dir is
given. Stdlib only.

``--diff`` compares each CSV against the committed ``BENCH_<name>.json``
(from --baseline-dir, default ``bench_results/``) instead of writing
anything: rows are matched on the identity columns both sides share
(instance / num_tasks / mode / threads / scan / simd / workers / cache),
and every shared numeric column is reported as ``old -> new (delta,
pct)``. A changed text column other than ``build`` (for example a
``bodies_digest`` witness of response bytes) is reported as ``old -> new``.
Rows present on only one side are listed. Exit status is 0 when every row pairs up —
deltas are informational — and 1 on unpaired rows or a missing baseline.
"""

import argparse
import csv
import json
import sys
from pathlib import Path

# Columns that identify a row rather than measure it; the row key for
# --diff is the ordered tuple of these that appear in both headers.
KEY_HINTS = ("instance", "num_tasks", "mode", "threads", "scan", "simd",
             "impl", "kind", "name", "workers", "cache")
# Text columns that stamp the producing binary; they change every build.
STAMP_COLUMNS = ("build",)


def coerce(cell: str):
    """Returns cell as int, then float, then unchanged string."""
    for parse in (int, float):
        try:
            return parse(cell)
        except ValueError:
            continue
    return cell


def convert(csv_path: Path, out_dir: Path | None) -> Path:
    with csv_path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{csv_path}: empty CSV")
        rows = []
        for lineno, raw in enumerate(reader, start=2):
            if len(raw) != len(header):
                raise ValueError(
                    f"{csv_path}:{lineno}: expected {len(header)} cells, "
                    f"got {len(raw)}"
                )
            rows.append({key: coerce(cell) for key, cell in zip(header, raw)})

    payload = {
        "name": csv_path.stem,
        "source_csv": str(csv_path),
        "num_rows": len(rows),
        "columns": header,
        "rows": rows,
    }
    target_dir = out_dir if out_dir is not None else csv_path.parent
    target_dir.mkdir(parents=True, exist_ok=True)
    out_path = target_dir / f"BENCH_{csv_path.stem}.json"
    with out_path.open("w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return out_path


def load_rows(csv_path: Path) -> tuple[list[str], list[dict]]:
    with csv_path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{csv_path}: empty CSV")
        rows = [
            {key: coerce(cell) for key, cell in zip(header, raw)}
            for raw in reader
        ]
    return header, rows


def diff_one(csv_path: Path, baseline_dir: Path) -> int:
    """Prints numeric deltas vs the committed JSON; returns 0 when every
    row pairs up (deltas themselves are informational, not failures)."""
    baseline_path = baseline_dir / f"BENCH_{csv_path.stem}.json"
    if not baseline_path.is_file():
        print(f"{csv_path.stem}: no baseline at {baseline_path}")
        return 1
    with baseline_path.open() as fh:
        baseline = json.load(fh)
    header, new_rows = load_rows(csv_path)
    old_rows = baseline.get("rows", [])
    old_header = baseline.get("columns", [])

    keys = [k for k in KEY_HINTS if k in header and k in old_header]
    if not keys:
        print(f"{csv_path.stem}: no shared identity columns; cannot pair rows")
        return 1
    compared = [
        c for c in header
        if c in old_header and c not in keys and c not in STAMP_COLUMNS
    ]

    def row_key(row: dict) -> tuple:
        return tuple(row.get(k) for k in keys)

    old_by_key = {row_key(r): r for r in old_rows}
    new_by_key = {row_key(r): r for r in new_rows}
    status = 0
    print(f"== {csv_path.stem} (keyed on {', '.join(keys)}) ==")
    for key, new in new_by_key.items():
        old = old_by_key.get(key)
        label = "/".join(str(k) for k in key)
        if old is None:
            print(f"  {label}: only in new run")
            status = 1
            continue
        for col in compared:
            a, b = old.get(col), new.get(col)
            if a == b:
                continue
            if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
                print(f"  {label} {col}: {a} -> {b}")
                continue
            delta = b - a
            pct = f", {100.0 * delta / a:+.1f}%" if a else ""
            print(f"  {label} {col}: {a} -> {b} ({delta:+g}{pct})")
    for key in old_by_key:
        if key not in new_by_key:
            print(f"  {'/'.join(str(k) for k in key)}: only in baseline")
            status = 1
    return status


def gather(arguments: list[str]) -> list[Path]:
    if not arguments:
        arguments = ["bench_results"]
    csvs: list[Path] = []
    for arg in arguments:
        path = Path(arg)
        if path.is_dir():
            found = sorted(path.glob("*.csv"))
            if not found:
                print(f"warning: no CSV files under {path}", file=sys.stderr)
            csvs.extend(found)
        elif path.is_file():
            csvs.append(path)
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    return csvs


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Emit BENCH_<name>.json files from bench CSV dumps."
    )
    parser.add_argument(
        "inputs",
        nargs="*",
        help="CSV files or directories of CSVs (default: bench_results/)",
    )
    parser.add_argument(
        "--out-dir",
        type=Path,
        default=None,
        help="directory for the JSON files (default: next to each CSV)",
    )
    parser.add_argument(
        "--diff",
        action="store_true",
        help="compare CSVs against committed BENCH_<name>.json instead of "
        "converting",
    )
    parser.add_argument(
        "--baseline-dir",
        type=Path,
        default=Path("bench_results"),
        help="where the baseline BENCH_<name>.json files live (--diff only)",
    )
    args = parser.parse_args()

    try:
        csvs = gather(args.inputs)
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if not csvs:
        print("error: nothing to convert", file=sys.stderr)
        return 2

    status = 0
    for csv_path in csvs:
        try:
            if args.diff:
                status = max(status, diff_one(csv_path, args.baseline_dir))
            else:
                print(convert(csv_path, args.out_dir))
        except ValueError as err:
            print(f"error: {err}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
