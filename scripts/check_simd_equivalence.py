#!/usr/bin/env python3
"""Gate: the SIMD dispatch layer must not change scheduler behaviour.

CI runs the micro benchmarks twice — once with the native backend and once
with ``RESCHED_SIMD=scalar`` — into two result directories. This script
pairs the rows of each CSV present in both directories (on the identity
columns: instance / num_tasks / mode / threads / scan / case / impl) and
demands that every behavioural column (``best_makespan_us``,
``violations``, and the floorplan ledger's ``nodes``, ``replayed``,
``feasible`` and ``exhausted``) is bit-identical. Throughput columns are expected to differ
and are ignored.

Usage:
    check_simd_equivalence.py <native_dir> <scalar_dir> [--csv NAME ...]

Exits 0 when all paired rows agree, 1 on any divergence or structural
mismatch (missing file, unpaired row). Stdlib only.
"""

import argparse
import csv
import sys
from pathlib import Path

KEY_COLUMNS = ("instance", "num_tasks", "mode", "threads", "scan", "case",
               "impl")
BEHAVIOUR_COLUMNS = ("best_makespan_us", "violations", "nodes", "replayed",
                     "feasible", "exhausted")


def load(path: Path) -> tuple[list[str], list[dict]]:
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [dict(zip(header, raw)) for raw in reader]
    return header, rows


def check_csv(native: Path, scalar: Path) -> int:
    native_header, native_rows = load(native)
    scalar_header, scalar_rows = load(scalar)
    keys = [k for k in KEY_COLUMNS if k in native_header and k in scalar_header]
    watched = [
        c for c in BEHAVIOUR_COLUMNS
        if c in native_header and c in scalar_header
    ]
    if not watched:
        print(f"{native.name}: no behavioural columns; skipped")
        return 0

    def row_key(row: dict) -> tuple:
        return tuple(row.get(k) for k in keys)

    scalar_by_key = {row_key(r): r for r in scalar_rows}
    status = 0
    seen = set()
    for row in native_rows:
        key = row_key(row)
        seen.add(key)
        other = scalar_by_key.get(key)
        label = "/".join(str(k) for k in key)
        if other is None:
            print(f"DIVERGENCE {native.name} {label}: no scalar row")
            status = 1
            continue
        for col in watched:
            if row[col] != other[col]:
                print(
                    f"DIVERGENCE {native.name} {label} {col}: "
                    f"native={row[col]} scalar={other[col]}"
                )
                status = 1
    for key in scalar_by_key:
        if key not in seen:
            print(
                f"DIVERGENCE {native.name} "
                f"{'/'.join(str(k) for k in key)}: no native row"
            )
            status = 1
    if status == 0:
        print(
            f"{native.name}: {len(native_rows)} rows bit-identical on "
            f"{', '.join(watched)}"
        )
    return status


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Fail when native- and scalar-backend bench runs "
        "disagree on scheduler behaviour."
    )
    parser.add_argument("native_dir", type=Path)
    parser.add_argument("scalar_dir", type=Path)
    parser.add_argument(
        "--csv",
        action="append",
        default=None,
        help="CSV basename(s) to compare (default: every CSV present in "
        "both directories)",
    )
    args = parser.parse_args()

    if args.csv:
        names = [n if n.endswith(".csv") else f"{n}.csv" for n in args.csv]
    else:
        names = sorted(
            p.name
            for p in args.native_dir.glob("*.csv")
            if (args.scalar_dir / p.name).is_file()
        )
    if not names:
        print("error: no CSVs to compare", file=sys.stderr)
        return 1

    status = 0
    for name in names:
        native = args.native_dir / name
        scalar = args.scalar_dir / name
        if not native.is_file() or not scalar.is_file():
            print(f"error: missing {name} in one of the runs", file=sys.stderr)
            status = 1
            continue
        status = max(status, check_csv(native, scalar))
    return status


if __name__ == "__main__":
    sys.exit(main())
