#!/usr/bin/env python3
"""Fails when a document cites a bench_results/ file that git does not track.

bench_results/ is gitignored (bench runs write scratch CSVs there), so a
result file reaches the repo only when it is force-added. A document that
quotes numbers from an untracked file points readers at nothing. This
checker scans the given documents for

  * ``bench_results/<file>.csv`` / ``bench_results/<file>.json`` paths, and
  * bare ``BENCH_<name>.json`` names (which always live in bench_results/),

and reports every cited file that ``git ls-files`` does not list.

Usage:
    check_bench_citations.py [--root DIR] [doc ...]

Documents default to EXPERIMENTS.md and DESIGN.md, relative to --root
(default: the current directory). Exit status: 0 when every citation is
tracked, 1 on untracked citations, 2 on usage errors, 77 when --root is
not inside a git work tree (nothing to check against). Stdlib only.
"""

import argparse
import re
import subprocess
import sys
from pathlib import Path

PATH_RE = re.compile(r"bench_results/([A-Za-z0-9_.-]+\.(?:csv|json))")
BARE_JSON_RE = re.compile(r"(?<![/\w])(BENCH_[A-Za-z0-9_]+\.json)")
DEFAULT_DOCS = ("EXPERIMENTS.md", "DESIGN.md")
SKIP = 77


def tracked_files(root: Path) -> set[str] | None:
    """Paths under bench_results/ in git's index, or None outside git."""
    try:
        proc = subprocess.run(
            ["git", "-C", str(root), "ls-files", "--", "bench_results"],
            capture_output=True, text=True, check=False)
    except OSError:
        return None
    if proc.returncode != 0:
        return None
    return set(proc.stdout.split())


def citations(doc: Path) -> list[tuple[int, str]]:
    """(line number, bench_results/ path) for every citation in `doc`."""
    found = []
    for lineno, line in enumerate(doc.read_text().splitlines(), start=1):
        for match in PATH_RE.finditer(line):
            found.append((lineno, f"bench_results/{match.group(1)}"))
        for match in BARE_JSON_RE.finditer(line):
            found.append((lineno, f"bench_results/{match.group(1)}"))
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("docs", nargs="*", default=list(DEFAULT_DOCS))
    parser.add_argument("--root", type=Path, default=Path("."))
    args = parser.parse_args()

    tracked = tracked_files(args.root)
    if tracked is None:
        print(f"skip: {args.root} is not a git work tree")
        return SKIP
    status = 0
    for name in args.docs:
        doc = args.root / name
        if not doc.is_file():
            print(f"error: no such document: {doc}", file=sys.stderr)
            return 2
        for lineno, path in citations(doc):
            if path not in tracked:
                print(f"{name}:{lineno}: cites {path}, which git does not "
                      "track (force-add it: git add -f)")
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
