#!/usr/bin/env python3
"""resched_lint: repo-specific correctness lint for the resched codebase.

The compiler cannot see two properties this project depends on:

 * Determinism — every scheduler run with the same seed must produce
   bit-for-bit identical output (the CLI regression test diffs two runs).
   Wall-clock seeds, the global C PRNG and hardware entropy sources break
   that silently, as does emitting anything in the iteration order of an
   unordered container.
 * Include/ownership hygiene — header cycles and naked new/delete outside
   src/util/ tend to creep in through refactors and only hurt much later.

Rules:
  no-std-rand               std::rand/srand use hidden global state and are
                            not reproducible across libcs; use util/rng.hpp.
  no-wall-clock-seed        time(nullptr)/time(NULL)/time(0) as a seed makes
                            runs unreproducible; take seeds from options.
  no-argless-random-device  a default-constructed std::random_device pulls
                            hardware entropy; seeds must come from flags.
  no-unordered-in-output    IO/report paths must not touch unordered
                            containers: iteration order is unspecified, so
                            emitted files stop being diffable.
  pragma-once               every header must carry #pragma once.
  include-cycle             the repo-relative include graph must be acyclic.
  no-naked-new              naked new/delete outside src/util/; use
                            containers or smart pointers.
  no-getenv-outside-util    getenv outside src/util/: an environment
                            variable read deep in library code is a hidden
                            knob that no flag, option or doc shows; take
                            the setting as an option, or read it once in
                            src/util/ where the process-wide knobs live.
  no-silent-catch           a `catch (...)` that neither rethrows nor logs
                            swallows failures the fault-injection layer is
                            supposed to surface; rethrow, log, or narrow
                            the handler.
  no-adhoc-seed-derivation  HashCombine on seed values outside src/util/
                            recreates the per-trial seeding scheme ad hoc;
                            use DeriveSeed(stream, index) with a named
                            stream tag (util/rng.hpp) so stream separation
                            stays auditable. (Found the hard way: PA-R
                            seeded workers with HashCombine(seed, w), tying
                            results to the thread count.)
  no-unchecked-syscall-return
                            in the service/transport layer (src/service/,
                            src/util/socket.*) a POSIX call whose result is
                            discarded at statement position hides partial
                            writes and failed closes from the daemon; check
                            the return or cast to (void) deliberately.
  no-unchecked-stream-write
                            in src/service/ an iostream that is written
                            (<< or .write()) but whose state is never
                            checked (!stream / good() / fail() / bad())
                            turns disk-full and short-write failures into
                            silently dropped journal records; check the
                            stream, or use the fd-based journal writer
                            which reports JournalError.
  no-vector-bool-hot        std::vector<bool> in the scheduling hot path
                            (src/core/, src/floorplan/): the proxy-reference
                            bit representation defeats byte indexing and
                            vectorization; use std::vector<char> or a
                            word-packed timeline (util/timeline.hpp).
  reserve-before-push-hot   per-element push_back/emplace_back inside a loop
                            in src/core/ / src/floorplan/ on a container the
                            file never reserve()s, resize()s, assign()s or
                            clear()s reallocates on the hot path; size it
                            up front, or clear-and-refill a reused buffer
                            so capacity persists.
  no-raw-intrinsics-outside-simd
                            raw SIMD intrinsics (_mm*/vld1q*/vst1q*/
                            __builtin_ia32_*/__m128-style vector types)
                            anywhere but src/util/simd.hpp: the dispatch
                            layer there is the single place allowed to
                            touch ISA-specific code, so every variant stays
                            behind the runtime-selected kernel table and
                            the scalar oracle keeps its differential-test
                            coverage. Route new vector code through
                            simd::KernelTable.

AST rules (--ast; libclang-backed, see resched_lint_ast.py for the full
rule prose; they skip with a notice when libclang is unavailable, and
--ast-required turns that skip into a failure for CI):
  arena-escape              arena-backed storage held or returned by a
                            scope that does not own the arena.
  cancel-poll-coverage      unbounded loops in cancellation-aware code
                            that never poll the CancelToken.
  lock-held-over-blocking-call
                            a lock scope covering a blocking call
                            (socket I/O, flush, a full solve, join...).
  unannotated-mutex         raw std::mutex/std::condition_variable
                            outside util/mutex.hpp, invisible to Clang
                            thread-safety analysis.

Suppress a finding by appending to the offending line:
    // resched-lint: allow(<rule-id>)

Exit status: 0 when clean, 1 when any finding is reported, 2 on usage error.
"""

import argparse
import os
import re
import sys

SOURCE_DIRS = ("src", "tools", "tests", "bench", "examples")
SOURCE_EXTS = (".cpp", ".hpp", ".cc", ".h")

# Paths (relative, '/'-separated) whose job is emitting human- or
# machine-readable output; iteration order leaks straight into files here.
OUTPUT_PATH_PREFIXES = ("src/io/", "tools/")
OUTPUT_PATH_FILES = (
    "src/sched/gantt.cpp",
    "src/sched/gantt.hpp",
    "src/sched/svg.cpp",
    "src/sched/svg.hpp",
    "src/sched/metrics.cpp",
    "src/sched/metrics.hpp",
    "src/util/csv.cpp",
    "src/util/csv.hpp",
    "src/util/json.cpp",
    "src/util/json.hpp",
)

SUPPRESS_RE = re.compile(r"//\s*resched-lint:\s*allow\(([a-zA-Z0-9_,\s-]+)\)")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')
PRAGMA_ONCE_RE = re.compile(r"^\s*#\s*pragma\s+once\b")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text):
    """Replaces comments, string and char literals with spaces, preserving
    line structure, so token rules cannot fire inside prose or literals."""
    out = []
    i = 0
    n = len(text)
    state = "code"
    raw_delim = None
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
            elif c == '"' and re.search(r'R"[^(]*\($', text[max(0, i - 16):i + 1]):
                m = re.search(r'R"([^(]*)\($', text[max(0, i - 16):i + 1])
                raw_delim = ')' + m.group(1) + '"'
                state = "raw_string"
                out.append('"')
                i += 1
            elif c == '"':
                state = "string"
                out.append('"')
                i += 1
            elif c == "'":
                state = "char"
                out.append("'")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        elif state == "string":
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == '"':
                state = "code"
                out.append('"')
                i += 1
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        elif state == "char":
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == "'":
                state = "code"
                out.append("'")
                i += 1
            else:
                out.append(" ")
                i += 1
        elif state == "raw_string":
            if text.startswith(raw_delim, i):
                out.append('"' + " " * (len(raw_delim) - 1))
                i += len(raw_delim)
                state = "code"
                raw_delim = None
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
    return "".join(out)


# (rule, compiled regex, message). Applied per stripped line.
TOKEN_RULES = [
    (
        "no-std-rand",
        re.compile(r"\bstd\s*::\s*rand\b|(?<![\w:])srand\s*\("),
        "std::rand/srand break seeded reproducibility; use resched::Rng "
        "(util/rng.hpp)",
    ),
    (
        "no-wall-clock-seed",
        re.compile(r"(?<![\w:])time\s*\(\s*(nullptr|NULL|0)\s*\)"),
        "wall-clock seeding makes runs unreproducible; thread the seed "
        "through options/flags",
    ),
    (
        "no-argless-random-device",
        re.compile(r"\bstd\s*::\s*random_device\b(?!\s*[({]\s*\")"),
        "default-constructed std::random_device draws hardware entropy; "
        "seeds must be explicit",
    ),
]

UNORDERED_RE = re.compile(
    r"\bunordered_(map|set|multimap|multiset)\b")

NAKED_NEW_RE = re.compile(r"(?<![\w.:])new\b(?!\s*\()")
NAKED_DELETE_RE = re.compile(r"(?<![\w.:])delete\b(?!\s*[;)\]],?)")
DELETED_FN_RE = re.compile(r"=\s*delete\b")

GETENV_RE = re.compile(r"\b(?:secure_)?getenv\s*\(")

# Ad-hoc seed derivation: HashCombine applied to something seed-like. The
# sanctioned derivation lives in src/util/rng.* (DeriveSeed + stream tags),
# so the rule skips src/util/.
ADHOC_SEED_RE = re.compile(r"\bHashCombine\s*\(")
SEEDISH_RE = re.compile(r"seed", re.IGNORECASE)

# POSIX calls in statement position (preceded by ; { or } modulo
# whitespace) discard their return value. `(void)::close(fd)` and
# `if (::bind(...) != 0)` do not match; a continuation line of an
# assignment does not match either (the preceding char is not a
# statement delimiter). Scoped to the service/transport layer.
SYSCALL_STMT_RE = re.compile(
    r"(?<=[;{}])\s*(::\s*)?"
    r"(close|write|read|unlink|bind|listen|accept|connect|send|recv"
    r"|setsockopt|fsync|ftruncate|chmod)\s*\(")
SYSCALL_SCOPE_PREFIXES = ("src/service/", "src/util/socket")

# File-stream writes in the service layer must check stream state: an
# ofstream swallows write failures (disk full, quota) until someone asks.
# Matches `ofstream out` / `fstream out` declarations; `ifstream` (reads)
# is exempt — a failed read is visible to the parser consuming it.
STREAM_DECL_RE = re.compile(r"\bo?fstream\s+([A-Za-z_]\w*)")
STREAM_SCOPE_PREFIXES = ("src/service/",)

# TCP payloads must go through the RSF framing layer (service/framing.hpp):
# one raw send on a framed connection desynchronizes the peer's frame
# parser for the rest of the connection. Scoped to the router and the TCP
# server transport; the unix-socket transport's newline protocol carries an
# explicit per-line allow.
UNFRAMED_WRITE_RE = re.compile(
    r"(?:\.|->)\s*(?:SendAll|RecvSome)\s*\(|::\s*(?:send|recv)\s*\(")
UNFRAMED_SCOPE_PREFIXES = ("src/router/",)
UNFRAMED_SCOPE_FILES = ("src/service/transport.cpp",)

# Hot-path scheduling code: per-restart cost here is multiplied by the
# restart count, so representation and allocation discipline are linted.
HOT_PATH_PREFIXES = ("src/core/", "src/floorplan/")

# Raw SIMD intrinsics and ISA vector types. Only the dispatch layer may
# contain them; everything else goes through simd::KernelTable.
INTRINSIC_RE = re.compile(
    r"(?<![\w])(_mm\d*_\w+|vld[1-4]q?_\w+|vst[1-4]q?_\w+"
    r"|v(?:orr|and|eor|dup|get|set|ceq|min|max|add|sub)q?\w*_[usf]\d+\b"
    r"|__builtin_ia32_\w+|__m(?:64|128|256|512)[id]?\b"
    r"|(?:uint|int|float)(?:8|16|32|64)x\d+_t\b)")
SIMD_LAYER_FILE = "src/util/simd.hpp"

VECTOR_BOOL_RE = re.compile(r"\bvector\s*<\s*bool\s*>")

LOOP_RE = re.compile(r"\b(?:for|while)\s*\(")
PUSH_RE = re.compile(
    r"([A-Za-z_][A-Za-z0-9_]*(?:(?:\.|->)[A-Za-z_][A-Za-z0-9_]*"
    r"|\[[^][]*\])*)\s*(?:\.|->)\s*(?:push_back|emplace_back)\s*\(")
# Evidence that the container's capacity is managed deliberately: an
# up-front reserve/resize/assign, or clear() (the reuse pattern — capacity
# persists across Reset, so steady-state push_back never reallocates).
CAPACITY_FNS = r"(?:reserve|resize|assign|clear)"

CATCH_ALL_RE = re.compile(r"\bcatch\s*\(\s*\.\.\.\s*\)")
# Tokens that make a catch-all handler acceptable: it propagates the
# failure (throw / rethrow_exception), captures it for someone else
# (current_exception), reports it (cerr / Log* / fprintf / printf), or
# dies loudly (abort).
CATCH_HANDLED_RE = re.compile(
    r"\bthrow\b|\brethrow_exception\b|\bcurrent_exception\b|\bcerr\b"
    r"|\bLog\w*\s*\(|\bfprintf\s*\(|\bprintf\s*\(|\babort\s*\(")


def _matching(text, pos, open_ch, close_ch):
    """Index just past the delimiter closing text[pos] (== open_ch), or -1."""
    depth = 0
    for i in range(pos, len(text)):
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def lint_unreserved_push(stripped, report):
    """Flags loop-body push_back/emplace_back on containers whose capacity
    the file never manages (no reserve/resize/assign/clear on the same
    expression). Operates on stripped text; nested loops dedupe by line."""
    seen = set()
    for m in LOOP_RE.finditer(stripped):
        paren_open = stripped.find("(", m.start())
        after_cond = _matching(stripped, paren_open, "(", ")")
        if after_cond < 0:
            continue
        body_start = after_cond
        while body_start < len(stripped) and stripped[body_start].isspace():
            body_start += 1
        if body_start >= len(stripped):
            continue
        if stripped[body_start] == "{":
            body_end = _matching(stripped, body_start, "{", "}")
        else:  # single-statement loop body
            body_end = stripped.find(";", body_start) + 1
        if body_end <= 0:
            continue
        body = stripped[body_start:body_end]
        for pm in PUSH_RE.finditer(body):
            name = pm.group(1)
            lineno = stripped.count("\n", 0, body_start + pm.start(1)) + 1
            if (lineno, name) in seen:
                continue
            seen.add((lineno, name))
            evidence = re.compile(
                re.escape(name) + r"\s*(?:\.|->)\s*" + CAPACITY_FNS +
                r"\s*\(")
            if not evidence.search(stripped):
                report(
                    lineno, "reserve-before-push-hot",
                    f"loop-body push_back on `{name}` with no reserve/"
                    "resize/assign/clear in this file reallocates on the "
                    "hot path; size it up front or reuse a cleared buffer")


def lint_unchecked_syscalls(stripped, report):
    """Flags POSIX calls whose return value is discarded at statement
    position. Works on the full stripped text so multi-line statements
    (continuation lines of an assignment) cannot false-positive."""
    for m in SYSCALL_STMT_RE.finditer(stripped):
        lineno = stripped.count("\n", 0, m.start(2)) + 1
        report(
            lineno, "no-unchecked-syscall-return",
            f"return value of {m.group(2)}() is discarded; handle the "
            "failure or cast to (void) deliberately")


def lint_unchecked_stream_writes(stripped, report):
    """Flags file streams that are written but never state-checked. For
    every `ofstream`/`fstream` declaration, a `<<` or `.write()` on that
    name with no `!name` / `name.good()` / `name.fail()` / `name.bad()`
    anywhere in the file means write failures (ENOSPC, quota) vanish —
    fatal for anything journal-shaped. Works on stripped text, so names in
    strings or comments cannot trigger or satisfy the rule."""
    seen = set()
    for m in STREAM_DECL_RE.finditer(stripped):
        name = m.group(1)
        if name in seen:
            continue
        seen.add(name)
        escaped = re.escape(name)
        write_re = re.compile(
            rf"\b{escaped}\s*(?:<<|\.\s*write\s*\()")
        evidence_re = re.compile(
            rf"!\s*{escaped}\b"
            rf"|\b{escaped}\s*\.\s*(?:good|fail|bad)\s*\(")
        first = write_re.search(stripped, m.end())
        if first and not evidence_re.search(stripped):
            lineno = stripped.count("\n", 0, first.start()) + 1
            report(
                lineno, "no-unchecked-stream-write",
                f"`{name}` is written but its stream state is never "
                "checked; a full disk silently drops records — test "
                f"!{name} or {name}.good() after writing")


def lint_silent_catches(relpath, stripped, report):
    """Flags `catch (...)` blocks whose body neither rethrows, captures,
    logs, nor aborts. Operates on comment/string-stripped text so literals
    cannot satisfy (or trigger) the rule."""
    for m in CATCH_ALL_RE.finditer(stripped):
        open_brace = stripped.find("{", m.end())
        if open_brace < 0:
            continue
        # Nothing but whitespace may sit between the ) and the {.
        if stripped[m.end():open_brace].strip():
            continue
        depth = 0
        pos = open_brace
        while pos < len(stripped):
            if stripped[pos] == "{":
                depth += 1
            elif stripped[pos] == "}":
                depth -= 1
                if depth == 0:
                    break
            pos += 1
        body = stripped[open_brace:pos + 1]
        if not CATCH_HANDLED_RE.search(body):
            lineno = stripped.count("\n", 0, m.start()) + 1
            report(
                lineno, "no-silent-catch",
                "catch (...) that neither rethrows nor logs swallows "
                "failures silently; rethrow, log, or narrow the handler")


def rel(path, root):
    return os.path.relpath(path, root).replace(os.sep, "/")


def iter_source_files(root):
    for top in SOURCE_DIRS:
        base = os.path.join(root, top)
        if not os.path.isdir(base):
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTS):
                    yield os.path.join(dirpath, name)


def suppressions(raw_lines):
    """Maps line number (1-based) -> set of allowed rule ids."""
    allowed = {}
    for i, line in enumerate(raw_lines, start=1):
        m = SUPPRESS_RE.search(line)
        if m:
            allowed[i] = {r.strip() for r in m.group(1).split(",")}
    return allowed


def is_output_path(relpath):
    return relpath.startswith(OUTPUT_PATH_PREFIXES) or \
        relpath in OUTPUT_PATH_FILES


def lint_file(path, root, findings):
    relpath = rel(path, root)
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            raw = f.read()
    except OSError as e:
        findings.append(Finding(relpath, 0, "io-error", str(e)))
        return
    raw_lines = raw.splitlines()
    allowed = suppressions(raw_lines)
    stripped = strip_comments_and_strings(raw)
    stripped_lines = stripped.splitlines()

    def report(lineno, rule, message):
        if rule not in allowed.get(lineno, ()):  # suppressed?
            findings.append(Finding(relpath, lineno, rule, message))

    for lineno, line in enumerate(stripped_lines, start=1):
        for rule, regex, message in TOKEN_RULES:
            if regex.search(line):
                report(lineno, rule, message)
        if is_output_path(relpath) and UNORDERED_RE.search(line):
            report(
                lineno, "no-unordered-in-output",
                "unordered containers have unspecified iteration order; "
                "output paths must use std::map/std::set or sort first")
        if not relpath.startswith("src/util/") and \
                ADHOC_SEED_RE.search(line) and SEEDISH_RE.search(line):
            report(
                lineno, "no-adhoc-seed-derivation",
                "ad-hoc HashCombine seed derivation; use "
                "DeriveSeed(stream, index) with a named stream tag "
                "(util/rng.hpp)")
        if relpath != SIMD_LAYER_FILE and INTRINSIC_RE.search(line):
            report(
                lineno, "no-raw-intrinsics-outside-simd",
                "raw SIMD intrinsic outside src/util/simd.hpp; add a "
                "kernel to simd::KernelTable so it stays behind runtime "
                "dispatch and the scalar differential tests")
        if relpath.startswith(HOT_PATH_PREFIXES) and \
                VECTOR_BOOL_RE.search(line):
            report(
                lineno, "no-vector-bool-hot",
                "std::vector<bool> in hot-path code; use std::vector<char> "
                "or a word-packed timeline (util/timeline.hpp)")
        if relpath.startswith("src/") and \
                not relpath.startswith("src/util/"):
            if NAKED_NEW_RE.search(line):
                report(
                    lineno, "no-naked-new",
                    "naked `new` outside src/util/; use containers or "
                    "std::make_unique")
            if NAKED_DELETE_RE.search(line) and \
                    not DELETED_FN_RE.search(line):
                report(
                    lineno, "no-naked-new",
                    "naked `delete` outside src/util/; use RAII owners")
            if GETENV_RE.search(line):
                report(
                    lineno, "no-getenv-outside-util",
                    "getenv outside src/util/ is a hidden knob; take the "
                    "setting as an option")
        if (relpath.startswith(UNFRAMED_SCOPE_PREFIXES) or
                relpath in UNFRAMED_SCOPE_FILES) and \
                UNFRAMED_WRITE_RE.search(line):
            report(
                lineno, "no-unframed-tcp-write",
                "raw socket send/recv in framed-TCP code; go through "
                "WriteFrame/FrameReader (service/framing.hpp) so the "
                "peer's frame parser stays in sync")

    lint_silent_catches(relpath, stripped, report)
    if relpath.startswith(SYSCALL_SCOPE_PREFIXES):
        lint_unchecked_syscalls(stripped, report)
    if relpath.startswith(STREAM_SCOPE_PREFIXES):
        lint_unchecked_stream_writes(stripped, report)
    if relpath.startswith(HOT_PATH_PREFIXES):
        lint_unreserved_push(stripped, report)

    if relpath.endswith((".hpp", ".h")):
        if not any(PRAGMA_ONCE_RE.match(l) for l in raw_lines):
            report(1, "pragma-once", "header is missing #pragma once")


def lint_include_cycles(root, findings):
    """Builds the repo-relative include graph over src/ (includes are written
    relative to src/, e.g. "core/options.hpp") and rejects cycles."""
    src = os.path.join(root, "src")
    graph = {}
    if not os.path.isdir(src):
        return
    for dirpath, _, filenames in os.walk(src):
        for name in sorted(filenames):
            if not name.endswith(SOURCE_EXTS):
                continue
            path = os.path.join(dirpath, name)
            node = rel(path, src)
            edges = []
            try:
                with open(path, encoding="utf-8", errors="replace") as f:
                    for line in f:
                        m = INCLUDE_RE.match(line)
                        if m and os.path.isfile(os.path.join(src, m.group(1))):
                            edges.append(m.group(1))
            except OSError:
                continue
            graph[node] = edges

    WHITE, GREY, BLACK = 0, 1, 2
    color = {node: WHITE for node in graph}
    stack = []

    def dfs(node):
        color[node] = GREY
        stack.append(node)
        for dep in graph.get(node, ()):
            if color.get(dep, WHITE) == GREY:
                cycle = stack[stack.index(dep):] + [dep]
                findings.append(Finding(
                    "src/" + dep, 1, "include-cycle",
                    "include cycle: " + " -> ".join(cycle)))
            elif color.get(dep, WHITE) == WHITE and dep in graph:
                dfs(dep)
        stack.pop()
        color[node] = BLACK

    for node in sorted(graph):
        if color[node] == WHITE:
            dfs(node)


def main(argv):
    parser = argparse.ArgumentParser(
        prog="resched_lint",
        description="repo-specific determinism and hygiene lint")
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="repository root to scan (default: this script's repo)")
    parser.add_argument(
        "--list-rules", action="store_true", help="print rule ids and exit")
    parser.add_argument(
        "--ast", action="store_true",
        help="also run the libclang AST rules over src/ (skips with a "
        "notice when libclang is unavailable)")
    parser.add_argument(
        "--ast-required", action="store_true",
        help="with --ast: fail instead of skipping when libclang is "
        "unavailable (CI uses this)")
    parser.add_argument(
        "--compile-commands", default=None, metavar="PATH",
        help="compile_commands.json for the AST rules (default: probe "
        "build*/ under --root)")
    parser.add_argument(
        "files", nargs="*",
        help="limit the per-file rules to these files (include-cycle still "
        "scans the whole graph)")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, _, _ in TOKEN_RULES:
            print(rule)
        for rule in ("no-unordered-in-output", "pragma-once",
                     "include-cycle", "no-naked-new",
                     "no-getenv-outside-util", "no-silent-catch",
                     "no-adhoc-seed-derivation",
                     "no-unchecked-syscall-return",
                     "no-unchecked-stream-write", "no-vector-bool-hot",
                     "reserve-before-push-hot",
                     "no-raw-intrinsics-outside-simd",
                     "no-unframed-tcp-write"):
            print(rule)
        from resched_lint_ast import AST_RULES
        for rule in AST_RULES:
            print(rule)
        return 0

    root = os.path.abspath(args.root)
    if not os.path.isdir(root):
        print(f"resched_lint: no such directory: {root}", file=sys.stderr)
        return 2

    findings = []
    files = [os.path.abspath(f) for f in args.files] or \
        list(iter_source_files(root))
    for path in files:
        lint_file(path, root, findings)
    lint_include_cycles(root, findings)

    if args.ast:
        from resched_lint_ast import run_ast
        limit = [os.path.abspath(f) for f in args.files] or None
        ast_findings, skip_reason, parsed = run_ast(
            root, limit_to=limit, compile_commands=args.compile_commands)
        if skip_reason is not None:
            print(f"resched_lint: AST rules skipped ({skip_reason}); "
                  "token rules unaffected", file=sys.stderr)
            if args.ast_required:
                print("resched_lint: --ast-required set: treating the "
                      "skip as a failure", file=sys.stderr)
                return 2
        else:
            print(f"resched_lint: AST rules ran over {parsed} "
                  "translation unit(s)", file=sys.stderr)
            suppression_cache = {}
            for relpath, lineno, rule, message in ast_findings:
                allowed = suppression_cache.get(relpath)
                if allowed is None:
                    try:
                        with open(os.path.join(root, relpath),
                                  encoding="utf-8", errors="replace") as f:
                            allowed = suppressions(f.read().splitlines())
                    except OSError:
                        allowed = {}
                    suppression_cache[relpath] = allowed
                if rule not in allowed.get(lineno, ()):
                    findings.append(Finding(relpath, lineno, rule, message))

    for finding in sorted(findings, key=lambda f: (f.path, f.line, f.rule)):
        print(finding)
    if findings:
        print(f"resched_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
