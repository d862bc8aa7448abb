"""AST-grade rules for resched_lint, backed by libclang.

The token rules in resched_lint.py see lines; these rules see scopes,
types and loop structure, which is what the four concurrency/lifetime
properties below actually live in. They are driven by the same
compile_commands.json the build exports (falling back to `-std=c++20
-I src` for standalone headers), and honor the same inline suppression
syntax, `// resched-lint: allow(<rule-id>)`, on the reported line.

Rules:
  arena-escape
      Arena-backed storage must not outlive its arena epoch. Flags
      (a) a class holding ArenaVec/ArenaAllocator-backed fields (by
      value or pointer; reference fields are constructor-bound borrows)
      without owning the MonotonicArena (a field of that type) or
      binding one by contract (a constructor taking MonotonicArena&),
      and (b) a
      function returning a pointer/reference whose return expression
      reaches into an arena (Allocate/arena_) from a scope that does
      not own the arena.
  cancel-poll-coverage
      In cancellation-aware code (a CancelToken parameter, or a body
      that names `cancel`/`CancelToken`), every loop that can run
      unbounded — while/do loops and condition-less for(;;) loops —
      must poll (Cancelled/ThrowIfCancelled) or hand the token to a
      callee, either in its own subtree or in an enclosing loop of the
      same function. Counted for-loops and range-for loops are exempt:
      their trip count bounds them.
  lock-held-over-blocking-call
      A MutexLock/lock_guard/unique_lock in scope must not cover a
      blocking call (socket send/recv, accept, stream flush, getline,
      a scheduler solve, sleep, join...). CondVar::Wait is deliberately
      not blocking here: waiting on a condition *is* the sanctioned way
      to block under a lock. Lambda bodies reset the lock set — a
      lambda runs at an unknown time. The three sanctioned exceptions
      in this repo carry inline allows (see DESIGN.md §11 ledger).
  unannotated-mutex
      Raw std::mutex / std::shared_mutex / std::condition_variable
      declarations outside util/mutex.hpp are invisible to Clang's
      thread-safety analysis; use resched::Mutex / resched::CondVar so
      RESCHED_GUARDED_BY actually proves something.

Availability: requires the libclang python bindings plus the libclang
shared library (the C API — libclang-cpp does not work). When either is
missing, run_ast() reports a skip reason instead of findings; the
driver turns that into a clean exit unless --ast-required is given.
Point RESCHED_LIBCLANG at a specific libclang .so to override probing.
"""

import glob
import os

AST_RULES = (
    "arena-escape",
    "cancel-poll-coverage",
    "lock-held-over-blocking-call",
    "unannotated-mutex",
)

DEFAULT_ARGS = ("-x", "c++", "-std=c++20")

# Lock-guard types whose scope must not cover a blocking call.
LOCK_TYPES = (
    "resched::MutexLock",
    "std::lock_guard",
    "std::unique_lock",
    "std::scoped_lock",
    "std::shared_lock",
)

# Raw standard-library synchronization types (unannotated-mutex).
RAW_SYNC_TYPES = (
    "std::mutex",
    "std::recursive_mutex",
    "std::timed_mutex",
    "std::shared_mutex",
    "std::shared_timed_mutex",
    "std::condition_variable",
)

# Callee spellings that block (or can block for a scheduler-shaped amount
# of time). Holding a lock across any of these stalls every thread behind
# the lock for the duration. CondVar Wait/NotifyOne/NotifyAll are absent
# by design; so is WeightedFairQueue::TryPush (bounded-reject, never
# blocks).
BLOCKING_CALLS = frozenset({
    # socket / fd layer
    "SendAll", "RecvSome", "Accept", "Connect", "SendLine",
    "send", "recv", "accept", "connect", "write", "read", "fsync",
    # stream layer
    "flush", "getline",
    # transport / queue operations that block on a peer
    "ReadLine", "WriteLine", "Receive", "Pop",
    # scheduler entry points: a full solve under a lock serializes the pool
    "Query", "Solve", "SchedulePa", "SchedulePaR", "SchedulePaWarm",
    "FindFirstFit",
    # time / thread
    "sleep_for", "sleep_until", "wait_for", "wait_until", "join",
})

# Tokens that count as polling or forwarding cancellation inside a loop.
CANCEL_COVER_TOKENS = frozenset({"Cancelled", "ThrowIfCancelled", "cancel"})
# Tokens that pull a function into cancel-poll-coverage scope.
CANCEL_SCOPE_TOKENS = frozenset({"cancel", "CancelToken"})

ARENA_CONTAINER_TOKENS = frozenset({"ArenaVec", "ArenaAllocator"})
ARENA_REACH_TOKENS = frozenset({"Allocate", "arena_"})
ARENA_EXEMPT_FILES = ("src/util/arena.hpp",)
MUTEX_EXEMPT_FILES = ("src/util/mutex.hpp", "src/util/annotations.hpp")


def load_cindex():
    """Returns (cindex module, None) or (None, human-readable skip reason).

    Probes RESCHED_LIBCLANG first, then the versioned libclang install
    locations Debian/Ubuntu use. libclang-cpp (the C++ API) is filtered
    out: dlopen succeeds on it but the clang_* C entry points are absent.
    """
    try:
        from clang import cindex
    except Exception as e:  # ImportError, or a broken binding package
        return None, f"python clang bindings unavailable ({e})"

    def try_create(library_file):
        if library_file is not None:
            try:
                cindex.Config.set_library_file(library_file)
            except Exception:
                # A previous probe already loaded something; force the
                # attribute rather than failing the whole AST pass.
                cindex.Config.library_file = library_file
        cindex.Index.create()
        return cindex

    candidates = []
    override = os.environ.get("RESCHED_LIBCLANG")
    if override:
        candidates.append(override)
    else:
        candidates.append(None)  # wherever the bindings look by default
        for pattern in (
                "/usr/lib/llvm-*/lib/libclang.so*",
                "/usr/lib/llvm-*/lib/libclang-*.so*",
                "/usr/lib/*/libclang.so*",
                "/usr/lib/*/libclang-*.so*",
        ):
            candidates.extend(sorted(glob.glob(pattern)))
    candidates = [
        c for c in candidates
        if c is None or not os.path.basename(c).startswith("libclang-cpp")
    ]

    last_error = "no libclang shared library found"
    for candidate in candidates:
        try:
            return try_create(candidate), None
        except Exception as e:
            last_error = str(e) or e.__class__.__name__
    return None, f"libclang shared library unavailable ({last_error})"


def ast_source_files(root, limit_to=None):
    """All src/ translation units + standalone headers, sorted. When
    limit_to (absolute paths) is given, restricts to that set."""
    wanted = None
    if limit_to:
        wanted = {os.path.realpath(p) for p in limit_to}
    out = []
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if not name.endswith((".cpp", ".cc", ".hpp", ".h")):
                continue
            path = os.path.join(dirpath, name)
            if wanted is not None and os.path.realpath(path) not in wanted:
                continue
            out.append(path)
    return out


def _filter_compile_args(argv):
    """Keeps only the flags that affect parsing (-I/-D/-std/-isystem/
    -include) from a compile command; drops the compiler, -c/-o, and the
    source path itself."""
    out = ["-x", "c++"]
    it = iter(list(argv)[1:])
    for arg in it:
        if arg in ("-I", "-isystem", "-include", "-D"):
            value = next(it, None)
            if value is not None:
                out.extend([arg, value])
        elif arg.startswith(("-I", "-D", "-std=", "-isystem", "-include")):
            out.append(arg)
        elif arg in ("-o", "-MF", "-MT", "-MQ"):
            next(it, None)
        # everything else (warnings, optimization, -c, the file) is
        # irrelevant to the AST and dropped
    return out


def _load_compile_db(cindex, root, explicit_path):
    """Opens compile_commands.json (explicit path, else build*/ probe).
    Returns a CompilationDatabase or None; never raises."""
    candidates = []
    if explicit_path:
        candidates.append(explicit_path)
    else:
        for name in ("build", "build-debug", "build-asan", "build-tsan",
                     "build-thread-safety"):
            candidates.append(os.path.join(root, name,
                                           "compile_commands.json"))
    for path in candidates:
        if not os.path.isfile(path):
            continue
        try:
            return cindex.CompilationDatabase.fromDirectory(
                os.path.dirname(path))
        except Exception:
            continue
    return None


def _args_for(root, path, ccdb):
    if ccdb is not None and path.endswith((".cpp", ".cc")):
        try:
            commands = ccdb.getCompileCommands(path)
        except Exception:
            commands = None
        if commands:
            return _filter_compile_args(commands[0].arguments)
    return list(DEFAULT_ARGS) + ["-I", os.path.join(root, "src")]


def _tokens(cursor):
    return [t.spelling for t in cursor.get_tokens()]


def _token_set(cursor):
    return {t.spelling for t in cursor.get_tokens()}


def _canonical(cursor):
    try:
        return cursor.type.get_canonical().spelling or ""
    except Exception:
        return ""


class _FileScope:
    """Cursor filter: only report on cursors spelled in the parsed file
    itself, never in anything it includes."""

    def __init__(self, path):
        self._real = os.path.realpath(path)
        self._cache = {path: True, self._real: True}

    def __call__(self, cursor):
        f = cursor.location.file
        if f is None:
            return False
        name = f.name
        hit = self._cache.get(name)
        if hit is None:
            hit = os.path.realpath(name) == self._real
            self._cache[name] = hit
        return hit


def _function_definitions(ck, tu_cursor, in_file, include_lambdas=False):
    kinds = {ck.FUNCTION_DECL, ck.CXX_METHOD, ck.CONSTRUCTOR,
             ck.DESTRUCTOR, ck.FUNCTION_TEMPLATE, ck.CONVERSION_FUNCTION}
    if include_lambdas:
        kinds.add(ck.LAMBDA_EXPR)
    for cursor in tu_cursor.walk_preorder():
        if cursor.kind in kinds and in_file(cursor) and cursor.is_definition():
            yield cursor


def _body_of(ck, fn):
    body = None
    for child in fn.get_children():
        if child.kind == ck.COMPOUND_STMT:
            body = child  # the body is the last compound child
    return body


def _class_binds_arena(ck, cls):
    """A class 'owns' its arena storage when it holds the MonotonicArena
    itself, or documents the binding with a MonotonicArena& constructor
    parameter (the PaScratch scratch-family contract)."""
    for child in cls.get_children():
        if child.kind == ck.FIELD_DECL and \
                "MonotonicArena" in _canonical(child):
            return True
        if child.kind == ck.CONSTRUCTOR:
            for param in child.get_children():
                if param.kind == ck.PARM_DECL and \
                        "MonotonicArena" in _canonical(param):
                    return True
    return False


def _enclosing_class_binds_arena(ck, cursor):
    parent = cursor.semantic_parent
    class_kinds = (ck.CLASS_DECL, ck.STRUCT_DECL, ck.CLASS_TEMPLATE,
                   ck.CLASS_TEMPLATE_PARTIAL_SPECIALIZATION)
    while parent is not None and parent.kind in class_kinds:
        if _class_binds_arena(ck, parent):
            return True
        parent = parent.semantic_parent
    return False


# ------------------------------------------------------------ rules --


def _rule_unannotated_mutex(cindex, tu, relpath, in_file, add):
    if relpath in MUTEX_EXEMPT_FILES:
        return
    ck = cindex.CursorKind
    for cursor in tu.cursor.walk_preorder():
        if cursor.kind not in (ck.FIELD_DECL, ck.VAR_DECL):
            continue
        if not in_file(cursor):
            continue
        canonical = _canonical(cursor)
        if any(lock in canonical for lock in LOCK_TYPES):
            continue  # a lock over a std::mutex is the wrapper's business
        if any(raw in canonical for raw in RAW_SYNC_TYPES):
            add(relpath, cursor.location.line, "unannotated-mutex",
                f"raw `{canonical}` declaration `{cursor.spelling}` is "
                "invisible to thread-safety analysis; use resched::Mutex/"
                "CondVar (util/mutex.hpp) with RESCHED_GUARDED_BY")


def _rule_lock_blocking(cindex, tu, relpath, in_file, add):
    ck = cindex.CursorKind

    def declares_lock(decl_stmt):
        for child in decl_stmt.get_children():
            if child.kind == ck.VAR_DECL and \
                    any(lock in _canonical(child) for lock in LOCK_TYPES):
                return True
        return False

    def walk(cursor, active):
        kind = cursor.kind
        if kind == ck.LAMBDA_EXPR:
            # A lambda body runs at an unknown time; it does not inherit
            # the lexical lock set.
            for child in cursor.get_children():
                walk(child, 0)
            return
        if kind == ck.COMPOUND_STMT:
            held = active
            for stmt in cursor.get_children():
                if stmt.kind == ck.DECL_STMT and declares_lock(stmt):
                    held += 1  # guard lives to the end of this compound
                else:
                    walk(stmt, held)
            return
        if kind == ck.CALL_EXPR and active > 0 and \
                cursor.spelling in BLOCKING_CALLS and in_file(cursor):
            add(relpath, cursor.location.line,
                "lock-held-over-blocking-call",
                f"`{cursor.spelling}()` can block while a lock is held; "
                "snapshot under the lock and do the blocking work outside "
                "it (or justify with an inline allow + DESIGN.md ledger "
                "entry)")
        for child in cursor.get_children():
            walk(child, active)

    for fn in _function_definitions(ck, tu.cursor, in_file):
        body = _body_of(ck, fn)
        if body is not None:
            walk(body, 0)


def _rule_cancel_poll(cindex, tu, relpath, in_file, add):
    ck = cindex.CursorKind
    loop_kinds = (ck.WHILE_STMT, ck.DO_STMT, ck.FOR_STMT,
                  ck.CXX_FOR_RANGE_STMT)

    def is_infinite_for(cursor):
        """True for `for (...; ; ...)` — no condition bounds the loop."""
        toks = _tokens(cursor)
        depth = 0
        separators = []
        for i, tok in enumerate(toks):
            if tok in ("(", "[", "{"):
                depth += 1
            elif tok in (")", "]", "}"):
                depth -= 1
                if depth == 0:
                    break
            elif tok == ";" and depth == 1:
                separators.append(i)
                if len(separators) == 2:
                    break
        if len(separators) < 2:
            return False
        cond = toks[separators[0] + 1:separators[1]]
        return not cond or cond == ["true"]

    def in_scope(fn):
        for child in fn.get_children():
            if child.kind == ck.PARM_DECL and \
                    "CancelToken" in _canonical(child):
                return True
        body = _body_of(ck, fn)
        return body is not None and \
            bool(_token_set(body) & CANCEL_SCOPE_TOKENS)

    def walk(cursor, covered):
        if cursor.kind in loop_kinds:
            here = bool(_token_set(cursor) & CANCEL_COVER_TOKENS)
            unbounded = cursor.kind in (ck.WHILE_STMT, ck.DO_STMT) or (
                cursor.kind == ck.FOR_STMT and is_infinite_for(cursor))
            if unbounded and not here and not covered and in_file(cursor):
                add(relpath, cursor.location.line, "cancel-poll-coverage",
                    "unbounded loop in cancellation-aware code never polls "
                    "the CancelToken; poll Cancelled()/ThrowIfCancelled() "
                    "or pass the token to the work it runs")
            covered = covered or here
        for child in cursor.get_children():
            walk(child, covered)

    for fn in _function_definitions(ck, tu.cursor, in_file):
        body = _body_of(ck, fn)
        if body is not None and in_scope(fn):
            walk(body, False)


def _rule_arena_escape(cindex, tu, relpath, in_file, add):
    if relpath in ARENA_EXEMPT_FILES:
        return
    ck = cindex.CursorKind
    tk = cindex.TypeKind
    class_kinds = (ck.CLASS_DECL, ck.STRUCT_DECL, ck.CLASS_TEMPLATE)

    # (a) arena-backed fields in a class that neither owns nor binds the
    # arena: the storage dies with someone else's Reset().
    for cursor in tu.cursor.walk_preorder():
        if cursor.kind not in class_kinds or not in_file(cursor) or \
                not cursor.is_definition():
            continue
        if _class_binds_arena(ck, cursor) or \
                _enclosing_class_binds_arena(ck, cursor):
            continue
        for field in cursor.get_children():
            if field.kind != ck.FIELD_DECL:
                continue
            try:
                # Reference fields are borrows, bound explicitly at
                # construction (the view-class idiom); only value and
                # pointer fields can cache storage past the epoch.
                if field.type.get_canonical().kind == tk.LVALUEREFERENCE:
                    continue
            except Exception:
                pass
            mentions = _token_set(field) | {_canonical(field)}
            if any(t in ARENA_CONTAINER_TOKENS for t in mentions) or \
                    "ArenaAllocator" in _canonical(field):
                add(relpath, field.location.line, "arena-escape",
                    f"arena-backed field `{field.spelling}` in a class "
                    "that neither owns a MonotonicArena nor binds one in "
                    "its constructor; the storage dies with someone "
                    "else's arena Reset()")

    # (b) pointer/reference returns that reach into an arena from a
    # non-owning scope.
    for fn in _function_definitions(ck, tu.cursor, in_file):
        try:
            result_kind = fn.result_type.get_canonical().kind
        except Exception:
            continue
        if result_kind not in (tk.POINTER, tk.LVALUEREFERENCE,
                               tk.RVALUEREFERENCE):
            continue
        if _enclosing_class_binds_arena(ck, fn):
            continue  # the owner's accessors are the sanctioned API
        body = _body_of(ck, fn)
        if body is None:
            continue
        for cursor in body.walk_preorder():
            if cursor.kind == ck.RETURN_STMT and in_file(cursor) and \
                    _token_set(cursor) & ARENA_REACH_TOKENS:
                add(relpath, cursor.location.line, "arena-escape",
                    "returns a pointer/reference into arena storage from "
                    "a scope that does not own the arena; the caller "
                    "outlives the arena epoch")


# ----------------------------------------------------------- driver --


def run_ast(root, limit_to=None, compile_commands=None):
    """Runs the four AST rules over src/.

    Returns (findings, skip_reason, parsed_count) where findings is a
    list of (relpath, line, rule, message) tuples. skip_reason is set —
    and findings empty — when libclang cannot be loaded. Parse problems
    surface as `ast-parse-error` findings so CI cannot silently analyze
    nothing.
    """
    cindex, reason = load_cindex()
    if cindex is None:
        return [], reason, 0

    index = cindex.Index.create()
    ccdb = _load_compile_db(cindex, root, compile_commands)
    fatal = cindex.Diagnostic.Fatal

    findings = []
    seen = set()

    def add(relpath, line, rule, message):
        key = (relpath, line, rule)
        if key not in seen:
            seen.add(key)
            findings.append((relpath, line, rule, message))

    parsed = 0
    for path in ast_source_files(root, limit_to):
        relpath = os.path.relpath(path, root).replace(os.sep, "/")
        try:
            tu = index.parse(path, args=_args_for(root, path, ccdb))
        except Exception as e:
            add(relpath, 1, "ast-parse-error", f"libclang failed: {e}")
            continue
        bad = [d for d in tu.diagnostics if d.severity >= fatal]
        if bad:
            add(relpath, bad[0].location.line, "ast-parse-error",
                f"fatal parse diagnostic: {bad[0].spelling} (fix the "
                "include paths in compile_commands.json / -I)")
            continue
        parsed += 1
        in_file = _FileScope(path)
        _rule_unannotated_mutex(cindex, tu, relpath, in_file, add)
        _rule_lock_blocking(cindex, tu, relpath, in_file, add)
        _rule_cancel_poll(cindex, tu, relpath, in_file, add)
        _rule_arena_escape(cindex, tu, relpath, in_file, add)
    return findings, None, parsed
