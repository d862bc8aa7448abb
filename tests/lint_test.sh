#!/usr/bin/env bash
# Self-test for tools/resched_lint.py, run by ctest:
#  1. the real repo must lint clean (this is the CI gate), and
#  2. every rule must demonstrably fire on a seeded violation, so the lint
#     cannot silently rot into a no-op.
# Usage: lint_test.sh <python3> <resched_lint.py> <repo-root>
set -euo pipefail

PYTHON=$1
LINT=$2
ROOT=$3

fail() { echo "FAIL: $1" >&2; exit 1; }

# --- the repo itself is clean ------------------------------------------------
"$PYTHON" "$LINT" --root "$ROOT" || fail "repo does not lint clean"

# --- seeded violations are caught -------------------------------------------
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
mkdir -p "$TMP/src/core" "$TMP/src/io" "$TMP/src/service"

cat > "$TMP/src/core/bad.cpp" <<'EOF'
#include <cstdlib>
int f() {
  int* p = new int(3);
  delete p;
  srand(static_cast<unsigned>(time(nullptr)));
  std::random_device rd;
  if (std::getenv("RESCHED_HIDDEN_KNOB") != nullptr) return 0;
  return std::rand();
}
EOF
cat > "$TMP/src/core/cycle_a.hpp" <<'EOF'
#include "core/cycle_b.hpp"
EOF
cat > "$TMP/src/core/cycle_b.hpp" <<'EOF'
#pragma once
#include "core/cycle_a.hpp"
EOF
cat > "$TMP/src/io/emit.cpp" <<'EOF'
#include <unordered_map>
void emit(const std::unordered_map<int, int>& m) { (void)m; }
EOF
cat > "$TMP/src/core/swallow.cpp" <<'EOF'
void risky();
void quiet() {
  try {
    risky();
  } catch (...) {
  }
}
EOF
cat > "$TMP/src/core/adhoc_seed.cpp" <<'EOF'
#include "util/rng.hpp"
unsigned long long worker_stream(unsigned long long seed, unsigned long long w) {
  return resched::HashCombine(seed, w);
}
EOF
cat > "$TMP/src/service/leaky_close.cpp" <<'EOF'
#include <unistd.h>
void drop(int fd) {
  close(fd);
}
EOF
cat > "$TMP/src/service/blind_log.cpp" <<'EOF'
#include <fstream>
#include <string>
void append(const std::string& path, const std::string& line) {
  std::ofstream out(path, std::ios::app);
  out << line << "\n";
}
EOF
mkdir -p "$TMP/src/floorplan"
cat > "$TMP/src/floorplan/hot.cpp" <<'EOF'
#include <vector>
std::vector<bool> flags;
std::vector<int> collect(int n) {
  std::vector<int> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(i);
  }
  return out;
}
EOF
cat > "$TMP/src/core/rogue_simd.cpp" <<'EOF'
#include <immintrin.h>
bool any(const unsigned long long* a, const unsigned long long* b) {
  __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a));
  __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b));
  return _mm256_testz_si256(va, vb) == 0;
}
EOF

mkdir -p "$TMP/src/router"
cat > "$TMP/src/router/bad_write.cpp" <<'EOF'
#include "util/socket.hpp"
void leak_frame(resched::StreamSocket& sock, const std::string& line) {
  sock.SendAll(line);
  std::string buf;
  sock.RecvSome(buf);
}
EOF

out=$("$PYTHON" "$LINT" --root "$TMP") && fail "seeded violations not detected"
for rule in no-std-rand no-wall-clock-seed no-argless-random-device \
    no-unordered-in-output pragma-once include-cycle no-naked-new \
    no-getenv-outside-util no-silent-catch no-adhoc-seed-derivation \
    no-unchecked-syscall-return no-unchecked-stream-write \
    no-vector-bool-hot reserve-before-push-hot \
    no-raw-intrinsics-outside-simd no-unframed-tcp-write; do
  echo "$out" | grep -q "\[$rule\]" || fail "rule $rule did not fire"
done

# --- HashCombine on non-seed data is fine; so is DeriveSeed ------------------
mkdir -p "$TMP/ok/src/core" "$TMP/ok/src/util"
cat > "$TMP/ok/src/core/hashing.cpp" <<'EOF'
#include "util/rng.hpp"
unsigned long long key(unsigned long long a, unsigned long long b) {
  return resched::HashCombine(a, b);  // container hashing, not seeding
}
unsigned long long trial(unsigned long long seed, unsigned long long i) {
  return resched::DeriveSeed(0x5EEDULL ^ seed, i);
}
EOF
"$PYTHON" "$LINT" --root "$TMP/ok" \
    || fail "no-adhoc-seed-derivation fired on sanctioned usage"

# --- inline suppression works ------------------------------------------------
CLEAN=$(mktemp -d)
trap 'rm -rf "$TMP" "$CLEAN"' EXIT
mkdir -p "$CLEAN/src/core"
cat > "$CLEAN/src/core/suppressed.cpp" <<'EOF'
int g() {
  std::random_device rd;  // resched-lint: allow(no-argless-random-device)
  return 0;
}
EOF
"$PYTHON" "$LINT" --root "$CLEAN" || fail "suppression ignored"

# --- token rules must not fire inside comments or string literals ------------
cat > "$CLEAN/src/core/prose.cpp" <<'EOF'
// creates a new region; never calls std::rand
const char* kDoc = "time(nullptr) is banned";
int h() { return 0; }
EOF
"$PYTHON" "$LINT" --root "$CLEAN" \
    || fail "lint fired inside comments/strings"

# --- catch-alls that rethrow, capture, or log are acceptable ------------------
cat > "$CLEAN/src/core/handled.cpp" <<'EOF'
#include <cstdio>
#include <exception>
void risky();
void rethrows() {
  try { risky(); } catch (...) { throw; }
}
void captures() {
  std::exception_ptr p;
  try { risky(); } catch (...) { p = std::current_exception(); }
}
void logs() {
  try { risky(); } catch (...) { std::fprintf(stderr, "risky failed\n"); }
}
EOF
"$PYTHON" "$LINT" --root "$CLEAN" \
    || fail "no-silent-catch fired on a handled catch-all"

# --- reserved / reused / out-of-scope push_back patterns are acceptable ------
mkdir -p "$CLEAN/src/floorplan" "$CLEAN/src/sched"
cat > "$CLEAN/src/floorplan/sized.cpp" <<'EOF'
#include <vector>
std::vector<int> reserved(int n) {
  std::vector<int> out;
  out.reserve(static_cast<unsigned long>(n));
  for (int i = 0; i < n; ++i) out.push_back(i);
  return out;
}
void refill(std::vector<int>& scratch, int n) {
  scratch.clear();  // reuse: capacity persists across calls
  for (int i = 0; i < n; ++i) scratch.push_back(i);
}
EOF
cat > "$CLEAN/src/sched/cold.cpp" <<'EOF'
#include <vector>
std::vector<bool> outside_hot_scope;
std::vector<int> collect(int n) {
  std::vector<int> out;
  for (int i = 0; i < n; ++i) out.push_back(i);
  return out;
}
EOF
"$PYTHON" "$LINT" --root "$CLEAN" \
    || fail "hot-path rules fired on sanctioned usage"

# --- checked / deliberately-voided syscalls are acceptable --------------------
# Also: the rule is scoped to the service layer, so statement-position
# syscalls elsewhere (src/core/) are not flagged.
mkdir -p "$CLEAN/src/service"
cat > "$CLEAN/src/service/careful_close.cpp" <<'EOF'
#include <unistd.h>
#include <stdexcept>
void drop(int fd) {
  (void)::close(fd);
}
void strict(int fd) {
  if (::close(fd) != 0) throw std::runtime_error("close failed");
}
void assigned(int fd, const char* buf, unsigned long n) {
  long sent =
      ::write(fd, buf, n);
  (void)sent;
}
EOF
cat > "$CLEAN/src/core/not_service.cpp" <<'EOF'
#include <unistd.h>
void elsewhere(int fd) {
  close(fd);
}
EOF
"$PYTHON" "$LINT" --root "$CLEAN" \
    || fail "no-unchecked-syscall-return fired on sanctioned usage"

# --- state-checked stream writes are acceptable; so are reads and other dirs --
cat > "$CLEAN/src/service/checked_log.cpp" <<'EOF'
#include <fstream>
#include <stdexcept>
#include <string>
void append(const std::string& path, const std::string& line) {
  std::ofstream out(path, std::ios::app);
  out << line << "\n";
  if (!out.good()) throw std::runtime_error("journal write failed");
}
std::string slurp(const std::string& path) {
  std::ifstream in(path);  // reads are exempt: the parser sees failures
  std::string text, line;
  while (std::getline(in, line)) text += line;
  return text;
}
EOF
cat > "$CLEAN/src/sched/report.cpp" <<'EOF'
#include <fstream>
void dump(const char* path) {
  std::ofstream out(path);  // outside src/service/: not this rule's scope
  out << "report\n";
}
EOF
"$PYTHON" "$LINT" --root "$CLEAN" \
    || fail "no-unchecked-stream-write fired on sanctioned usage"

# --- framed TCP writes are acceptable; raw ones outside scope too -------------
mkdir -p "$CLEAN/src/router"
cat > "$CLEAN/src/router/framed.cpp" <<'EOF'
#include "service/framing.hpp"
#include "util/socket.hpp"
bool forward(resched::StreamSocket& sock, const std::string& line) {
  if (!resched::service::WriteFrame(sock, line)) return false;
  resched::service::FrameReader reader(sock);
  std::string response;
  return reader.Read(response) == resched::service::FrameResult::kFrame;
}
void probe(resched::StreamSocket& sock) {
  std::string buf;
  sock.RecvSome(buf);  // resched-lint: allow(no-unframed-tcp-write)
}
EOF
cat > "$CLEAN/src/service/line_client.cpp" <<'EOF'
#include "util/socket.hpp"
bool send_line(resched::StreamSocket& sock, const std::string& line) {
  return sock.SendAll(line + "\n");  // newline transport: not this scope
}
EOF
"$PYTHON" "$LINT" --root "$CLEAN" \
    || fail "no-unframed-tcp-write fired on sanctioned usage"

# --- getenv is sanctioned in src/util/ and outside src/ ----------------------
mkdir -p "$CLEAN/src/util" "$CLEAN/bench"
cat > "$CLEAN/src/util/knob.cpp" <<'EOF'
#include <cstdlib>
bool verbose() { return std::getenv("RESCHED_LOG") != nullptr; }
EOF
cat > "$CLEAN/bench/scale.cpp" <<'EOF'
#include <cstdlib>
const char* scale() { return std::getenv("RESCHED_BENCH_SCALE"); }
EOF
"$PYTHON" "$LINT" --root "$CLEAN" \
    || fail "no-getenv-outside-util fired on sanctioned usage"

# --- intrinsics are sanctioned only inside src/util/simd.hpp ------------------
# NEON spellings must be caught too, and the dispatch layer itself is the
# one file allowed to contain raw intrinsics.
mkdir -p "$CLEAN/src/util"
cat > "$CLEAN/src/util/simd.hpp" <<'EOF'
#pragma once
#include <cstdint>
namespace resched::simd {
inline std::uint64_t OrLane(const std::uint64_t* p) {
#if defined(__AVX2__)
  __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  (void)v;
#endif
  return p[0];
}
}  // namespace resched::simd
EOF
"$PYTHON" "$LINT" --root "$CLEAN" \
    || fail "no-raw-intrinsics-outside-simd fired on src/util/simd.hpp"
mkdir -p "$TMP/src/sched"
cat > "$TMP/src/sched/neon_rogue.cpp" <<'EOF'
#include <arm_neon.h>
unsigned long long first(const unsigned long long* p) {
  uint64x2_t v = vld1q_u64(p);
  return vgetq_lane_u64(v, 0);
}
EOF
out=$("$PYTHON" "$LINT" --root "$TMP" "$TMP/src/sched/neon_rogue.cpp") \
    && fail "NEON intrinsics outside the simd layer not detected"
echo "$out" | grep -q "\[no-raw-intrinsics-outside-simd\]" \
    || fail "no-raw-intrinsics-outside-simd did not fire on NEON spellings"

echo "lint_test OK"
