// Runtime-dispatched SIMD word kernels under util/timeline.hpp.
//
// The timeline kernels are loops over arrays of 64-bit occupancy words,
// and the floorplan DFS filters column-major candidate lists. This header
// provides the bulk primitives behind both in three interchangeable
// backends:
//
//   scalar — portable word-at-a-time loops (the fallback, always built);
//   avx2   — 256-bit AVX2 blocks (x86-64, compiled with a `target`
//            attribute so the baseline build stays generic; selected at
//            runtime only when CPUID reports AVX2);
//   neon   — 128-bit NEON blocks (aarch64, where NEON is architecturally
//            guaranteed, so support is a compile-time fact); its
//            candidate filter is the scalar body.
//
// The backend is resolved once, on the first call to Active(): the
// RESCHED_SIMD environment variable (scalar|avx2|neon) overrides the
// detector; otherwise the best supported backend wins. Requesting an
// unsupported backend aborts loudly — an explicit override that silently
// degraded would defeat the CI equivalence legs that depend on it.
//
// Contract (DESIGN.md §13): every backend computes bit-identical results
// for every kernel — these are pure bitwise/word reductions with no
// floating point and no reassociation hazards, so equality is exact, and
// tests/timeline_test.cpp differential-tests every backend reachable on
// the build machine against the timeline::scalar oracle.
//
// All raw intrinsics in the repository live in this header; the
// `no-raw-intrinsics-outside-simd` lint rule (tools/resched_lint.py)
// rejects them anywhere else.
//
// Thread safety: Active() resolution is an idempotent atomic publish and
// may race freely. SetBackend() is a test hook — call it only while no
// other thread is inside a kernel.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#define RESCHED_SIMD_HAVE_X86 1
#include <immintrin.h>
#else
#define RESCHED_SIMD_HAVE_X86 0
#endif

#if defined(__aarch64__)
#define RESCHED_SIMD_HAVE_NEON 1
#include <arm_neon.h>
#else
#define RESCHED_SIMD_HAVE_NEON 0
#endif

namespace resched::simd {

enum class Backend : std::uint8_t { kScalar = 0, kAvx2 = 1, kNeon = 2 };

/// Row padding of the column-major candidate lists filter_columns reads:
/// every column's stride is a multiple of this (one AVX2 register of
/// 64-bit lanes), so a vector body never needs a tail loop.
inline constexpr std::size_t kColumnPad = 4;

/// One resolved implementation of the bulk primitives. The word kernels
/// operate on arrays of 64-bit words; `n` counts words. None allocate.
struct KernelTable {
  Backend backend;
  const char* name;
  /// dst[i] |= src[i] for i in [0, n).
  void (*or_into)(std::uint64_t* dst, const std::uint64_t* src,
                  std::size_t n);
  /// True when any word in [0, n) is nonzero.
  bool (*any_nonzero)(const std::uint64_t* words, std::size_t n);
  /// Smallest w in [wb, we) with words[w] != 0, or we when none.
  std::size_t (*first_nonzero)(const std::uint64_t* words, std::size_t wb,
                               std::size_t we);
  /// words[i] = value for i in [0, n).
  void (*fill)(std::uint64_t* words, std::uint64_t value, std::size_t n);
  /// Candidate filter over column-major lists of n candidates: key column
  /// k is keys[k * stride, + n), mask column w is masks[w * stride, + n),
  /// and both are readable up to `stride` (a multiple of kColumnPad that
  /// is >= n). Writes (n + 63) / 64 words of `out`: bit j is set iff
  /// keys[k * stride + j] <= limits[k] for every k < num_keys and
  /// masks[w * stride + j] & used[w] == 0 for every w < num_words. Bits
  /// at and above n are clear.
  void (*filter_columns)(const std::int64_t* keys,
                         const std::int64_t* limits, std::size_t num_keys,
                         const std::uint64_t* masks,
                         const std::uint64_t* used, std::size_t num_words,
                         std::size_t stride, std::size_t n,
                         std::uint64_t* out);
};

// ---- scalar backend (always available) ------------------------------------

namespace detail {

inline void ScalarOrInto(std::uint64_t* dst, const std::uint64_t* src,
                         std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] |= src[i];
}

inline bool ScalarAnyNonzero(const std::uint64_t* words, std::size_t n) {
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) acc |= words[i];
  return acc != 0;
}

inline std::size_t ScalarFirstNonzero(const std::uint64_t* words,
                                      std::size_t wb, std::size_t we) {
  for (std::size_t w = wb; w < we; ++w) {
    if (words[w] != 0) return w;
  }
  return we;
}

inline void ScalarFill(std::uint64_t* words, std::uint64_t value,
                       std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) words[i] = value;
}

/// filter_columns bodies come in fixed-count instantiations for
/// kFixedKeys key columns (area + the three resource kinds of every
/// preset fabric) and 1..kFixedMaskWords mask words, where the compiler
/// unrolls the column loops and keeps the limits in registers; any other
/// shape runs the same body with runtime counts (template arguments 0).
inline constexpr std::size_t kFixedKeys = 4;
inline constexpr std::size_t kFixedMaskWords = 12;

using FilterColumnsFn = void (*)(const std::int64_t*, const std::int64_t*,
                                 std::size_t, const std::uint64_t*,
                                 const std::uint64_t*, std::size_t,
                                 std::size_t, std::size_t, std::uint64_t*);

/// Fixed-count instantiation for `num_words` mask words if there is one.
template <template <std::size_t, std::size_t> class Body, std::size_t... W>
constexpr FilterColumnsFn FixedFilter(std::size_t num_keys,
                                      std::size_t num_words,
                                      std::index_sequence<W...>) {
  FilterColumnsFn fn = &Body<0, 0>::Run;
  if (num_keys == kFixedKeys) {
    ((num_words == W + 1 ? (fn = &Body<kFixedKeys, W + 1>::Run) : fn), ...);
  }
  return fn;
}

/// Branchless: every candidate costs the same key compares and mask ANDs
/// and sets its bit from the OR of the failures, so mixed pass/fail
/// columns cost no mispredictions.
template <std::size_t K, std::size_t W>
struct ScalarFilterBody {
  static void Run(const std::int64_t* keys, const std::int64_t* limits,
                  std::size_t num_keys, const std::uint64_t* masks,
                  const std::uint64_t* used, std::size_t num_words,
                  std::size_t stride, std::size_t n, std::uint64_t* out) {
    const std::size_t nk = K != 0 ? K : num_keys;
    const std::size_t nw = W != 0 ? W : num_words;
    for (std::size_t base = 0; base < n; base += 64) {
      const std::size_t len = n - base < 64 ? n - base : 64;
      std::uint64_t word = 0;
      for (std::size_t j = base; j < base + len; ++j) {
        std::uint64_t reject = 0;
        for (std::size_t k = 0; k < nk; ++k) {
          reject |=
              static_cast<std::uint64_t>(keys[k * stride + j] > limits[k]);
        }
        for (std::size_t w = 0; w < nw; ++w) {
          reject |= masks[w * stride + j] & used[w];
        }
        word |= static_cast<std::uint64_t>(reject == 0) << (j - base);
      }
      out[base / 64] = word;
    }
  }
};

inline void ScalarFilterColumns(const std::int64_t* keys,
                                const std::int64_t* limits,
                                std::size_t num_keys,
                                const std::uint64_t* masks,
                                const std::uint64_t* used,
                                std::size_t num_words, std::size_t stride,
                                std::size_t n, std::uint64_t* out) {
  FixedFilter<ScalarFilterBody>(
      num_keys, num_words, std::make_index_sequence<kFixedMaskWords>{})(
      keys, limits, num_keys, masks, used, num_words, stride, n, out);
}

inline constexpr KernelTable kScalarTable = {
    Backend::kScalar,    "scalar",    &ScalarOrInto,        &ScalarAnyNonzero,
    &ScalarFirstNonzero, &ScalarFill, &ScalarFilterColumns,
};

// ---- AVX2 backend (x86, runtime-gated) ------------------------------------

#if RESCHED_SIMD_HAVE_X86

__attribute__((target("avx2"))) inline void Avx2OrInto(
    std::uint64_t* dst, const std::uint64_t* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_or_si256(d, s));
  }
  for (; i < n; ++i) dst[i] |= src[i];
}

__attribute__((target("avx2"))) inline bool Avx2AnyNonzero(
    const std::uint64_t* words, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + i));
    if (!_mm256_testz_si256(v, v)) return true;
  }
  std::uint64_t acc = 0;
  for (; i < n; ++i) acc |= words[i];
  return acc != 0;
}

__attribute__((target("avx2"))) inline std::size_t Avx2FirstNonzero(
    const std::uint64_t* words, std::size_t wb, std::size_t we) {
  std::size_t w = wb;
  for (; w + 4 <= we; w += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + w));
    if (!_mm256_testz_si256(v, v)) break;  // some word in this block
  }
  for (; w < we; ++w) {
    if (words[w] != 0) return w;
  }
  return we;
}

__attribute__((target("avx2"))) inline void Avx2Fill(std::uint64_t* words,
                                                     std::uint64_t value,
                                                     std::size_t n) {
  std::size_t i = 0;
  const __m256i v = _mm256_set1_epi64x(static_cast<long long>(value));
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(words + i), v);
  }
  for (; i < n; ++i) words[i] = value;
}

/// Four candidates per step: a signed compare per key column and an AND
/// per mask column OR-ed into one accumulator, whose zero lanes are the
/// survivors (one movemask). A partial last step reads the padding lanes
/// up to the next kColumnPad boundary; their bits are cleared.
template <std::size_t K, std::size_t W>
struct Avx2FilterBody {
  __attribute__((target("avx2"))) static void Run(
      const std::int64_t* keys, const std::int64_t* limits,
      std::size_t num_keys, const std::uint64_t* masks,
      const std::uint64_t* used, std::size_t num_words, std::size_t stride,
      std::size_t n, std::uint64_t* out) {
    const std::size_t nk = K != 0 ? K : num_keys;
    const std::size_t nw = W != 0 ? W : num_words;
    const __m256i zero = _mm256_setzero_si256();
    for (std::size_t base = 0; base < n; base += 64) {
      const std::size_t len = n - base < 64 ? n - base : 64;
      std::uint64_t word = 0;
      for (std::size_t j = 0; j < len; j += 4) {
        __m256i acc = zero;
        for (std::size_t k = 0; k < nk; ++k) {
          const __m256i v = _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(keys + k * stride + base + j));
          const __m256i limit =
              _mm256_set1_epi64x(static_cast<long long>(limits[k]));
          acc = _mm256_or_si256(acc, _mm256_cmpgt_epi64(v, limit));
        }
        for (std::size_t w = 0; w < nw; ++w) {
          const __m256i v = _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(masks + w * stride + base + j));
          const __m256i occupied =
              _mm256_set1_epi64x(static_cast<long long>(used[w]));
          acc = _mm256_or_si256(acc, _mm256_and_si256(v, occupied));
        }
        const auto lanes = static_cast<std::uint64_t>(_mm256_movemask_pd(
            _mm256_castsi256_pd(_mm256_cmpeq_epi64(acc, zero))));
        word |= lanes << j;
      }
      if (len < 64) word &= (std::uint64_t{1} << len) - 1;
      out[base / 64] = word;
    }
  }
};

__attribute__((target("avx2"))) inline void Avx2FilterColumns(
    const std::int64_t* keys, const std::int64_t* limits,
    std::size_t num_keys, const std::uint64_t* masks,
    const std::uint64_t* used, std::size_t num_words, std::size_t stride,
    std::size_t n, std::uint64_t* out) {
  FixedFilter<Avx2FilterBody>(
      num_keys, num_words, std::make_index_sequence<kFixedMaskWords>{})(
      keys, limits, num_keys, masks, used, num_words, stride, n, out);
}

inline constexpr KernelTable kAvx2Table = {
    Backend::kAvx2,    "avx2",    &Avx2OrInto,        &Avx2AnyNonzero,
    &Avx2FirstNonzero, &Avx2Fill, &Avx2FilterColumns,
};

#endif  // RESCHED_SIMD_HAVE_X86

// ---- NEON backend (aarch64, architecturally guaranteed) -------------------

#if RESCHED_SIMD_HAVE_NEON

inline void NeonOrInto(std::uint64_t* dst, const std::uint64_t* src,
                       std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_u64(dst + i, vorrq_u64(vld1q_u64(dst + i), vld1q_u64(src + i)));
  }
  for (; i < n; ++i) dst[i] |= src[i];
}

inline bool NeonAnyNonzero(const std::uint64_t* words, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t v = vld1q_u64(words + i);
    if ((vgetq_lane_u64(v, 0) | vgetq_lane_u64(v, 1)) != 0) return true;
  }
  std::uint64_t acc = 0;
  for (; i < n; ++i) acc |= words[i];
  return acc != 0;
}

inline std::size_t NeonFirstNonzero(const std::uint64_t* words,
                                    std::size_t wb, std::size_t we) {
  std::size_t w = wb;
  for (; w + 2 <= we; w += 2) {
    const uint64x2_t v = vld1q_u64(words + w);
    if ((vgetq_lane_u64(v, 0) | vgetq_lane_u64(v, 1)) != 0) break;
  }
  for (; w < we; ++w) {
    if (words[w] != 0) return w;
  }
  return we;
}

inline void NeonFill(std::uint64_t* words, std::uint64_t value,
                     std::size_t n) {
  std::size_t i = 0;
  const uint64x2_t v = vdupq_n_u64(value);
  for (; i + 2 <= n; i += 2) vst1q_u64(words + i, v);
  for (; i < n; ++i) words[i] = value;
}

inline constexpr KernelTable kNeonTable = {
    Backend::kNeon,    "neon",    &NeonOrInto,          &NeonAnyNonzero,
    &NeonFirstNonzero, &NeonFill, &ScalarFilterColumns,
};

#endif  // RESCHED_SIMD_HAVE_NEON

}  // namespace detail

inline const char* BackendName(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kAvx2:
      return "avx2";
    case Backend::kNeon:
      return "neon";
  }
  return "unknown";
}

/// Whether `b` can run on this build + machine.
inline bool Supported(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return true;
    case Backend::kAvx2:
#if RESCHED_SIMD_HAVE_X86
      // Note: the builtin returns a feature *mask*, not a boolean — always
      // compare against zero (truncating it to an exit code once read as
      // "unsupported" on a machine that very much has AVX2).
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case Backend::kNeon:
      return RESCHED_SIMD_HAVE_NEON != 0;
  }
  return false;
}

namespace detail {

inline const KernelTable* TableFor(Backend b) {
  switch (b) {
#if RESCHED_SIMD_HAVE_X86
    case Backend::kAvx2:
      return &kAvx2Table;
#endif
#if RESCHED_SIMD_HAVE_NEON
    case Backend::kNeon:
      return &kNeonTable;
#endif
    default:
      return &kScalarTable;
  }
}

inline std::atomic<const KernelTable*>& ActiveSlot() {
  static std::atomic<const KernelTable*> slot{nullptr};
  return slot;
}

/// Startup resolution: RESCHED_SIMD override first, else best supported.
inline const KernelTable* Resolve() {
  if (const char* env = std::getenv("RESCHED_SIMD");
      env != nullptr && *env != '\0') {
    Backend requested = Backend::kScalar;
    if (std::strcmp(env, "scalar") == 0) {
      requested = Backend::kScalar;
    } else if (std::strcmp(env, "avx2") == 0) {
      requested = Backend::kAvx2;
    } else if (std::strcmp(env, "neon") == 0) {
      requested = Backend::kNeon;
    } else {
      std::fprintf(stderr,
                   "RESCHED_SIMD=%s: unknown backend (expected "
                   "scalar|avx2|neon)\n",
                   env);
      std::abort();
    }
    if (!Supported(requested)) {
      std::fprintf(stderr,
                   "RESCHED_SIMD=%s: backend not supported on this "
                   "machine/build\n",
                   env);
      std::abort();
    }
    return TableFor(requested);
  }
  if (Supported(Backend::kAvx2)) return TableFor(Backend::kAvx2);
  if (Supported(Backend::kNeon)) return TableFor(Backend::kNeon);
  return TableFor(Backend::kScalar);
}

}  // namespace detail

/// The resolved kernel table (startup resolution on first use).
inline const KernelTable& Active() {
  const KernelTable* t =
      detail::ActiveSlot().load(std::memory_order_acquire);
  if (t == nullptr) {
    // Racing first calls all resolve to the same inline table object, so
    // publishing twice is harmless.
    t = detail::Resolve();
    detail::ActiveSlot().store(t, std::memory_order_release);
  }
  return *t;
}

inline Backend ActiveBackend() { return Active().backend; }

/// Test hook: forces a backend for subsequent kernel calls. Aborts on an
/// unsupported backend (same policy as the env override).
inline void SetBackend(Backend b) {
  if (!Supported(b)) {
    std::fprintf(stderr, "simd::SetBackend(%s): backend not supported\n",
                 BackendName(b));
    std::abort();
  }
  detail::ActiveSlot().store(detail::TableFor(b), std::memory_order_release);
}

}  // namespace resched::simd
