// Canonical content hashing of problem instances (and other canonical
// JSON texts) for the reschedd result cache and floorplan-cache pool.
//
// An instance digest is taken over CanonicalInstanceText
// (io/instance_io.hpp), which is written straight from the Instance: two
// semantically identical instances, however their source documents were
// formatted, produce the same text and hence the same digest. The digest
// is 128 bits (two independent 64-bit FNV-1a streams), wide enough that
// the result cache can treat digest equality as instance equality.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "taskgraph/taskgraph.hpp"

namespace resched {

struct Digest128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  /// 32 lowercase hex characters (hi then lo).
  std::string ToHex() const;

  friend bool operator==(const Digest128& a, const Digest128& b) {
    return a.hi == b.hi && a.lo == b.lo;
  }
  friend bool operator!=(const Digest128& a, const Digest128& b) {
    return !(a == b);
  }
};

/// FNV-1a over `text` with a caller-chosen offset basis (64-bit stream).
std::uint64_t Fnv1a64(std::string_view text, std::uint64_t basis);

/// 128-bit digest of an arbitrary canonical text: lo is Fnv1a64 with the
/// standard offset basis, hi with a second, decorrelated basis.
Digest128 HashCanonicalText(std::string_view text);

/// Digest of CanonicalInstanceText(instance).
Digest128 HashInstance(const Instance& instance);

}  // namespace resched
