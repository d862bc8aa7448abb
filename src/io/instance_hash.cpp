#include "io/instance_hash.hpp"

#include <cstdio>

#include "io/instance_io.hpp"

namespace resched {

std::string Digest128::ToHex() const {
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return std::string(buf, 32);
}

std::uint64_t Fnv1a64(std::string_view text, std::uint64_t basis) {
  std::uint64_t h = basis;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;  // FNV-1a 64-bit prime
  }
  return h;
}

Digest128 HashCanonicalText(std::string_view text) {
  // Two decorrelated streams: the standard FNV offset basis and a second
  // basis derived from it by the splitmix64 constant. A collision now needs
  // to defeat both streams simultaneously. They run in one loop: the two
  // multiply chains are independent, so they overlap in the pipeline.
  constexpr std::uint64_t kPrime = 0x100000001B3ULL;
  std::uint64_t lo = 0xCBF29CE484222325ULL;
  std::uint64_t hi = 0xCBF29CE484222325ULL ^ 0x9E3779B97F4A7C15ULL;
  for (const char c : text) {
    const auto b = static_cast<unsigned char>(c);
    lo = (lo ^ b) * kPrime;
    hi = (hi ^ b) * kPrime;
  }
  Digest128 d;
  d.hi = hi;
  d.lo = lo;
  return d;
}

Digest128 HashInstance(const Instance& instance) {
  return HashCanonicalText(CanonicalInstanceText(instance));
}

}  // namespace resched
