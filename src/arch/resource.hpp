// Reconfigurable-resource model.
//
// The paper treats the set R of FPGA resource kinds generically (CLB, BRAM,
// DSP, ...). ResourceModel names the kinds present on a device and records
// the average number of configuration-memory bits needed to reconfigure one
// unit of each kind (the bit_r of Eq. (1), derived from the per-tile frame
// counts of the target family). ResourceVec is a fixed-arity non-negative
// integer vector indexed by resource kind.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/common.hpp"

namespace resched {

/// Index of a resource kind within a ResourceModel.
using ResourceKind = std::size_t;

/// Maximum number of distinct resource kinds a device may expose. Real
/// reconfigurable fabrics have 3-5 (CLB/BRAM/DSP + optional URAM etc.).
inline constexpr std::size_t kMaxResourceKinds = 8;

/// Small fixed-capacity vector of per-kind quantities.
class ResourceVec {
 public:
  ResourceVec() = default;
  explicit ResourceVec(std::size_t kinds) : size_(kinds) {
    RESCHED_CHECK_MSG(kinds <= kMaxResourceKinds, "too many resource kinds");
  }
  ResourceVec(std::initializer_list<std::int64_t> values);

  std::size_t size() const { return size_; }

  std::int64_t operator[](std::size_t i) const {
    RESCHED_CHECK_MSG(i < size_, "resource kind out of range");
    return v_[i];
  }
  std::int64_t& operator[](std::size_t i) {
    RESCHED_CHECK_MSG(i < size_, "resource kind out of range");
    return v_[i];
  }

  ResourceVec& operator+=(const ResourceVec& o);
  ResourceVec& operator-=(const ResourceVec& o);
  friend ResourceVec operator+(ResourceVec a, const ResourceVec& b) {
    return a += b;
  }
  friend ResourceVec operator-(ResourceVec a, const ResourceVec& b) {
    return a -= b;
  }
  friend bool operator==(const ResourceVec& a, const ResourceVec& b);

  /// Component-wise a <= b (this fits within capacity `o`).
  bool FitsWithin(const ResourceVec& o) const;

  /// Strict total order: arity first, then components lexicographically.
  /// This is a canonicalization order for caches and dedup — NOT a
  /// capacity relation (use FitsWithin for that).
  friend bool LexicographicallyBefore(const ResourceVec& a,
                                      const ResourceVec& b);

  /// True when every component is zero.
  bool IsZero() const;

  /// Component-wise max (used to grow a region to host a new module).
  static ResourceVec Max(const ResourceVec& a, const ResourceVec& b);

  /// Sum of all components (dimension-less total, used in weight formulas).
  std::int64_t Total() const;

  /// Scales every component by `factor`, rounding down (floorplan-failure
  /// shrinking of maxRes, §V-H).
  ResourceVec ScaledDown(double factor) const;

  std::string ToString() const;

 private:
  void CheckSameArity(const ResourceVec& o) const;

  std::array<std::int64_t, kMaxResourceKinds> v_{};
  std::size_t size_ = 0;
};

/// Describes the resource kinds of a device family.
class ResourceModel {
 public:
  struct KindInfo {
    std::string name;          ///< e.g. "CLB", "BRAM", "DSP"
    double bits_per_unit = 0;  ///< configuration bits to reconfigure one unit
  };

  ResourceModel() = default;
  explicit ResourceModel(std::vector<KindInfo> kinds);

  std::size_t NumKinds() const { return kinds_.size(); }
  const KindInfo& Kind(std::size_t i) const;
  /// Index lookup by name; throws InstanceError when unknown.
  ResourceKind KindIndex(std::string_view name) const;
  bool HasKind(const std::string& name) const;

  ResourceVec ZeroVec() const { return ResourceVec(NumKinds()); }

  /// Eq. (1): total configuration-bitstream size for a requirement vector.
  double BitstreamBits(const ResourceVec& res) const;

 private:
  std::vector<KindInfo> kinds_;
};

/// The default three-kind model used throughout the paper (7-series-like).
/// bit_r values are derived from Xilinx 7-series frame geometry (see
/// device.cpp for the derivation).
ResourceModel MakeClbBramDspModel();

}  // namespace resched
