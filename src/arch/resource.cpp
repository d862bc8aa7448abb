#include "arch/resource.hpp"

#include <algorithm>
#include <cmath>

#include "util/string_util.hpp"

namespace resched {

ResourceVec::ResourceVec(std::initializer_list<std::int64_t> values) {
  RESCHED_CHECK_MSG(values.size() <= kMaxResourceKinds,
                    "too many resource kinds");
  size_ = values.size();
  std::size_t i = 0;
  for (std::int64_t v : values) v_[i++] = v;
}

void ResourceVec::CheckSameArity(const ResourceVec& o) const {
  RESCHED_CHECK_MSG(size_ == o.size_, "resource vector arity mismatch");
}

ResourceVec& ResourceVec::operator+=(const ResourceVec& o) {
  CheckSameArity(o);
  for (std::size_t i = 0; i < size_; ++i) v_[i] += o.v_[i];
  return *this;
}

ResourceVec& ResourceVec::operator-=(const ResourceVec& o) {
  CheckSameArity(o);
  for (std::size_t i = 0; i < size_; ++i) v_[i] -= o.v_[i];
  return *this;
}

bool operator==(const ResourceVec& a, const ResourceVec& b) {
  if (a.size_ != b.size_) return false;
  return std::equal(a.v_.begin(), a.v_.begin() + static_cast<long>(a.size_),
                    b.v_.begin());
}

bool LexicographicallyBefore(const ResourceVec& a, const ResourceVec& b) {
  if (a.size_ != b.size_) return a.size_ < b.size_;
  for (std::size_t i = 0; i < a.size_; ++i) {
    if (a.v_[i] != b.v_[i]) return a.v_[i] < b.v_[i];
  }
  return false;
}

bool ResourceVec::FitsWithin(const ResourceVec& o) const {
  CheckSameArity(o);
  for (std::size_t i = 0; i < size_; ++i) {
    if (v_[i] > o.v_[i]) return false;
  }
  return true;
}

bool ResourceVec::IsZero() const {
  for (std::size_t i = 0; i < size_; ++i) {
    if (v_[i] != 0) return false;
  }
  return true;
}

ResourceVec ResourceVec::Max(const ResourceVec& a, const ResourceVec& b) {
  a.CheckSameArity(b);
  ResourceVec out(a.size_);
  for (std::size_t i = 0; i < a.size_; ++i) {
    out.v_[i] = std::max(a.v_[i], b.v_[i]);
  }
  return out;
}

std::int64_t ResourceVec::Total() const {
  std::int64_t t = 0;
  for (std::size_t i = 0; i < size_; ++i) t += v_[i];
  return t;
}

ResourceVec ResourceVec::ScaledDown(double factor) const {
  RESCHED_CHECK_MSG(factor >= 0.0 && factor <= 1.0,
                    "shrink factor out of [0,1]");
  ResourceVec out(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    out.v_[i] = static_cast<std::int64_t>(
        std::floor(static_cast<double>(v_[i]) * factor));
  }
  return out;
}

std::string ResourceVec::ToString() const {
  std::string out = "(";
  for (std::size_t i = 0; i < size_; ++i) {
    if (i != 0) out += ", ";
    out += std::to_string(v_[i]);
  }
  out += ")";
  return out;
}

ResourceModel::ResourceModel(std::vector<KindInfo> kinds)
    : kinds_(std::move(kinds)) {
  RESCHED_CHECK_MSG(!kinds_.empty(), "resource model needs at least one kind");
  RESCHED_CHECK_MSG(kinds_.size() <= kMaxResourceKinds,
                    "too many resource kinds");
  for (const auto& k : kinds_) {
    RESCHED_CHECK_MSG(!k.name.empty(), "resource kind with empty name");
    RESCHED_CHECK_MSG(k.bits_per_unit >= 0.0, "negative bits_per_unit");
  }
}

const ResourceModel::KindInfo& ResourceModel::Kind(std::size_t i) const {
  RESCHED_CHECK_MSG(i < kinds_.size(), "resource kind out of range");
  return kinds_[i];
}

ResourceKind ResourceModel::KindIndex(std::string_view name) const {
  for (std::size_t i = 0; i < kinds_.size(); ++i) {
    if (kinds_[i].name == name) return i;
  }
  throw InstanceError("unknown resource kind: " + std::string(name));
}

bool ResourceModel::HasKind(const std::string& name) const {
  for (const auto& k : kinds_) {
    if (k.name == name) return true;
  }
  return false;
}

double ResourceModel::BitstreamBits(const ResourceVec& res) const {
  RESCHED_CHECK_MSG(res.size() == kinds_.size(),
                    "resource vector arity mismatch with model");
  double bits = 0.0;
  for (std::size_t i = 0; i < kinds_.size(); ++i) {
    bits += static_cast<double>(res[i]) * kinds_[i].bits_per_unit;
  }
  return bits;
}

ResourceModel MakeClbBramDspModel() {
  // bit_r derivation for Xilinx 7-series (see device.cpp for the frame
  // geometry constants): one configuration frame is 101 x 32-bit words =
  // 3232 bits.
  //  - a CLB column spans 50 CLBs per clock region and takes 36 frames
  //    -> 36*3232/50  = 2327.0 bits per CLB;
  //  - a BRAM column spans 10 RAMB36 per clock region and takes 28
  //    interconnect frames -> 28*3232/10 = 9049.6 bits per RAMB36
  //    (content frames excluded: PDR flows typically preserve content);
  //  - a DSP column spans 20 DSP48 per clock region and takes 28 frames
  //    -> 28*3232/20 = 4524.8 bits per DSP48.
  return ResourceModel({{"CLB", 2327.0}, {"BRAM", 9049.6}, {"DSP", 4524.8}});
}

}  // namespace resched
