// JSON (de)serialization of problem instances.
//
// The on-disk format is self-describing and versioned:
//
// {
//   "format": "resched-instance", "version": 1,
//   "name": "...",
//   "platform": {
//     "name": "...", "processors": 2, "recfreq_bits_per_sec": 1.024e9,
//     "device": {
//       "name": "...",
//       "resource_kinds": [{"name": "CLB", "bits_per_unit": 2327.0}, ...],
//       "fabric": {"rows": 4, "columns": [{"kind": "CLB", "units": 100}, ...]}
//     }
//   },
//   "tasks": [{"name": "...", "impls": [
//       {"name": "sw", "kind": "sw", "time": 12345},
//       {"name": "hw0", "kind": "hw", "time": 2000,
//        "res": {"CLB": 1200, "DSP": 8}, "module": 17}]}, ...],
//   "edges": [[0, 1], [0, 2], ...]
// }
#pragma once

#include <string>

#include "taskgraph/taskgraph.hpp"
#include "util/json.hpp"

namespace resched {

/// Byte range [begin, end) inside a text.
struct ByteSpan {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// The canonical text of an instance: compact single-line JSON with every
/// object's keys in byte order (`res` keys by kind name, not kind index),
/// integers exact and doubles as %.17g (".0" appended when integral). It
/// is the one definition of the format's bytes: written straight from the
/// Instance, a fixed point of JsonValue::Parse + Dump(-1), and the text
/// instance digests are taken over (io/instance_hash.hpp). When
/// `platform_span` is set it receives the bytes of the "platform" object.
std::string CanonicalInstanceText(const Instance& instance,
                                  ByteSpan* platform_span = nullptr);

/// JsonValue::Parse(CanonicalInstanceText(instance)).
JsonValue InstanceToJson(const Instance& instance);
/// Reads and validates an instance document (throws InstanceError or
/// JsonError).
Instance InstanceFromJson(const JsonValue& json);

std::string InstanceToString(const Instance& instance);
Instance InstanceFromString(const std::string& text);

/// File helpers; throw InstanceError on I/O failure.
void SaveInstance(const Instance& instance, const std::string& path);
Instance LoadInstance(const std::string& path);

}  // namespace resched
