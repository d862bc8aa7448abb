// Seeded mutation fuzz of the untrusted JSON path: JsonValue::Parse under
// the request limits, JsonValue::Parse under the default (trusted-file)
// limits, and service::ParseRequest.
//
// Every case is a request line built from data/instances/* and then
// mutated deterministically: byte flips, truncations, duplicated keys,
// deep nesting and oversize strings. Each case's outcome on each path —
// accept plus a digest of Dump(-1) (or of the parsed request), or reject
// plus the error code, a digest of the full message and a readable prefix
// of it — must match the golden file data/json_fuzz_golden.txt, recorded
// with the std::map-backed DOM this parser replaced. A changed message,
// error position, duplicate-key policy or serialized byte fails the test.
// One line was changed on purpose since: small/flip23's request outcome,
// a fabric column of zero units, went from an internal check failure to a
// bad_request when instance parsing started validating the fabric.
//
// Regenerating the golden file (only when an outcome change is intended):
//   RESCHED_JSON_FUZZ_WRITE=data/json_fuzz_golden.txt ./json_fuzz_test
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "io/instance_hash.hpp"
#include "service/protocol.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

#ifndef RESCHED_TEST_DATA_DIR
#error "RESCHED_TEST_DATA_DIR must be defined by the build"
#endif

namespace resched {
namespace {

constexpr std::uint64_t kFuzzStream = 0x6a736f6e66757a7aULL;  // "jsonfuzz"

struct FuzzCase {
  std::string name;
  std::string line;
};

std::string ReadInstance(const std::string& file) {
  std::ifstream in(std::string(RESCHED_TEST_DATA_DIR) + "/instances/" + file);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Readable, single-line prefix of an error message for the golden file.
std::string MessageClass(const std::string& message) {
  std::string out;
  for (const char c : message) {
    if (out.size() == 72) break;
    const auto b = static_cast<unsigned char>(c);
    out += (b >= 0x20 && b < 0x7f) ? c : '?';
  }
  return out;
}

std::string Hex(std::string_view text) {
  return HashCanonicalText(text).ToHex();
}

std::string Reject(const std::string& code, const std::string& message) {
  return "reject " + code + " " + Hex(message) + " " + MessageClass(message);
}

std::string ParseOutcome(const std::string& line,
                         const JsonParseLimits& limits) {
  try {
    return "accept " + Hex(JsonValue::Parse(line, limits).Dump(-1));
  } catch (const JsonError& e) {
    return Reject("json", e.what());
  }
}

std::string RequestOutcome(const std::string& line) {
  try {
    const service::Request req = service::ParseRequest(line);
    char deadline[40];
    std::snprintf(deadline, sizeof deadline, "%.17g", req.deadline_ms);
    const std::string summary =
        service::RequestKeyText(req) + "|" + req.id + "|" +
        (req.had_id ? "1" : "0") + "|" + req.tenant + "|" +
        (req.deadline_present ? "1" : "0") + "|" + deadline + "|" +
        req.cancel_target + "|" + req.platform_digest.ToHex();
    return "accept " + Hex(summary);
  } catch (const service::ProtocolError& e) {
    return Reject(e.code(), e.what()) + " id=" + Hex(e.id()).substr(0, 8);
  } catch (const std::exception& e) {
    // Internal check failures name the source file and line after " at ";
    // keep only the condition so the outcome does not depend on the path
    // of the checkout.
    const std::string what = e.what();
    const std::string condition = what.substr(0, what.find(" at "));
    return Reject("exception", condition);
  }
}

/// One golden line per (case, path).
std::vector<std::string> Outcomes(const FuzzCase& c) {
  const JsonParseLimits strict = service::RequestParseLimits();
  return {
      c.name + "\tstrict\t" + ParseOutcome(c.line, strict),
      c.name + "\tlax\t" + ParseOutcome(c.line, JsonParseLimits{}),
      c.name + "\trequest\t" + RequestOutcome(c.line),
  };
}

// ---------------------------------------------------------------- mutators

std::size_t Pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng.UniformInt(0, static_cast<std::int64_t>(n) - 1));
}

/// Bytes a flip writes: structure, escapes, digits, letters, control bytes
/// and high (UTF-8 lead/continuation) bytes.
constexpr std::string_view kFlipBytes =
    "{}[]\":,\\/ -+.0123456789eEuntfalsrbx\t\n\r\x01\x1f\x7f\x80\xbf\xc3\xe2"
    "\xf0\xff";

std::string Flip(const std::string& line, Rng& rng) {
  std::string out = line;
  const std::size_t flips = 1 + Pick(rng, 3);
  for (std::size_t i = 0; i < flips; ++i) {
    const std::size_t pos = Pick(rng, out.size());
    if (rng.Bernoulli(0.5)) {
      out[pos] = kFlipBytes[Pick(rng, kFlipBytes.size())];
    } else {
      out[pos] = static_cast<char>(out[pos] ^ (1 << Pick(rng, 8)));
    }
  }
  return out;
}

std::string Truncate(const std::string& line, Rng& rng) {
  return line.substr(0, Pick(rng, line.size()));
}

/// Repeats the key that follows a random `{"`: `{"k":v` becomes
/// `{"k":<dup>,"k":v`, so the duplicate is the second occurrence.
std::string DuplicateKey(const std::string& line, Rng& rng) {
  std::vector<std::size_t> opens;
  for (std::size_t i = 0; i + 1 < line.size(); ++i) {
    if (line[i] == '{' && line[i + 1] == '"') opens.push_back(i);
  }
  if (opens.empty()) return line;
  const std::size_t open = opens[Pick(rng, opens.size())];
  const std::size_t key_end = line.find('"', open + 2);
  if (key_end == std::string::npos) return line;
  static constexpr const char* kDupValues[] = {"0", "\"dup\"", "null",
                                               "[1,{\"a\":2}]", "{}"};
  const std::string key = line.substr(open + 1, key_end - open);
  return line.substr(0, open + 1) + key + ":" + kDupValues[Pick(rng, 5)] +
         "," + line.substr(open + 1);
}

/// Replaces a random number literal with `depth` nested arrays or objects.
std::string NestAtValue(const std::string& line, std::size_t depth,
                        bool objects, bool closed) {
  std::string open;
  std::string close;
  for (std::size_t d = 0; d < depth; ++d) {
    open += objects ? "{\"n\":" : "[";
    close += objects ? "}" : "]";
  }
  const std::string inner = open + "1" + (closed ? close : "");
  const std::size_t colon = line.find("\"time\":");
  if (colon == std::string::npos) return line;
  const std::size_t value = colon + 7;
  std::size_t end = value;
  while (end < line.size() && line[end] >= '0' && line[end] <= '9') ++end;
  return line.substr(0, value) + inner + line.substr(end);
}

std::string RequestLine(const std::string& verb, const std::string& id,
                        const std::string& instance_text, JsonObject extra) {
  extra["verb"] = verb;
  extra["id"] = id;
  if (!instance_text.empty()) {
    extra["instance"] = JsonValue::Parse(instance_text);
  }
  return JsonValue(std::move(extra)).Dump(-1);
}

std::vector<FuzzCase> BuildCases() {
  const std::string small = ReadInstance("small_12.json");
  const std::string medium = ReadInstance("medium_40.json");
  const std::string large = ReadInstance("large_100.json");

  JsonObject par;
  par["algo"] = "par";
  par["seed"] = 9;
  par["iterations"] = 4;
  par["tenant"] = "acme";
  JsonObject sim;
  sim["trials"] = 3;
  sim["fault_rate"] = 0.25;
  sim["policy"] = "suffix";
  sim["jitter"] = 0.1;
  sim["deadline_ms"] = 500;
  JsonObject cancel;
  cancel["target"] = "r3";

  std::vector<FuzzCase> bases = {
      {"small", RequestLine("schedule", "fz-small", small, {})},
      {"medium-par", RequestLine("schedule", "fz-medium", medium, par)},
      {"large", RequestLine("schedule", "fz-large", large, {})},
      {"medium-sim", RequestLine("simulate", "fz-sim", medium, sim)},
      // The instance file's own (indented, multi-line) text: error
      // positions beyond line 1.
      {"small-raw", "{\"id\":\"fz-raw\",\"instance\":" + small +
                        ",\"verb\":\"schedule\"}"},
      {"stats", RequestLine("stats", "fz-stats", "", {})},
      {"cancel", RequestLine("cancel", "fz-cancel", "", cancel)},
      {"shutdown", R"({"verb":"shutdown"})"},
  };

  std::vector<FuzzCase> cases = bases;
  for (std::size_t b = 0; b < bases.size(); ++b) {
    const FuzzCase& base = bases[b];
    Rng rng(DeriveSeed(kFuzzStream, b));
    for (int i = 0; i < 60; ++i) {
      cases.push_back({base.name + "/flip" + std::to_string(i),
                       Flip(base.line, rng)});
    }
    for (int i = 0; i < 12; ++i) {
      cases.push_back({base.name + "/trunc" + std::to_string(i),
                       Truncate(base.line, rng)});
    }
    for (int i = 0; i < 10; ++i) {
      cases.push_back({base.name + "/dup" + std::to_string(i),
                       DuplicateKey(base.line, rng)});
    }
  }

  // Top-level duplicates with conflicting values.
  cases.push_back({"dup-verb", R"({"verb":"schedule","verb":"stats"})"});
  cases.push_back({"dup-id", R"({"id":"a","verb":"stats","id":"b"})"});
  cases.push_back({"dup-nested-late",
                   R"({"verb":"stats","x":{"k":1,"k":[1,)"});

  // Deep nesting around the request cap (32) and the default cap (96).
  for (const std::size_t depth : {30u, 31u, 32u, 33u, 95u, 96u, 97u, 400u}) {
    const std::string d = std::to_string(depth);
    const std::string arrays =
        std::string(depth, '[') + std::string(depth, ']');
    cases.push_back({"nest-arrays" + d,
                     "{\"verb\":\"stats\",\"x\":" + arrays + "}"});
    cases.push_back({"nest-open" + d,
                     "{\"verb\":\"stats\",\"x\":" + std::string(depth, '[')});
    cases.push_back({"nest-instance" + d,
                     NestAtValue(bases[0].line, depth, depth % 2 == 0, true)});
  }
  cases.push_back({"nest-instance-open",
                   NestAtValue(bases[0].line, 20, true, false)});

  // Oversize and escape-heavy strings around the 4 MiB request cap.
  const std::size_t cap = service::RequestParseLimits().max_bytes;
  const std::string head = R"({"verb":"stats","id":")";
  const std::string tail = "\"}";
  const std::size_t fill = cap - head.size() - tail.size();
  cases.push_back({"string-at-cap", head + std::string(fill, 'a') + tail});
  cases.push_back(
      {"string-over-cap", head + std::string(fill + 1, 'a') + tail});
  std::string escaped;
  for (int i = 0; i < 4000; ++i) {
    escaped += R"(é😀\n\"\\\/\t)";
    escaped += "x\xc3\xa9";
  }
  cases.push_back({"string-escapes", head + escaped + tail});
  cases.push_back(
      {"key-long", "{\"" + std::string(70000, 'k') + "\":1,\"verb\":\"stats\"}"});
  cases.push_back({"string-bad-surrogate", head + R"(\ud83dA)" + tail});
  cases.push_back({"string-lone-low", head + R"(\ude00)" + tail});
  cases.push_back({"string-bad-hex", head + R"(\u00g1)" + tail});
  cases.push_back({"string-truncated-escape", head + R"(\u00)"});
  return cases;
}

std::string GoldenPath() {
  return std::string(RESCHED_TEST_DATA_DIR) + "/json_fuzz_golden.txt";
}

TEST(JsonFuzzTest, OutcomesMatchTheGoldenFile) {
  const std::vector<FuzzCase> cases = BuildCases();
  std::vector<std::string> lines;
  for (const FuzzCase& c : cases) {
    for (std::string& line : Outcomes(c)) lines.push_back(std::move(line));
  }

  if (const char* out = std::getenv("RESCHED_JSON_FUZZ_WRITE")) {
    std::ofstream file(out);
    for (const std::string& line : lines) file << line << '\n';
    ASSERT_TRUE(file.good()) << "cannot write " << out;
    GTEST_SKIP() << "wrote " << lines.size() << " outcomes to " << out;
  }

  std::ifstream in(GoldenPath());
  ASSERT_TRUE(in.good()) << "missing golden file " << GoldenPath();
  std::vector<std::string> golden;
  for (std::string line; std::getline(in, line);) golden.push_back(line);

  ASSERT_EQ(golden.size(), lines.size()) << "case list changed";
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i] == golden[i]) continue;
    if (++mismatches <= 20) {
      ADD_FAILURE() << "outcome changed\n  golden: " << golden[i]
                    << "\n  now:    " << lines[i];
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

// The golden file must exercise every outcome kind the mutators aim at, or
// it pins nothing.
TEST(JsonFuzzTest, GoldenFileCoversAcceptAndEveryRejectKind) {
  std::ifstream in(GoldenPath());
  ASSERT_TRUE(in.good());
  std::map<std::string, int> seen;
  for (std::string line; std::getline(in, line);) {
    for (const char* needle :
         {"\tstrict\taccept", "\tlax\taccept", "\trequest\taccept",
          "duplicate object key", "nesting depth exceeds",
          "exceeds the size limit", "unexpected end of input",
          "reject parse_error", "reject bad_request", "surrogate"}) {
      if (line.find(needle) != std::string::npos) ++seen[needle];
    }
  }
  EXPECT_EQ(seen.size(), 10u);
  for (const auto& [needle, count] : seen) {
    EXPECT_GT(count, 0) << needle;
  }
}

}  // namespace
}  // namespace resched
