// Pins the canonical instance text: the compact JSON every instance digest
// is defined over, and with it every result-cache key, floorplan-pool key
// and the `instance_digest` inside schedule/simulate response bodies. The
// expected texts and hex digests below were captured from the original
// DOM serializer (InstanceToJson + Dump(-1)); every test here fails when
// the canonical bytes drift.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "arch/zynq.hpp"
#include "io/instance_hash.hpp"
#include "io/instance_io.hpp"
#include "service/protocol.hpp"
#include "taskgraph/generator.hpp"
#include "test_helpers.hpp"

#ifndef RESCHED_TEST_DATA_DIR
#error "RESCHED_TEST_DATA_DIR must be defined by the build"
#endif

namespace resched {
namespace {

std::string ReadDataFile(const std::string& name) {
  std::ifstream in(std::string(RESCHED_TEST_DATA_DIR) + "/instances/" + name);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// A schedule request line carrying `instance_json` inline.
std::string RequestLine(const JsonValue& instance_json) {
  JsonObject request;
  request["verb"] = "schedule";
  request["id"] = "golden";
  request["instance"] = instance_json;
  return JsonValue(std::move(request)).Dump(-1);
}

/// Three kinds declared URAM, CLB, BRAM: kind-index order is not name
/// order. bits_per_unit values are non-integral, integral and tiny enough
/// for %.17g to pick exponent form; the recfreq is large enough for it
/// too.
Instance CustomKindOrderInstance() {
  ResourceModel model(
      {{"URAM", 36.75}, {"CLB", 2327.0}, {"BRAM", 1.5e-7}});
  FabricGeometry geom;
  geom.rows = 2;
  geom.columns = {{1, 50}, {0, 2}, {2, 5}, {1, 50}};
  FpgaDevice device("custom-dev", std::move(model), std::move(geom));
  Platform platform =
      Platform("custom-plat", 3, std::move(device), 1e21, 2)
          .WithHwSwBandwidth(1e9 / 3.0);

  TaskGraph g;
  const TaskId a = g.AddTask("a");
  g.AddImpl(a, testing::SwImpl(5000));
  Implementation hw_a = testing::HwImpl(900, 0);
  hw_a.res = ResourceVec({1, 150, 0});  // URAM, CLB, BRAM
  hw_a.module_id = 4;
  g.AddImpl(a, hw_a);
  const TaskId b = g.AddTask("b");
  g.AddImpl(b, testing::SwImpl(7000, "soft"));
  Implementation hw_b = testing::HwImpl(1200, 0);
  hw_b.res = ResourceVec({0, 100, 2});
  g.AddImpl(b, hw_b);
  const TaskId c = g.AddTask("c");
  g.AddImpl(c, testing::SwImpl(3000));
  g.AddEdge(a, b);
  g.SetEdgeData(a, b, 4096);
  g.AddEdge(a, c);
  g.AddEdge(b, c);
  return Instance{"custom", std::move(platform), std::move(g)};
}

/// Two kinds share the name CLB. A JSON object holds one value per key,
/// so `res` keeps the first non-zero one.
Instance DuplicateKindNameInstance() {
  ResourceModel model({{"CLB", 1.0}, {"DSP", 2.0}, {"CLB", 3.0}});
  FabricGeometry geom;
  geom.rows = 1;
  geom.columns = {{0, 10}, {1, 10}, {2, 10}};
  FpgaDevice device("dup-dev", std::move(model), std::move(geom));
  TaskGraph g;
  const TaskId a = g.AddTask("a");
  g.AddImpl(a, testing::SwImpl(100));
  Implementation later = testing::HwImpl(50, 0);
  later.res = ResourceVec({0, 4, 7});  // only the second CLB is non-zero
  g.AddImpl(a, later);
  Implementation both = testing::HwImpl(60, 0);
  both.res = ResourceVec({5, 0, 9});
  g.AddImpl(a, both);
  return Instance{"dup", Platform("dup-plat", 1, std::move(device), 1e6),
                  std::move(g)};
}

/// Names with a quote, a backslash, control bytes, a slash and raw UTF-8.
Instance HostileNamesInstance() {
  TaskGraph g;
  const TaskId q = g.AddTask("q\"uo\\te");
  g.AddImpl(q, testing::SwImpl(100, "/slash"));
  g.AddImpl(q, testing::HwImpl(50, 200, 1, 0, -1, "\x01" "ctl\x1f"));
  const TaskId w = g.AddTask("tab\tnl\ncr\rbs\b\fff");
  g.AddImpl(w, testing::SwImpl(200, "caf\xc3\xa9 \xe2\x82\xac"));
  g.AddEdge(q, w);
  return Instance{"\xf0\x9f\x98\x80\x7f",
                  testing::MakeSmallPlatform(), std::move(g)};
}

constexpr const char* kCustomText =
    "{\"edges\":[[0,1,4096],[0,2],[1,2]],\"format\":\"resched-instance\""
    ",\"name\":\"custom\",\"platform\":{\"device\":{\"fabric\":{\"colum"
    "ns\":[{\"kind\":\"CLB\",\"units\":50},{\"kind\":\"URAM\",\"units\""
    ":2},{\"kind\":\"BRAM\",\"units\":5},{\"kind\":\"CLB\",\"units\":50"
    "}],\"rows\":2},\"name\":\"custom-dev\",\"resource_kinds\":[{\"bits"
    "_per_unit\":36.75,\"name\":\"URAM\"},{\"bits_per_unit\":2327.0,\"n"
    "ame\":\"CLB\"},{\"bits_per_unit\":1.4999999999999999e-07,\"name\":"
    "\"BRAM\"}]},\"hw_sw_bandwidth_bytes_per_sec\":333333333.33333331,\""
    "name\":\"custom-plat\",\"processors\":3,\"recfreq_bits_per_sec\":1"
    "e+21,\"reconfigurators\":2},\"tasks\":[{\"impls\":[{\"kind\":\"sw\""
    ",\"name\":\"sw\",\"time\":5000},{\"kind\":\"hw\",\"module\":4,\"na"
    "me\":\"hw\",\"res\":{\"CLB\":150,\"URAM\":1},\"time\":900}],\"name"
    "\":\"a\"},{\"impls\":[{\"kind\":\"sw\",\"name\":\"soft\",\"time\":"
    "7000},{\"kind\":\"hw\",\"name\":\"hw\",\"res\":{\"BRAM\":2,\"CLB\""
    ":100},\"time\":1200}],\"name\":\"b\"},{\"impls\":[{\"kind\":\"sw\""
    ",\"name\":\"sw\",\"time\":3000}],\"name\":\"c\"}],\"version\":1}";

constexpr const char* kHostileText =
    "{\"edges\":[[0,1]],\"format\":\"resched-instance\",\"name\":\"\xf0\x9f"
    "\x98\x80\x7f\",\"platform\":{\"device\":{\"fabric\":{\"columns\":["
    "{\"kind\":\"CLB\",\"units\":100},{\"kind\":\"CLB\",\"units\":100},"
    "{\"kind\":\"CLB\",\"units\":100},{\"kind\":\"CLB\",\"units\":100},"
    "{\"kind\":\"BRAM\",\"units\":10},{\"kind\":\"DSP\",\"units\":20},{"
    "\"kind\":\"CLB\",\"units\":100},{\"kind\":\"CLB\",\"units\":100},{"
    "\"kind\":\"CLB\",\"units\":100},{\"kind\":\"CLB\",\"units\":100}],"
    "\"rows\":4},\"name\":\"test-device\",\"resource_kinds\":[{\"bits_p"
    "er_unit\":2327.0,\"name\":\"CLB\"},{\"bits_per_unit\":9049.6000000"
    "000004,\"name\":\"BRAM\"},{\"bits_per_unit\":4524.8000000000002,\""
    "name\":\"DSP\"}]},\"hw_sw_bandwidth_bytes_per_sec\":0.0,\"name\":\""
    "test-platform\",\"processors\":2,\"recfreq_bits_per_sec\":25600000"
    "0.0,\"reconfigurators\":1},\"tasks\":[{\"impls\":[{\"kind\":\"sw\""
    ",\"name\":\"/slash\",\"time\":100},{\"kind\":\"hw\",\"name\":\"\\u"
    "0001ctl\\u001f\",\"res\":{\"BRAM\":1,\"CLB\":200},\"time\":50}],\""
    "name\":\"q\\\"uo\\\\te\"},{\"impls\":[{\"kind\":\"sw\",\"name\":\""
    "caf\xc3\xa9 \xe2\x82\xac\",\"time\":200}],\"name\":\"tab\\tnl\\ncr"
    "\\rbs\\b\\fff\"}],\"version\":1}";

TEST(CanonicalTextTest, CustomKindOrderTextIsPinned) {
  const Instance inst = CustomKindOrderInstance();
  EXPECT_EQ(CanonicalInstanceText(inst), kCustomText);
}

TEST(CanonicalTextTest, DuplicateKindNamesKeepTheFirstNonZero) {
  EXPECT_EQ(
      CanonicalInstanceText(DuplicateKindNameInstance()),
      R"({"edges":[],"format":"resched-instance","name":"dup","platform":)"
      R"({"device":{"fabric":{"columns":[{"kind":"CLB","units":10},)"
      R"({"kind":"DSP","units":10},{"kind":"CLB","units":10}],"rows":1},)"
      R"("name":"dup-dev","resource_kinds":[{"bits_per_unit":1.0,"name":)"
      R"("CLB"},{"bits_per_unit":2.0,"name":"DSP"},{"bits_per_unit":3.0,)"
      R"("name":"CLB"}]},"hw_sw_bandwidth_bytes_per_sec":0.0,"name":)"
      R"("dup-plat","processors":1,"recfreq_bits_per_sec":1000000.0,)"
      R"("reconfigurators":1},"tasks":[{"impls":[{"kind":"sw","name":"sw",)"
      R"("time":100},{"kind":"hw","name":"hw","res":{"CLB":7,"DSP":4},)"
      R"("time":50},{"kind":"hw","name":"hw","res":{"CLB":5},"time":60}],)"
      R"("name":"a"}],"version":1})");
}

TEST(CanonicalTextTest, HostileNamesTextIsPinned) {
  const Instance inst = HostileNamesInstance();
  EXPECT_EQ(CanonicalInstanceText(inst), kHostileText);
}

TEST(CanonicalTextTest, UnicodeEscapesInARequestCanonicalizeToUtf8) {
  // \u escapes decode to UTF-8 on the way in; the canonical text writes
  // the raw bytes back and escapes only what JSON requires.
  JsonValue inst = InstanceToJson(CustomKindOrderInstance());
  std::string line = RequestLine(inst);
  const std::string from = "\"name\":\"custom\"";
  const auto at = line.find(from);
  ASSERT_NE(at, std::string::npos);
  line.replace(at, from.size(),
               R"("name":"é😀\u0007/")");
  const service::Request req = service::ParseRequest(line);
  const std::string text = CanonicalInstanceText(*req.instance);
  EXPECT_NE(text.find("\"name\":\"\xc3\xa9\xf0\x9f\x98\x80\\u0007/\""),
            std::string::npos)
      << text;
  EXPECT_EQ(req.instance_digest, HashCanonicalText(text));
}

struct ShippedGolden {
  const char* file;
  const char* instance_digest;
  const char* platform_digest;
};

TEST(CanonicalTextTest, ShippedInstanceDigestsArePinned) {
  const ShippedGolden golden[] = {
      {"small_12.json", "90dbab98afed72e8773d0028ec046527",
       "d8fe9929f13a3dbb58d8d22a35079b82"},
      {"medium_40.json", "b19794a6af42e6a62a897e5ae0f55377",
       "d8fe9929f13a3dbb58d8d22a35079b82"},
      {"large_100.json", "2428d42f6893ad5a056781bcd35b2c3f",
       "d8fe9929f13a3dbb58d8d22a35079b82"},
  };
  for (const ShippedGolden& g : golden) {
    const std::string text = ReadDataFile(g.file);
    const Instance inst = InstanceFromString(text);
    EXPECT_EQ(HashInstance(inst).ToHex(), g.instance_digest) << g.file;
    const service::Request req =
        service::ParseRequest(RequestLine(JsonValue::Parse(text)));
    EXPECT_EQ(req.instance_digest.ToHex(), g.instance_digest) << g.file;
    EXPECT_EQ(req.platform_digest.ToHex(), g.platform_digest) << g.file;
  }
}

/// Seeded sweep over sizes, platforms, edge payloads, module sharing and
/// HW<->SW bandwidth.
std::vector<Instance> GeneratedSweep() {
  const Platform platforms[] = {
      MakeZedBoard(), MakePynqZ1(1.5e8).WithHwSwBandwidth(4e8),
      MakeZcu102(), MakeKintexPlatform()};
  std::vector<Instance> out;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    GeneratorOptions gen;
    gen.num_tasks = 5 + (seed * 13) % 96;
    gen.share_prob = seed % 3 == 0 ? 0.5 : 0.15;
    if (seed % 2 == 0) {
      gen.comm_bytes_lo = 64;
      gen.comm_bytes_hi = 1 << 20;
    }
    out.push_back(GenerateInstance(platforms[seed % 4], gen, seed,
                                   "sweep" + std::to_string(seed)));
  }
  return out;
}

TEST(CanonicalTextTest, GeneratedSweepDigestsArePinned) {
  std::string instance_hexes;
  std::string platform_hexes;
  for (const Instance& inst : GeneratedSweep()) {
    const service::Request req =
        service::ParseRequest(RequestLine(InstanceToJson(inst)));
    EXPECT_EQ(req.instance_digest, HashInstance(inst)) << inst.name;
    instance_hexes += req.instance_digest.ToHex();
    platform_hexes += req.platform_digest.ToHex();
  }
  EXPECT_EQ(HashCanonicalText(instance_hexes).ToHex(),
            "587011611b0ef57a66869b5a2bdd4003");
  EXPECT_EQ(HashCanonicalText(platform_hexes).ToHex(),
            "5f223e852e357778d108e48a85ffa3cd");
}

TEST(CanonicalTextTest, TextIsAFixedPointOfParseAndDump) {
  std::vector<Instance> all = GeneratedSweep();
  all.push_back(CustomKindOrderInstance());
  all.push_back(DuplicateKindNameInstance());
  all.push_back(HostileNamesInstance());
  for (const char* file : {"small_12.json", "medium_40.json"}) {
    all.push_back(InstanceFromString(ReadDataFile(file)));
  }
  for (const Instance& inst : all) {
    const std::string text = CanonicalInstanceText(inst);
    EXPECT_EQ(JsonValue::Parse(text).Dump(-1), text) << inst.name;
    EXPECT_EQ(InstanceToJson(inst).Dump(-1), text) << inst.name;
    EXPECT_EQ(CanonicalInstanceText(InstanceFromString(text)), text)
        << inst.name;
  }
}

}  // namespace
}  // namespace resched
