// Unit tests for the utility substrate: RNG, statistics, JSON, CSV,
// strings, thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <set>
#include <thread>
#include <utility>

#include "util/csv.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/string_util.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace resched {
namespace {

// ---------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const std::int64_t v = rng.UniformInt(-5, 17);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 17);
  }
}

TEST(RngTest, UniformIntSingleton) {
  Rng rng(7);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rng.UniformInt(3, 3), 3);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.UniformInt(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, UniformIntRejectsBadRange) {
  Rng rng(1);
  EXPECT_THROW((void)rng.UniformInt(5, 4), InternalError);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(13);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.UniformDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = v;
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(RngTest, ShuffleChangesOrderEventually) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  bool changed = false;
  for (int i = 0; i < 10 && !changed; ++i) {
    std::vector<int> s = v;
    rng.Shuffle(s);
    changed = s != v;
  }
  EXPECT_TRUE(changed);
}

TEST(RngTest, WeightedIndexRespectsWeights) {
  Rng rng(29);
  std::vector<double> weights{1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 40000; ++i) {
    ++counts[rng.WeightedIndex(weights)];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.3);
}

TEST(RngTest, WeightedIndexRejectsDegenerate) {
  Rng rng(1);
  std::vector<double> empty;
  EXPECT_THROW((void)rng.WeightedIndex(empty), InternalError);
  std::vector<double> zeros{0.0, 0.0};
  EXPECT_THROW((void)rng.WeightedIndex(zeros), InternalError);
}

TEST(RngTest, SplitStreamsAreIndependent) {
  Rng parent(31);
  Rng child1 = parent.Split();
  Rng child2 = parent.Split();
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (child1.Next() == child2.Next()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

TEST(RngTest, DeriveSeedIsDeterministic) {
  EXPECT_EQ(DeriveSeed(kJitterSeedStream, 7), DeriveSeed(kJitterSeedStream, 7));
  EXPECT_NE(DeriveSeed(kJitterSeedStream, 7), DeriveSeed(kJitterSeedStream, 8));
}

TEST(RngTest, DeriveSeedSeparatesStreams) {
  // The same trial index in different streams must yield unrelated seeds —
  // this is what keeps jitter draws and fault draws uncorrelated.
  EXPECT_NE(DeriveSeed(kJitterSeedStream, 0), DeriveSeed(kFaultSeedStream, 0));
  int equal = 0;
  for (std::uint64_t i = 0; i < 64; ++i) {
    if (DeriveSeed(kJitterSeedStream, i) == DeriveSeed(kFaultSeedStream, i)) {
      ++equal;
    }
  }
  EXPECT_EQ(equal, 0);
}

// ---------------------------------------------------------------- stats

TEST(StatsTest, RunningStatBasics) {
  RunningStat s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.Count(), 8u);
  EXPECT_DOUBLE_EQ(s.Mean(), 5.0);
  EXPECT_NEAR(s.StdDev(), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(s.Min(), 2.0);
  EXPECT_DOUBLE_EQ(s.Max(), 9.0);
  EXPECT_DOUBLE_EQ(s.Sum(), 40.0);
}

TEST(StatsTest, EmptyStatIsZero) {
  RunningStat s;
  EXPECT_EQ(s.Count(), 0u);
  EXPECT_EQ(s.Mean(), 0.0);
  EXPECT_EQ(s.StdDev(), 0.0);
}

TEST(StatsTest, SingleSampleHasZeroStdDev) {
  RunningStat s;
  s.Add(3.5);
  EXPECT_EQ(s.StdDev(), 0.0);
}

TEST(StatsTest, BatchHelpersMatchRunning) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Mean(xs), 2.5);
  EXPECT_NEAR(StdDev(xs), std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(StatsTest, PercentileInterpolates) {
  std::vector<double> xs{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(Percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 50.0), 25.0);
  EXPECT_DOUBLE_EQ(Median(xs), 25.0);
}

TEST(StatsTest, PercentileRejectsEmpty) {
  EXPECT_THROW((void)Percentile({}, 50.0), InternalError);
}

// ---------------------------------------------------------------- json

TEST(JsonTest, ParsesScalars) {
  EXPECT_TRUE(JsonValue::Parse("null").IsNull());
  EXPECT_EQ(JsonValue::Parse("true").AsBool(), true);
  EXPECT_EQ(JsonValue::Parse("false").AsBool(), false);
  EXPECT_EQ(JsonValue::Parse("42").AsInt(), 42);
  EXPECT_EQ(JsonValue::Parse("-17").AsInt(), -17);
  EXPECT_DOUBLE_EQ(JsonValue::Parse("2.5").AsDouble(), 2.5);
  EXPECT_DOUBLE_EQ(JsonValue::Parse("1e3").AsDouble(), 1000.0);
  EXPECT_EQ(JsonValue::Parse("\"hi\"").AsString(), "hi");
}

TEST(JsonTest, IntegersRoundTripExactly) {
  const std::int64_t big = 123456789012345678LL;
  const JsonValue v = JsonValue::Parse(std::to_string(big));
  EXPECT_TRUE(v.IsInt());
  EXPECT_EQ(v.AsInt(), big);
  EXPECT_EQ(JsonValue::Parse(v.Dump(-1)).AsInt(), big);
}

TEST(JsonTest, ParsesNestedStructure) {
  const JsonValue v = JsonValue::Parse(
      R"({"a": [1, 2, {"b": true}], "c": {"d": null}})");
  EXPECT_EQ(v.At("a").AsArray().size(), 3u);
  EXPECT_TRUE(v.At("a").AsArray()[2].At("b").AsBool());
  EXPECT_TRUE(v.At("c").At("d").IsNull());
}

TEST(JsonTest, StringEscapes) {
  const JsonValue v = JsonValue::Parse(R"("a\"b\\c\nd\tA")");
  EXPECT_EQ(v.AsString(), "a\"b\\c\nd\tA");
}

TEST(JsonTest, UnicodeSurrogatePair) {
  const JsonValue v = JsonValue::Parse(R"("😀")");
  EXPECT_EQ(v.AsString(), "\xF0\x9F\x98\x80");  // U+1F600
}

TEST(JsonTest, DumpParseRoundTrip) {
  JsonObject obj;
  obj.emplace("name", "x\"y");
  obj.emplace("n", 7);
  obj.emplace("pi", 3.25);
  obj.emplace("list", JsonArray{JsonValue(1), JsonValue(false)});
  const JsonValue v(std::move(obj));
  for (const int indent : {-1, 0, 2}) {
    const JsonValue round = JsonValue::Parse(v.Dump(indent));
    EXPECT_EQ(round, v) << "indent=" << indent;
  }
}

TEST(JsonTest, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,", "tru", "\"unterminated", "{\"a\" 1}", "01x", "[1] x",
        "\"\\u12\"", "{\"a\":}", "nul"}) {
    EXPECT_THROW((void)JsonValue::Parse(bad), JsonError) << bad;
  }
}

TEST(JsonTest, TypeMismatchThrows) {
  const JsonValue v = JsonValue::Parse("[1]");
  EXPECT_THROW((void)v.AsObject(), JsonError);
  EXPECT_THROW((void)v.AsString(), JsonError);
  EXPECT_THROW((void)v.At("x"), JsonError);
}

TEST(JsonTest, GetWithFallback) {
  const JsonValue v = JsonValue::Parse(R"({"a": 5})");
  EXPECT_EQ(v.GetInt("a", -1), 5);
  EXPECT_EQ(v.GetInt("b", -1), -1);
  EXPECT_EQ(v.GetString("b", "dflt"), "dflt");
  EXPECT_TRUE(v.Contains("a"));
  EXPECT_FALSE(v.Contains("b"));
}

// Untrusted-input hardening: the parser must reject hostile documents with
// a JsonError instead of recursing to a stack overflow or buffering
// without bound (the reschedd request path).

TEST(JsonTest, DeepNestingIsRejectedNotCrashed) {
  // ~100k unclosed arrays: a naive recursive-descent parser would blow the
  // stack long before reporting the missing brackets.
  const std::string hostile(100000, '[');
  EXPECT_THROW((void)JsonValue::Parse(hostile), JsonError);

  // The same applies to balanced-but-deep documents and object nesting.
  std::string deep;
  for (int i = 0; i < 5000; ++i) deep += "{\"a\":[";
  deep += "1";
  for (int i = 0; i < 5000; ++i) deep += "]}";
  EXPECT_THROW((void)JsonValue::Parse(deep), JsonError);
}

TEST(JsonTest, NestingAtTheLimitStillParses) {
  JsonParseLimits limits;
  limits.max_depth = 8;
  const std::string at_limit = "[[[[[[[[1]]]]]]]]";    // depth 8
  const std::string over_limit = "[[[[[[[[[1]]]]]]]]]";  // depth 9
  EXPECT_NO_THROW((void)JsonValue::Parse(at_limit, limits));
  EXPECT_THROW((void)JsonValue::Parse(over_limit, limits), JsonError);
}

TEST(JsonTest, OversizedDocumentIsRejectedUpFront) {
  JsonParseLimits limits;
  limits.max_bytes = 64;
  const std::string small = R"({"ok": true})";
  EXPECT_NO_THROW((void)JsonValue::Parse(small, limits));
  const std::string big = "\"" + std::string(200, 'x') + "\"";
  EXPECT_THROW((void)JsonValue::Parse(big, limits), JsonError);
}

TEST(JsonTest, DefaultLimitsAcceptRealisticDocuments) {
  // Depth ~60 is deeper than any resched document but within the default
  // limit of 96.
  std::string doc(60, '[');
  doc += "0";
  doc += std::string(60, ']');
  EXPECT_NO_THROW((void)JsonValue::Parse(doc));
}

// The string reader and writer copy runs of plain bytes in bulk; escapes
// at either end of a run, and runs of every length around them, must come
// out exactly as a byte-at-a-time loop would produce them.

TEST(JsonTest, EscapesAtTheEdgesOfBulkRuns) {
  const std::pair<const char*, std::string> cases[] = {
      {R"("\"abc")", "\"abc"},
      {R"("abc\\")", "abc\\"},
      {R"("\n")", "\n"},
      {R"("\t\u0001x\u001f")", "\t\x01x\x1f"},
      {R"("ab\/cdé\b\f\r")", "ab/cd\xc3\xa9\b\f\r"},
      {R"("")", ""},
  };
  for (const auto& [text, value] : cases) {
    const JsonValue v = JsonValue::Parse(text);
    EXPECT_EQ(v.AsString(), value) << text;
    EXPECT_EQ(JsonValue::Parse(v.Dump(-1)).AsString(), value) << text;
  }
  // Dump escapes only what JSON requires, at any position.
  EXPECT_EQ(JsonValue(std::string("\"mid\\dle\x01")).Dump(-1),
            R"("\"mid\\dle\u0001")");
  EXPECT_EQ(JsonValue(std::string("\x1f" "plain/\xc3\xa9\x7f\n")).Dump(-1),
            "\"\\u001fplain/\xc3\xa9\x7f\\n\"");
  std::string out;
  AppendJsonString(out, "a\"b");
  EXPECT_EQ(out, R"("a\"b")");
}

TEST(JsonTest, RawControlByteInAStringIsStillRejected) {
  for (const std::string& bad :
       {std::string("\"ab\ncd\""), std::string("\"\x01\""),
        std::string("\"abc\x1f\"")}) {
    EXPECT_THROW((void)JsonValue::Parse(bad), JsonError) << bad;
  }
  try {
    (void)JsonValue::Parse(std::string("\"abc\tdef\""));
    FAIL() << "a raw tab parsed";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("raw control character"),
              std::string::npos)
        << e.what();
  }
}

TEST(JsonTest, DuplicateKeysRejectedWhenAskedElseFirstWins) {
  JsonParseLimits strict;
  strict.reject_duplicate_keys = true;
  try {
    (void)JsonValue::Parse(R"({"alpha":1,"beta":2,"alpha":3})", strict);
    FAIL() << "a duplicate key parsed";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate object key \"alpha\""),
              std::string::npos)
        << e.what();
  }
  // The duplicate fails before its value is parsed: the malformed value
  // after the repeated key is never reached.
  try {
    (void)JsonValue::Parse(R"({"k":1,"k":[1,)", strict);
    FAIL() << "a duplicate key parsed";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos)
        << e.what();
  }
  const JsonValue lax =
      JsonValue::Parse(R"({"k":1,"other":true,"k":{"nested":[2]}})");
  EXPECT_EQ(lax.At("k").AsInt(), 1);
  EXPECT_EQ(lax.AsObject().size(), 2u);
  // The discarded value is still syntax-checked.
  EXPECT_THROW((void)JsonValue::Parse(R"({"k":1,"k":[1,})"), JsonError);
}

TEST(JsonTest, Int64ExtremesDumpAndReparseExactly) {
  for (const std::int64_t v :
       {std::numeric_limits<std::int64_t>::min(),
        std::numeric_limits<std::int64_t>::max(), std::int64_t{0},
        std::int64_t{-1}}) {
    const std::string text = JsonValue(v).Dump(-1);
    EXPECT_EQ(text, std::to_string(v));
    const JsonValue back = JsonValue::Parse(text);
    EXPECT_TRUE(back.IsInt()) << text;
    EXPECT_EQ(back.AsInt(), v);
  }
}

TEST(JsonTest, DoublesKeepTheirFormThroughDump) {
  EXPECT_EQ(JsonValue(2327.0).Dump(-1), "2327.0");
  EXPECT_EQ(JsonValue(-0.0).Dump(-1), "-0.0");
  EXPECT_EQ(JsonValue(1e21).Dump(-1), "1e+21");
  EXPECT_EQ(JsonValue(36.75).Dump(-1), "36.75");
  EXPECT_EQ(JsonValue(0.1).Dump(-1), "0.10000000000000001");
  EXPECT_THROW((void)JsonValue(std::nan("")).Dump(-1), JsonError);
  EXPECT_THROW((void)JsonValue(HUGE_VAL).Dump(-1), JsonError);
}

// ---------------------------------------------------------------- csv

TEST(CsvTest, EscapesSpecialFields) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.WriteRow({"plain", "with,comma", "with\"quote", "with\nnewline"});
  EXPECT_EQ(out.str(),
            "plain,\"with,comma\",\"with\"\"quote\",\"with\nnewline\"\n");
}

TEST(CsvTest, NumericFormatting) {
  EXPECT_EQ(CsvWriter::Field(static_cast<std::int64_t>(-42)), "-42");
  EXPECT_EQ(CsvWriter::Field(1.5), "1.5");
}

// ---------------------------------------------------------------- strings

TEST(StringTest, SplitKeepsEmptyFields) {
  const auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringTest, Trim) {
  EXPECT_EQ(Trim("  x y \n"), "x y");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" \t "), "");
}

TEST(StringTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(StrFormat("%05.1f", 2.25), "002.2");
}

TEST(StringTest, Padding) {
  EXPECT_EQ(PadLeft("ab", 4), "  ab");
  EXPECT_EQ(PadRight("ab", 4), "ab  ");
  EXPECT_EQ(PadLeft("abcde", 3), "abcde");
}

TEST(StringTest, FormatTicks) {
  EXPECT_EQ(FormatTicks(500), "500 us");
  EXPECT_EQ(FormatTicks(12340), "12.34 ms");
  EXPECT_EQ(FormatTicks(2500000), "2.500 s");
}

// ---------------------------------------------------------------- pool

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(50);
  pool.ParallelFor(50, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPoolTest, PropagatesTaskException) {
  ThreadPool pool(2);
  pool.Submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.Wait(), std::runtime_error);
}

TEST(ThreadPoolTest, UsableAfterException) {
  ThreadPool pool(2);
  pool.Submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  std::atomic<int> count{0};
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
}

// Shutdown/enqueue ordering contract: tasks already queued when the
// destructor runs are drained, not dropped — the destructor only stops the
// workers once the queue is empty. Guards the ordering TSan watches between
// Submit's enqueue and the shutdown flag.
TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
    // No Wait(): destruction races the queue drain on purpose.
  }
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPoolTest, ConcurrentSubmittersAreSerialized) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  {
    std::vector<std::thread> submitters;
    for (int s = 0; s < 4; ++s) {
      submitters.emplace_back([&pool, &count] {
        for (int i = 0; i < 25; ++i) {
          pool.Submit([&count] { count.fetch_add(1); });
        }
      });
    }
    for (auto& t : submitters) t.join();
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

// ---------------------------------------------------------------- timer

TEST(TimerTest, DeadlineSemantics) {
  const Deadline no_deadline(0.0);
  EXPECT_FALSE(no_deadline.Expired());
  EXPECT_GT(no_deadline.RemainingSeconds(), 1e9);

  const Deadline tight(1e-9);
  // A nanosecond deadline expires essentially immediately.
  WallTimer w;
  while (w.ElapsedSeconds() < 1e-4) {
  }
  EXPECT_TRUE(tight.Expired());
}

TEST(TimerTest, ElapsedIsMonotone) {
  WallTimer t;
  const double a = t.ElapsedSeconds();
  const double b = t.ElapsedSeconds();
  EXPECT_LE(a, b);
}

}  // namespace
}  // namespace resched
