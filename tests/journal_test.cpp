// Unit tests for the crash-safe journal: CRC32C, v2 framing, the recovery
// scan's torn-tail / interior-corruption distinction, v1 interop (a
// committed fixture must replay byte-identically forever), fsync-policy
// parsing, and the lexical response-id stripper the warm start relies on.
#include <gtest/gtest.h>

#include <unistd.h>

#include <fstream>
#include <string>

#include "service/journal.hpp"
#include "service/protocol.hpp"
#include "util/crc32c.hpp"

namespace resched {
namespace {

using service::FrameRecordV2;
using service::Journal;
using service::JournalError;
using service::JournalScan;
using service::JournalSync;
using service::ParseJournalSync;
using service::ScanJournalFile;
using service::ScanJournalText;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name + "." + std::to_string(::getpid());
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << path;
  out << text;
  out.close();
  ASSERT_TRUE(out.good()) << path;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

const char kMeta[] = R"({"journal":"meta","protocol":1})";
const char kReq[] = R"({"journal":"request","id":"a","line":"{\"verb\":\"stats\"}"})";
const char kResp[] =
    R"({"journal":"response","id":"a","line":"{\"id\":\"a\",\"ok\":true}","served":"exec"})";

// ------------------------------------------------------------------ crc32c --

TEST(Crc32cTest, MatchesKnownVectors) {
  // The CRC32C check value (RFC 3720 appendix B.4 family).
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(""), 0u);
  // Incremental == one-shot.
  const std::string text = "resched journal payload";
  const std::uint32_t whole = Crc32c(text);
  const std::uint32_t split = Crc32c(text.substr(8), Crc32c(text.substr(0, 8)));
  EXPECT_EQ(split, whole);
}

// ----------------------------------------------------------------- framing --

TEST(JournalScanTest, FramedRecordRoundTrips) {
  const std::string text =
      FrameRecordV2(kMeta) + FrameRecordV2(kReq) + FrameRecordV2(kResp);
  const JournalScan scan = ScanJournalText(text);
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_TRUE(scan.saw_meta);
  EXPECT_EQ(scan.v2_records, 3u);
  EXPECT_EQ(scan.torn_bytes, 0u);
  EXPECT_EQ(scan.valid_bytes, text.size());
  EXPECT_EQ(scan.records[1].kind, "request");
  EXPECT_EQ(scan.records[1].id, "a");
  EXPECT_EQ(scan.records[2].served, "exec");
}

TEST(JournalScanTest, V1BareLinesStillScan) {
  // A journal written before framing existed: bare JSONL records. They
  // must scan (and replay) forever — v1 files in the field do not expire.
  const std::string text = std::string(kMeta) + "\n" + kReq + "\n";
  const JournalScan scan = ScanJournalText(text);
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.v1_records, 2u);
  EXPECT_EQ(scan.records[0].version, 1);
  EXPECT_TRUE(scan.saw_meta);

  // And a journal may mix both (v1 file continued by a v2 daemon).
  const std::string mixed = text + FrameRecordV2(kResp);
  const JournalScan both = ScanJournalText(mixed);
  ASSERT_EQ(both.records.size(), 3u);
  EXPECT_EQ(both.v1_records, 2u);
  EXPECT_EQ(both.v2_records, 1u);
}

TEST(JournalScanTest, TornTailIsDroppedAndCounted) {
  const std::string whole = FrameRecordV2(kMeta) + FrameRecordV2(kReq);
  // A crash mid-append leaves a prefix of the next frame (no newline, or
  // a truncated payload whose CRC cannot match).
  const std::string frame = FrameRecordV2(kResp);
  for (const std::size_t keep : {std::size_t{1}, std::size_t{10},
                                 frame.size() - 1}) {
    const std::string torn = whole + frame.substr(0, keep);
    const JournalScan scan = ScanJournalText(torn);
    ASSERT_EQ(scan.records.size(), 2u) << "keep=" << keep;
    EXPECT_EQ(scan.torn_bytes, keep) << "keep=" << keep;
    EXPECT_EQ(scan.valid_bytes, whole.size()) << "keep=" << keep;
  }
}

TEST(JournalScanTest, InteriorCorruptionThrowsInsteadOfFakingHistory) {
  // Flip one payload byte of the middle record: its CRC fails but a valid
  // record follows, so this is bit rot, not a torn tail.
  std::string middle = FrameRecordV2(kReq);
  middle[middle.size() / 2] ^= 0x01;
  const std::string text =
      FrameRecordV2(kMeta) + middle + FrameRecordV2(kResp);
  EXPECT_THROW((void)ScanJournalText(text), JournalError);
}

TEST(JournalScanTest, CrcMismatchWithCorrectLengthIsDetected) {
  std::string frame = FrameRecordV2(kReq);
  // Corrupt the checksum field itself (bytes after "#v2 <len> ").
  const std::size_t crc_pos = frame.find(' ', 4) + 1;
  frame[crc_pos] = frame[crc_pos] == 'f' ? '0' : 'f';
  const JournalScan scan = ScanJournalText(frame);
  EXPECT_TRUE(scan.records.empty());
  EXPECT_EQ(scan.torn_bytes, frame.size());
}

// ---------------------------------------------------------- journal writer --

TEST(JournalTest, ReopenAfterTornTailTruncatesToLastWholeRecord) {
  const std::string path = TempPath("resched_journal_torn");
  (void)::unlink(path.c_str());
  {
    Journal journal(path, JournalSync::kAlways);
    journal.AppendRequest("a", R"({"verb":"stats"})");
    journal.AppendResponse("a", R"({"id":"a","ok":true})", "control");
  }
  const std::string committed = ReadFile(path);

  // Simulate a crash mid-append: half of a fourth record on disk.
  const std::string partial = FrameRecordV2(kResp);
  WriteFile(path, committed + partial.substr(0, partial.size() / 2));

  Journal reopened(path, JournalSync::kAlways);
  EXPECT_EQ(reopened.Report().torn_bytes, partial.size() / 2);
  EXPECT_EQ(reopened.Report().records, 3u);  // meta + request + response
  EXPECT_EQ(reopened.Report().valid_bytes, committed.size());
  reopened.AppendRequest("b", R"({"verb":"stats"})");
  reopened.Sync();

  // The truncated file continues at a record boundary: everything scans,
  // including the second meta record from the reopen.
  const JournalScan scan = ScanJournalFile(path, /*truncate_torn=*/false);
  EXPECT_EQ(scan.torn_bytes, 0u);
  ASSERT_EQ(scan.records.size(), 5u);
  EXPECT_EQ(scan.records[4].id, "b");
  (void)::unlink(path.c_str());
}

TEST(JournalTest, ScanFileCanTruncateOnDisk) {
  const std::string path = TempPath("resched_journal_trunc");
  const std::string whole = FrameRecordV2(kMeta) + FrameRecordV2(kReq);
  WriteFile(path, whole + "#v2 999 deadbeef {\"jour");

  const JournalScan scan = ScanJournalFile(path, /*truncate_torn=*/true);
  EXPECT_GT(scan.torn_bytes, 0u);
  EXPECT_EQ(ReadFile(path), whole);  // tail is gone on disk too
  (void)::unlink(path.c_str());
}

TEST(JournalSyncTest, ParsePolicies) {
  EXPECT_EQ(ParseJournalSync("none"), JournalSync::kNone);
  EXPECT_EQ(ParseJournalSync("batch"), JournalSync::kBatch);
  EXPECT_EQ(ParseJournalSync("always"), JournalSync::kAlways);
  EXPECT_THROW((void)ParseJournalSync("sometimes"), JournalError);
}

// -------------------------------------------------------------- v1 interop --

TEST(JournalInteropTest, CommittedV1FixtureReplaysByteIdentically) {
  // data/journal_v1_fixture.jsonl was written by the pre-framing daemon
  // and is committed: replay must keep matching bit-for-bit as the journal
  // format evolves. 4 requests: two deterministic schedules, one
  // deterministic simulate (replayed + matched) and a shutdown (skipped).
  const std::string path =
      std::string(RESCHED_TEST_DATA_DIR) + "/journal_v1_fixture.jsonl";
  const service::ReplayOutcome outcome = service::ReplayJournal(path);
  EXPECT_EQ(outcome.requests, 4u);
  EXPECT_EQ(outcome.replayed, 3u);
  EXPECT_EQ(outcome.matched, 3u);
  EXPECT_EQ(outcome.mismatched, 0u);
  EXPECT_EQ(outcome.skipped, 1u);
  EXPECT_EQ(outcome.torn_bytes, 0u);
  EXPECT_TRUE(outcome.ok());
}

// --------------------------------------------------------- id stripping --

TEST(StripResponseIdTest, LexicalStripPreservesBodyBytes) {
  std::string body;
  ASSERT_TRUE(service::StripResponseId(
      R"({"id":"r1","ok":true,"verb":"stats"})", body));
  EXPECT_EQ(body, R"({"ok":true,"verb":"stats"})");

  // Hostile ids: escaped quotes and backslashes must not derail the scan.
  ASSERT_TRUE(service::StripResponseId(
      R"({"id":"a\"b\\","ok":true})", body));
  EXPECT_EQ(body, R"({"ok":true})");

  // Responses without a leading id splice are passed over, not mangled.
  EXPECT_FALSE(service::StripResponseId(R"({"ok":true})", body));
  EXPECT_FALSE(service::StripResponseId("not json", body));
}

TEST(StripResponseIdTest, ResponseIdReadsOnlyTheLeadingIdLiteral) {
  EXPECT_EQ(service::ResponseId(R"({"id":"r1","ok":true,"verb":"stats"})"),
            "r1");
  // WithId's escaping is undone, so a hostile id round-trips.
  const std::string hostile = "a\"b\\c";
  EXPECT_EQ(service::ResponseId(service::WithId(
                hostile, service::OkBody(JsonObject{}))),
            hostile);
  // Not WithId-shaped, or no string id: empty, which never matches.
  EXPECT_EQ(service::ResponseId(R"({"id":null,"ok":false})"), "");
  EXPECT_EQ(service::ResponseId(R"({"ok":true,"id":"r1"})"), "");
  EXPECT_EQ(service::ResponseId(R"({"reschedd":{},"protocol":1})"), "");
  EXPECT_EQ(service::ResponseId(R"({"id":"unterminated)"), "");
  EXPECT_EQ(service::ResponseId("not json"), "");
}

}  // namespace
}  // namespace resched
