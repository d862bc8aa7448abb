// Append-only request journal + recovery scan + offline replay.
//
// v2 on-disk format — one framed record per line:
//
//   #v2 <len> <crc32c-hex8> <payload>\n
//
// where <len> is the payload byte count (decimal) and the checksum is
// CRC32C over the payload. The payload is the same JSON record family v1
// wrote as bare lines (which remain readable — a journal may mix both):
//
//   {"journal":"meta","protocol":1,"build":{...}}          // once per open
//   {"journal":"request","id":"r1","line":"<raw request>"}
//   {"journal":"response","id":"r1","line":"<response line>",
//    "served":"exec|cache|join|dedup|error|control"}       // v2 only
//
// The framing exists for exactly one failure: a crash (power cut, kill -9,
// ENOSPC) landing mid-append. The opening recovery scan walks the file,
// validates every frame, and distinguishes a *torn tail* (the trailing
// bytes fail to parse and nothing valid follows — expected after a crash;
// truncated away and reported) from *interior corruption* (a bad record
// with valid records after it — bit rot or foreign writes; refused with
// JournalError, because silently dropping interior records would fake
// history).
//
// Durability is an explicit policy, not an accident of libc buffering:
// kNone never fsyncs (fastest; a crash can lose OS-buffered records — the
// scan still recovers a consistent prefix), kBatch fsyncs every
// kBatchSyncInterval appends, kAlways fsyncs per record (a journaled
// response survives any subsequent crash, which is what the warm-start
// dedup contract leans on).
//
// Replay re-submits every *deterministic* schedule/simulate request whose
// original response was ok to a fresh single-worker in-process server
// (original ids pinned, deadlines stripped — wall-clock concerns do not
// replay) and byte-compares the responses. Budgeted (nondeterministic)
// requests, control verbs and rejected/cancelled requests are skipped:
// their responses legitimately depend on timing and server state.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/common.hpp"
#include "util/mutex.hpp"

namespace resched::service {

/// A structured journal failure: open/write/fsync errors (disk full, short
/// writes that never complete, permission) and interior corruption.
/// Derives from InstanceError so pre-v2 catch sites keep working.
class JournalError : public InstanceError {
 public:
  explicit JournalError(const std::string& message) : InstanceError(message) {}
};

/// When appended records are pushed through fsync. See the header comment
/// for what each policy survives.
enum class JournalSync { kNone, kBatch, kAlways };

/// Parses "none" | "batch" | "always"; throws JournalError otherwise.
JournalSync ParseJournalSync(const std::string& text);

/// kBatch calls fsync once per this many appends (and on close).
inline constexpr std::size_t kBatchSyncInterval = 16;

/// One record recovered by the scan, independent of on-disk framing.
struct JournalRecord {
  std::string kind;    ///< "meta" | "request" | "response"
  std::string id;      ///< empty for meta
  std::string line;    ///< the journaled raw request / response line
  std::string served;  ///< response source tag; empty on v1 records
  int version = 2;     ///< 1 = bare JSONL line, 2 = framed
};

/// Result of walking a journal byte stream front to back.
struct JournalScan {
  std::vector<JournalRecord> records;
  std::uint64_t valid_bytes = 0;  ///< prefix that parsed cleanly
  std::uint64_t torn_bytes = 0;   ///< trailing bytes dropped as torn
  std::size_t v1_records = 0;
  std::size_t v2_records = 0;
  bool saw_meta = false;
};

/// Frames `payload` as a v2 journal line (terminating newline included).
/// Exposed so tests can hand-craft journals byte by byte.
std::string FrameRecordV2(std::string_view payload);

/// Walks `text` front to back. Returns the parsed records plus how many
/// trailing bytes were torn. Throws JournalError on interior corruption
/// (a bad record with valid records after it).
JournalScan ScanJournalText(std::string_view text);

/// ScanJournalText over the file at `path`; with `truncate_torn`, a torn
/// tail is cut off on disk (ftruncate) so the next append starts at a
/// record boundary. Throws JournalError when the file cannot be read (a
/// missing file is an error here — callers that treat ENOENT as "fresh
/// boot" check existence first).
JournalScan ScanJournalFile(const std::string& path, bool truncate_torn);

class Journal {
 public:
  /// What the opening recovery scan found (all zero on a fresh file).
  struct OpenReport {
    std::uint64_t valid_bytes = 0;
    std::uint64_t torn_bytes = 0;  ///< bytes truncated from the tail
    std::size_t records = 0;       ///< whole records already present
  };

  /// Opens `path` for appending in v2 framing. An existing file is
  /// recovery-scanned first: a torn tail is truncated (see Report()),
  /// interior corruption throws. Throws JournalError on open failure.
  explicit Journal(const std::string& path,
                   JournalSync sync = JournalSync::kBatch);
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  void AppendRequest(const std::string& id, const std::string& raw_line);
  /// `served` records where the response came from: "exec" (a worker ran
  /// the scheduler), "cache" (result cache), "join" (the body of another
  /// copy's in-flight solve), "dedup" (replayed for a duplicate id),
  /// "error", "control". The chaos harness asserts at most
  /// one "exec" per id across a journal's whole crash/restart history.
  void AppendResponse(const std::string& id, const std::string& response_line,
                      const std::string& served);

  /// Forces buffered records to disk regardless of policy (used on
  /// graceful shutdown). Throws JournalError on fsync failure.
  void Sync() RESCHED_EXCLUDES(mu_);

  const OpenReport& Report() const { return report_; }

 private:
  void AppendPayload(const std::string& payload) RESCHED_EXCLUDES(mu_);

  const std::string path_;
  const JournalSync sync_;
  OpenReport report_;
  Mutex mu_;
  int fd_ RESCHED_GUARDED_BY(mu_) = -1;
  std::size_t appends_since_sync_ RESCHED_GUARDED_BY(mu_) = 0;
};

struct ReplayOutcome {
  std::size_t requests = 0;    ///< request records in the journal
  std::size_t replayed = 0;    ///< re-executed and compared
  std::size_t matched = 0;     ///< byte-identical responses
  std::size_t mismatched = 0;
  std::size_t skipped = 0;     ///< nondeterministic / control / errored
  std::uint64_t torn_bytes = 0;  ///< tail bytes the scan dropped
  std::vector<std::string> mismatched_ids;

  bool ok() const { return mismatched == 0; }
};

/// Replays the journal at `path` (v1, v2 or mixed; a torn tail is skipped
/// and reported, interior corruption throws). Throws InstanceError when
/// the file is unreadable or not a journal.
ReplayOutcome ReplayJournal(const std::string& path);

}  // namespace resched::service
