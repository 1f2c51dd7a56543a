// Versioned, section-framed binary snapshot format (DESIGN.md §11).
//
// Layout (all integers little-endian):
//
//   header   : magic "APOLSNP1" (8) | format_version u32 | section_count
//              u32 | created_at_us u64                          = 24 bytes
//   section* : type u32 | flags u32 (0) | payload_len u64 |
//              payload_crc32c u32 | payload bytes               = 20 + len
//
// Each section is independently framed and checksummed so the loader can
// skip a corrupted or truncated section and still recover every intact
// one (partial recovery). Parsing never trusts a length: a section whose
// declared payload overruns the file terminates the scan with the
// sections already recovered, and a CRC mismatch marks just that section
// bad. The loader never crashes on hostile bytes — the corruption-fuzz
// suite in tests/persist_test.cc flips and truncates every byte offset.
//
// Writing is atomic with respect to crashes: the snapshot is written to a
// sibling tmp file, fsync'd, renamed over the target, and the directory
// fsync'd. See DESIGN.md §11 for what this does and does not promise.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace apollo::persist {

inline constexpr char kSnapshotMagic[8] = {'A', 'P', 'O', 'L',
                                           'S', 'N', 'P', '1'};
inline constexpr uint32_t kFormatVersion = 1;
inline constexpr size_t kHeaderBytes = 24;
inline constexpr size_t kSectionHeaderBytes = 20;

/// Section payload kinds. Unknown types are preserved by the parser and
/// skipped by restorers (forward compatibility).
inline constexpr uint32_t kSectionTemplates = 1;
inline constexpr uint32_t kSectionParamMapper = 2;
inline constexpr uint32_t kSectionDependencyGraph = 3;
inline constexpr uint32_t kSectionSessions = 4;

/// Human-readable section-type name ("templates", ... / "unknown").
const char* SectionName(uint32_t type);

/// One parsed section. `crc_ok` is the per-section validation verdict;
/// the payload of a bad section is still exposed for tooling.
struct SnapshotSection {
  uint32_t type = 0;
  uint32_t crc_stored = 0;
  uint32_t crc_computed = 0;
  bool crc_ok = false;
  std::string payload;
};

/// A parsed snapshot: header fields plus every section physically present.
struct Snapshot {
  uint32_t format_version = 0;
  uint32_t section_count = 0;  // header's claim
  uint64_t created_at_us = 0;
  /// True when the file ended before `section_count` sections were read
  /// (truncation); `sections` holds the ones physically recovered.
  bool truncated = false;
  std::vector<SnapshotSection> sections;
};

/// Counters describing one Restore() pass (partial-recovery accounting).
struct RestoreStats {
  uint32_t sections_total = 0;    // sections physically present in the file
  uint32_t sections_loaded = 0;   // decoded and applied
  uint32_t sections_corrupt = 0;  // CRC or decode failure; skipped
  uint32_t sections_unknown = 0;  // unrecognized type; skipped
  // Known type this host does not keep (the engine sections restored
  // into a prediction-off host); skipped.
  uint32_t sections_skipped = 0;
  bool truncated = false;         // file ended before the section table did
  uint64_t snapshot_bytes = 0;

  // Entry counts applied, by structure.
  uint64_t templates = 0;
  uint64_t pairs = 0;
  uint64_t fdqs = 0;
  uint64_t sessions = 0;
};

/// Accumulates sections and serializes/writes the snapshot.
class SnapshotWriter {
 public:
  void AddSection(uint32_t type, std::string payload);

  /// The full snapshot image (header + framed sections).
  std::string Serialize(uint64_t created_at_us) const;

  /// Serializes and writes atomically: tmp file + fsync + rename +
  /// directory fsync. On error the target file is left untouched.
  util::Status WriteAtomic(const std::string& path,
                           uint64_t created_at_us) const;

  size_t num_sections() const { return sections_.size(); }

 private:
  struct Pending {
    uint32_t type;
    std::string payload;
  };
  std::vector<Pending> sections_;
};

/// Parses a snapshot image. Fails (Status) only when the header itself is
/// unusable (short file, bad magic, unsupported version); section-level
/// damage is reported per section so intact ones can still be restored.
util::Result<Snapshot> ParseSnapshot(std::string_view bytes);

/// Reads `path` and parses it. kNotFound when the file does not exist.
util::Result<Snapshot> ReadSnapshotFile(const std::string& path);

/// Atomic byte-level file write (tmp + fsync + rename + dir fsync);
/// shared by SnapshotWriter::WriteAtomic and tests.
util::Status WriteFileAtomic(const std::string& path, std::string_view bytes);

}  // namespace apollo::persist
