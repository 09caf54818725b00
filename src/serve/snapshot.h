// Crash-safe session snapshots for the serve daemon.
//
// A snapshot captures one analysis session completely: its identity
// (session id, tenant) and the full OnlineExtractorState, so a daemon
// restarted after SIGKILL rebuilds the session bit-identically and the
// client only re-sends demands from the snapshotted position onward.
//
// On-disk layout (all integers little-endian):
//
//   offset  size  field
//        0     8  magic "WLCSNAP\0"
//        8     4  format version (1 or 2; new files are written as 2)
//       12     8  payload size in bytes
//       20     4  CRC-32 of the payload bytes
//       24     n  payload (wire.h encoding of SessionSnapshot)
//
// Version 2 appends an optional PWL tier to the payload: the session's
// bounded-error compact γᵘ/γˡ curves (curve::CompactCurve over the grid of
// workload-curve breakpoint indices, dt = 1). The tier block is itself
// versioned, length-prefixed and CRC'd, so tier corruption is detected
// independently of the outer checksum and a version-skewed tier is refused
// rather than misread. Structural tier corruption throws ParseError like
// any other payload damage. The daemon writes no tier: a well-formed one in
// a file from an older daemon is shed when the session is recovered or
// migrated in, so its next snapshot is tierless.
//
// Validation on load is *strict by construction*: wrong magic, unknown
// version, a size field disagreeing with the actual byte count, a checksum
// mismatch, a truncated payload, an over-long length prefix inside the
// payload, trailing bytes, or a structurally inconsistent extractor state
// all throw wlc::ParseError. A corrupted snapshot can be refused; it can
// never be half-loaded or provoke UB (fault-injection tests flip, truncate
// and version-skew real snapshots to pin this).
//
// Files are written via common::atomic_write_file (temp + fsync + atomic
// rename), so a crash mid-write leaves the previous snapshot intact; there
// is no torn-file state to validate against.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "curve/compact.h"
#include "workload/online_extract.h"

namespace wlc::serve {

inline constexpr std::string_view kSnapshotMagic{"WLCSNAP\0", 8};
inline constexpr std::uint32_t kSnapshotVersion = 2;
/// Oldest format this build still decodes (v1 = no PWL tier).
inline constexpr std::uint32_t kSnapshotMinVersion = 1;
inline constexpr std::uint32_t kPwlTierVersion = 1;
inline constexpr std::size_t kSnapshotHeaderBytes = 24;

/// Compact PWL forms of a session's workload curves, over the grid of
/// breakpoint indices (dt = 1, values in cycles). upper is rounded Up,
/// lower Down — decode enforces the pairing.
struct PwlTier {
  curve::CompactCurve upper;
  curve::CompactCurve lower;
};

/// One persisted session.
struct SessionSnapshot {
  std::string session_id;
  std::string tenant;
  workload::OnlineExtractorState extractor;
  /// Present only in files that a daemon with a compaction budget wrote;
  /// the session layer never sets it and ignores a decoded one.
  std::optional<PwlTier> tier;
};

/// Serializes header + payload into one byte string.
std::string encode_snapshot(const SessionSnapshot& snap);

/// encode_snapshot() into `*out`, replacing its content but keeping its
/// capacity: the payload is written in place after the header, so a
/// long-lived buffer takes snapshot after snapshot without reallocating or
/// copying the payload. The bytes equal encode_snapshot(snap).
void encode_snapshot_into(const SessionSnapshot& snap, std::string* out);

/// Strictly validates and decodes bytes produced by encode_snapshot.
/// Throws wlc::ParseError on any corruption (see header comment).
SessionSnapshot decode_snapshot(std::string_view bytes);

/// Writes `snap` to `path` atomically (temp + fsync + rename). Throws
/// wlc::Error-derived exceptions never; returns false with `*error` filled
/// on I/O failure. `*errno_out` (when non-null) receives the failing
/// step's errno — the daemon keys its ENOSPC → in-memory-only degradation
/// off it.
bool write_snapshot_file(const std::string& path, const SessionSnapshot& snap,
                         std::string* error = nullptr, int* errno_out = nullptr);

/// Reads and strictly validates a snapshot file. Throws wlc::ParseError on
/// corruption; returns false with `*error` filled when the file cannot be
/// read at all.
bool read_snapshot_file(const std::string& path, SessionSnapshot* snap,
                        std::string* error = nullptr);

}  // namespace wlc::serve
