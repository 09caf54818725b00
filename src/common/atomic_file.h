// Crash-safe file replacement: write-to-temp, fsync, atomic rename.
//
// Every user-visible output of the library (curve CSVs, metric snapshots,
// degradation reports) and every serve-daemon session snapshot goes through
// atomic_write_file, so a reader — including the recovering daemon itself —
// can never observe a torn file: it sees either the previous complete
// content or the new complete content, even across SIGKILL or power loss
// mid-write. The sequence is the classic one:
//
//   1. write the bytes to `<path>.tmp.<pid>` in the target directory
//      (same filesystem, so the rename below cannot degrade to a copy),
//   2. fsync the temp file (data durable before it becomes visible),
//   3. rename(2) it over `path` (atomic replacement on POSIX),
//   4. fsync the containing directory (the rename itself durable).
//
// Failures never leave the temp file behind and never touch `path`.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace wlc::common {

/// Wall time of atomic_write_file's two stages, in microseconds.
struct WriteStageTimes {
  std::int64_t write_us = 0;  ///< create the temp file and write the bytes
  std::int64_t fsync_us = 0;  ///< fsync the temp file, close, rename, fsync the directory
};

/// Atomically replaces `path` with `bytes`. Returns true on success; on any
/// failure returns false, fills `*error` (when non-null) with a
/// human-readable reason including the failing step and errno text, removes
/// the temp file and leaves any previous `path` content untouched.
/// `*errno_out` (when non-null) receives the failing step's errno (0 on
/// success) so callers can react to specific conditions — the serve daemon
/// degrades a session to in-memory-only on ENOSPC instead of dying.
/// `*times` (when non-null) receives the stage times of a successful write.
bool atomic_write_file(const std::string& path, std::string_view bytes,
                       std::string* error = nullptr, int* errno_out = nullptr,
                       WriteStageTimes* times = nullptr);

/// Reads a whole file into a byte string. Returns false (with `*error`
/// filled when non-null) if the file cannot be opened or read.
bool read_file_bytes(const std::string& path, std::string* bytes, std::string* error = nullptr);

}  // namespace wlc::common
