// Deterministic, seeded syscall fault injection for chaos testing.
//
// The serve daemon's failure story (crash-safe snapshots, EINTR loops,
// admission backpressure) is only trustworthy if the *partial*-failure space
// is exercised: short reads and writes, EINTR storms, ENOSPC mid-snapshot,
// EMFILE on accept, and syscalls that complete late. Real kernels produce
// these rarely and non-reproducibly; `faultfs` produces them on demand,
// deterministically, from a one-line seeded plan.
//
// Every I/O call site that matters for the serve data path goes through the
// thin wrappers below instead of calling libc directly:
//
//   faultfs::read / write     — framed-protocol and request-log I/O
//                               (src/serve/net.cpp, server.cpp, request_log)
//   faultfs::open / fsync     — snapshot temp files and mmap'd trace input
//                               (src/common/atomic_file.cpp, mmap_file.cpp)
//   faultfs::accept           — the reactor's listen socket
//
// When no plan is armed the wrappers are a relaxed atomic load away from the
// raw syscall; when the build sets WLC_FAULT_DISABLE they compile to inline
// passthroughs with no atomic, no branch on plan state, and no linkage to
// the plan machinery at all — byte-identical behavior to direct libc calls.
//
// Plan grammar (installed via `wlc_analyze --fault-spec` or the
// WLC_FAULT_SPEC environment variable; see docs/architecture.md):
//
//   spec    := clause (';' clause)*
//   clause  := 'seed=' UINT64
//            | op ':' kind (',' param '=' value)*
//   op      := 'read' | 'write' | 'open' | 'accept' | 'fsync'
//   kind    := 'eintr'   (fail with EINTR, no syscall performed)
//            | 'short'   (perform the syscall with a truncated length;
//                         read/write only)
//            | 'enospc'  (fail with ENOSPC; write/open/fsync only)
//            | 'emfile'  (fail with EMFILE; open/accept only)
//            | 'delay'   (sleep `ms` milliseconds, then perform the call)
//   param   := 'p'       (injection probability in [0,1], default 1.0)
//            | 'after'   (skip the first N matching calls, default 0)
//            | 'count'   (fire at most N times, default unlimited)
//            | 'ms'      (delay duration for kind=delay, default 1)
//
// Example: "seed=42;read:eintr,p=0.2;write:short,p=0.3;fsync:enospc,count=1"
//
// Rules are evaluated in spec order per call; the first rule that fires
// wins. All randomness flows through common::Rng (xoshiro256**), so a given
// (spec, call sequence) pair injects the identical fault schedule on every
// platform — a failing chaos run is replayable from its seed.
//
// The call sequence is process-wide. In the serve daemon the snapshot
// writer's open/write/fsync calls run on a thread of their own and
// interleave with the reactor's socket and request-log I/O in that one
// sequence. A plan therefore still replays its fault kinds and rates from
// its seed, but which call a fault lands on can vary with the thread
// interleaving from one run to the next.
#pragma once

#include <sys/socket.h>
#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <string>

#ifdef WLC_FAULT_DISABLE
#include <fcntl.h>
#include <unistd.h>

#include "common/error.h"
#endif

namespace wlc::common::faultfs {

#ifndef WLC_FAULT_DISABLE

/// True in builds where fault injection is linked in at all.
inline constexpr bool kCompiledIn = true;

/// Parses `spec` and arms the global plan (replacing any previous one).
/// An empty spec disarms. Throws wlc::DomainError on a grammar error or an
/// op/kind combination that makes no sense (e.g. accept:enospc); nothing is
/// installed in that case. Thread-safe.
void install_spec(const std::string& spec);

/// Removes any armed plan; wrappers revert to passthrough.
void disarm() noexcept;

/// True when a plan is currently armed (fast, lock-free).
bool armed() noexcept;

/// Human-readable one-line summary of the armed plan and per-rule fire
/// counts, e.g. for a daemon start-up log line. Empty string when disarmed.
std::string describe();

/// Total faults injected since the plan was installed.
std::uint64_t injected_total() noexcept;

/// Wrappers. Signatures mirror libc; errno carries the failure reason
/// exactly as a real kernel would report it.
ssize_t read(int fd, void* buf, std::size_t count) noexcept;
ssize_t write(int fd, const void* buf, std::size_t count) noexcept;
int open(const char* path, int flags, unsigned mode = 0) noexcept;
int accept(int sockfd, struct sockaddr* addr, socklen_t* addrlen) noexcept;
int fsync(int fd) noexcept;

#else  // WLC_FAULT_DISABLE: zero-cost passthrough, no plan machinery linked.

inline constexpr bool kCompiledIn = false;

inline void install_spec(const std::string& spec) {
  if (!spec.empty())
    throw DomainError("fault injection was compiled out (WLC_FAULT_DISABLE); --fault-spec/"
                      "WLC_FAULT_SPEC cannot be honored",
                      spec);
}
inline void disarm() noexcept {}
inline bool armed() noexcept { return false; }
inline std::string describe() { return ""; }
inline std::uint64_t injected_total() noexcept { return 0; }

inline ssize_t read(int fd, void* buf, std::size_t count) noexcept {
  return ::read(fd, buf, count);
}
inline ssize_t write(int fd, const void* buf, std::size_t count) noexcept {
  return ::write(fd, buf, count);
}
inline int open(const char* path, int flags, unsigned mode = 0) noexcept {
  return ::open(path, flags, static_cast<mode_t>(mode));
}
inline int accept(int sockfd, struct sockaddr* addr, socklen_t* addrlen) noexcept {
  return ::accept(sockfd, addr, addrlen);
}
inline int fsync(int fd) noexcept { return ::fsync(fd); }

#endif  // WLC_FAULT_DISABLE

}  // namespace wlc::common::faultfs
