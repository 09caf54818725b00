// The serve daemon's reactor: one thread, poll(2)-driven, multiplexing many
// client connections over the length-prefixed protocol onto a
// SessionManager.
//
// Robustness posture:
//
//  * Overload is answered, not absorbed. Admission rejections are explicit
//    Rejected replies; per-connection input buffers are bounded by the
//    frame cap and a connection whose *output* buffer backs up past a
//    watermark simply stops being read until it drains (TCP backpressure
//    reaches the client). Nothing queues unboundedly.
//  * Partial failure is contained. A connection that sends an unframeable
//    byte stream is closed (the framing is unrecoverable); a connection
//    that frames a malformed payload gets an Err reply and lives on.
//    Neither disturbs other sessions.
//  * Process death is planned for. Sessions snapshot on a cadence (event
//    count and wall-clock interval); a graceful stop (the CLI routes
//    SIGTERM/SIGINT into the stop token) drains buffered requests,
//    flushes replies, snapshots every live session and returns 0; a
//    SIGKILL loses at most the events since the last snapshot that reached
//    the disk, which the resume protocol re-sends (see protocol.h) —
//    recovered analyses are bit-identical to uninterrupted ones. Temp files
//    a killed process left mid-write are removed at the next start.
//  * The disk is off the reply path. Cadence and timer snapshots are
//    written and fsynced by the SessionManager's snapshot-writer thread;
//    the reactor only exports the session state and applies the writer's
//    results (poll_snapshots) once per loop iteration, so a slow or
//    faulting disk delays durability, not replies. Open (snapshot-on-admit),
//    Close, Migrate-in and the drain still persist before they answer.
//  * The reactor is observable while it runs. A Stats frame answers with a
//    versioned JSON document (uptime, pool occupancy, per-session state,
//    per-tenant rollups, full metrics snapshot with latency quantiles); a
//    --request-log writes one torn-proof JSONL record per handled frame;
//    and a watchdog thread detects a stalled callback (a heartbeat gauge is
//    stamped every poll iteration), counts it under serve.reactor.stall
//    naming the offending session, and can optionally SIGABRT for a
//    debuggable core in soak runs.
#pragma once

#include <chrono>
#include <functional>
#include <iosfwd>
#include <string>

#include "runtime/runtime.h"
#include "serve/net.h"
#include "serve/request_log.h"
#include "serve/session.h"

namespace wlc::serve {

struct ServerConfig {
  std::string listen;        ///< "unix:/path", "host:port" or ":port"
  SessionConfig sessions;    ///< pool limits, admission policy, state dir
  /// Peer address to hand live sessions to during the graceful drain
  /// (Migrate frames over the normal protocol). Empty = drain to disk
  /// snapshots only. With a peer configured, parked Opens are answered
  /// with a Redirect naming it instead of a QueueTimeout rejection, and a
  /// session whose hand-off fails (peer down, snapshot over the frame cap)
  /// falls back to its disk snapshot.
  std::string drain_to;
  std::chrono::milliseconds snapshot_interval{2000};  ///< timer-driven snapshot_all
  int poll_timeout_ms = 50;  ///< reactor tick (stop-token poll granularity)
  RequestLogConfig request_log;  ///< per-frame JSONL log; path empty = off
  /// Watchdog threshold: a frame callback (or anything else holding the
  /// reactor) running longer than this is counted as a stall. 0 disables
  /// the monitor thread entirely.
  std::chrono::milliseconds watchdog{0};
  /// Stall response escalation: abort() on detection for a debuggable core
  /// (soak runs). Off by default — production counts and carries on.
  bool watchdog_abort = false;
  /// Test-only: invoked with every decoded request before dispatch, on the
  /// reactor thread. The watchdog tests inject a sleep here.
  std::function<void(const Request&)> test_frame_hook;
};

class Server {
 public:
  /// Parses cfg.listen (throws wlc::DomainError on a bad spec). Does not
  /// touch the network yet.
  explicit Server(ServerConfig cfg, std::ostream& log);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and listens; recovers sessions from the state dir. Throws
  /// wlc::DomainError on socket errors.
  void start();

  /// Runs the reactor until `policy`'s token is cancelled or its deadline
  /// passes, then drains gracefully (see header comment). Returns 0 on a
  /// clean drain. start() must have succeeded.
  int run(const runtime::RunPolicy& policy);

  const Address& address() const { return addr_; }
  SessionManager& sessions() { return sessions_; }

 private:
  struct Impl;

  ServerConfig cfg_;
  Address addr_;
  std::ostream& log_;
  SessionManager sessions_;
  int listen_fd_ = -1;
  std::chrono::steady_clock::time_point started_at_{};  ///< set by start(); uptime origin
};

}  // namespace wlc::serve
