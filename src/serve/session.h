// Session manager of the serve daemon: admission control over a global
// budget pool, per-session online extraction, crash-safe snapshots, and
// per-tenant observability.
//
// Admission control. Every session leases three resources from one pool —
// a live-session slot, its grid points (the tracked window sizes), and an
// estimate of its resident bytes (dominated by the max(k)-sized demand
// ring). A lease is taken atomically at Open and returned at Close. When an
// Open does not fit, the configured AdmissionPolicy decides, in the same
// demand-aware spirit as runtime::RunPolicy's degradation:
//
//   Reject  — answer immediately with an explicit backpressure reply naming
//             the exhausted axis (never a silent stall, never an OOM).
//   Degrade — coarsen the requested grid (runtime::coarsen_grid: endpoints
//             kept, so the k = 1 WCET anchor and the exact range survive)
//             until it fits the grid axis. Coarsening only *loosens* the
//             session's curves — every surviving k is still exact, and the
//             curve objects interpolate conservatively between them — so
//             an admitted-degraded session's bounds stay sound. Axes that
//             coarsening cannot shrink (session slots, ring bytes) still
//             reject.
//   Queue   — hold the Open with a deadline; admit when capacity frees
//             (pump_queue), reject with QueueTimeout when it passes. The
//             connection gets exactly one reply either way.
//
// Snapshots. With a state_dir configured, sessions are persisted on admit,
// every snapshot_every accepted events, on the server's timer, on demand
// (snapshot_all — the graceful-shutdown path), at Migrate-in, and at Close
// with discard = false. Writes are atomic (common::atomic_write_file), loads
// are strict (serve/snapshot.h): recover() resurrects every valid *.wlcs,
// quarantines corrupt ones by renaming to *.corrupt, removes temp files a
// killed process left mid-write, and never lets one bad file take the
// daemon down.
//
// Threading. The manager is driven by one thread — the server's reactor —
// and its sessions are touched by that thread only. The one exception is
// the snapshot writer: a thread of its own, started by the first
// asynchronous snapshot, that encodes, checksums, writes and fsyncs.
//
//   Asynchronous — the cadence snapshot in push() and the timer's
//   schedule_snapshots(). The reactor exports the extractor state into a
//   recycled slot, then hands the slot to the writer and replies; no Push
//   waits on the disk. A PushReply never promised durability: a resuming
//   client continues from the last snapshot that reached the disk.
//   Synchronous — snapshot-on-admit, Close, Migrate-in, drop_migrated and
//   snapshot_all(). Each first cancels the session's pending job and waits
//   for its write in flight, then writes (or removes) the file itself and
//   is durable before it returns. So two writers never share a temp file,
//   and a late write can never bring back a snapshot that was discarded or
//   migrated away.
//
// The writer hands every result back; the reactor applies it in
// poll_snapshots() (called from push() and from the server loop): the
// dirty flag, memory-only on ENOSPC/EDQUOT, log lines and counters. A
// result carries the session's incarnation, so a re-opened id never takes
// its predecessor's outcome (the synchronous paths also apply every result
// in hand before they drop a session).
//
// Memory. Each session has at most one pending job, which a newer export
// replaces (serve.snapshots.coalesced), plus at most one write in flight:
// at most two exported states per session, plus a couple of spare slots
// and the writer's encode buffer.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "serve/protocol.h"
#include "serve/snapshot.h"
#include "workload/online_extract.h"

namespace wlc::serve {

/// Global pool ceilings; 0 on any axis = unlimited.
struct PoolLimits {
  std::int64_t max_sessions = 0;
  std::int64_t max_grid_points = 0;
  std::int64_t max_resident_bytes = 0;
};

enum class AdmissionPolicy { Reject, Degrade, Queue };

struct SessionConfig {
  PoolLimits limits;
  AdmissionPolicy admission = AdmissionPolicy::Reject;
  std::chrono::milliseconds queue_timeout{1000};
  /// Snapshot cadence in accepted events per session; 0 disables the
  /// event-count trigger (snapshot_all and Close still persist).
  EventCount snapshot_every = 4096;
  /// Directory for *.wlcs session snapshots; empty = no persistence.
  std::string state_dir;
  /// Diagnostics sink for snapshot/recovery I/O problems; may be null.
  std::ostream* log = nullptr;
};

class SessionManager {
 public:
  using Clock = std::chrono::steady_clock;

  explicit SessionManager(SessionConfig cfg);
  /// Finishes the writes already handed to the snapshot writer, then stops it.
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Outcome of an Open: either an immediate reply, or Queued (the reply
  /// arrives later through pump_queue, matched by cookie).
  struct OpenOutcome {
    enum class Kind { Replied, Queued } kind = Kind::Replied;
    Reply reply;            ///< valid when kind == Replied
    std::uint64_t cookie = 0;  ///< valid when kind == Queued
  };

  OpenOutcome open(const OpenRequest& req, Clock::time_point now);
  Reply push(const PushRequest& req);
  Reply query(const QueryRequest& req) const;
  Reply close(const CloseRequest& req);
  PongReply stats() const;

  /// Installs a session handed over by a draining peer (Migrate frame). The
  /// snapshot bytes get the same strict decode as crash recovery; a corrupt
  /// blob is refused with an Err reply, a duplicate or invalid id with a
  /// Rejected, and an accepted session leases unconditionally (like
  /// recover()), is persisted into this daemon's state dir immediately, and
  /// is answered with MigrateOk{resume cursor}.
  Reply migrate_in(const MigrateRequest& req);

  /// Ids of all live sessions (id-sorted) — the drain loop's work list.
  std::vector<std::string> session_ids() const;

  /// Encodes one live session into migration/snapshot bytes. Returns false
  /// when the id is unknown.
  bool export_session_snapshot(const std::string& id, std::string* bytes) const;

  /// Forgets a session whose hand-off a peer acknowledged: releases its
  /// leases and removes the local snapshot file. The peer owns it now —
  /// leaving the local .wlcs behind would resurrect a stale duplicate on
  /// the next restart.
  void drop_migrated(const std::string& id);

  /// Admits queued Opens that now fit and expires those past their
  /// deadline. Returns one resolution per settled entry.
  struct QueueResolution {
    std::uint64_t cookie = 0;
    Reply reply;
  };
  std::vector<QueueResolution> pump_queue(Clock::time_point now);

  /// Drops a queued Open whose connection went away.
  void cancel_queued(std::uint64_t cookie);

  /// Persists every dirty session and returns once the files are durable
  /// (no-op without a state_dir). The graceful-shutdown path.
  void snapshot_all();

  /// Hands every dirty session to the snapshot writer and returns at once.
  /// The server's timer path.
  void schedule_snapshots();

  /// Applies the results of finished asynchronous snapshots (see the header
  /// comment). Cheap when there are none; the reactor calls it every loop.
  void poll_snapshots();

  /// Waits until the writer has finished every job handed to it so far,
  /// then applies the results. A barrier for tests and tools.
  void flush_snapshots();

  /// Loads every *.wlcs in state_dir into live sessions. Corrupt files are
  /// renamed to *.corrupt and counted, never half-loaded. Returns the
  /// number of sessions recovered.
  std::size_t recover();

  std::size_t live_sessions() const { return sessions_.size(); }
  std::int64_t queued_opens() const { return static_cast<std::int64_t>(queue_.size()); }

  /// One row per live session — what the Stats introspection frame reports.
  struct SessionInfo {
    std::string id;
    std::string tenant;
    std::int64_t grid_points = 0;   ///< tracked window sizes (pool grid cost)
    std::int64_t bytes_cost = 0;    ///< resident-byte lease
    EventCount events_seen = 0;     ///< stream position (accepted + quarantined)
    EventCount quarantined = 0;
    bool ready = false;             ///< smallest window has closed
    bool degraded = false;          ///< grid was coarsened at admission
    bool dirty = false;             ///< events accepted since the last snapshot
    bool memory_only = false;       ///< snapshots suspended after DiskFullError
  };
  std::vector<SessionInfo> describe_sessions() const;

  /// Tenant of a live session, empty when the id is unknown. Request-log
  /// enrichment for frames that carry only a session id.
  std::string tenant_of(const std::string& session_id) const;

 private:
  struct Session {
    std::string id;
    std::string tenant;
    workload::OnlineWorkloadExtractor extractor;
    std::vector<EventCount> ks_used;
    std::int64_t grid_cost = 0;
    std::int64_t bytes_cost = 0;
    /// Manager-unique tag of this admission; writer results carry it.
    std::uint64_t incarnation = 0;
    /// Bumped by every push: names a stream position for writer results.
    std::uint64_t version = 0;
    EventCount events_since_snapshot = 0;
    bool dirty = false;
    bool degraded = false;
    /// Set on ENOSPC during a snapshot (DiskFullError): cadence snapshots
    /// are suspended for this session — analysis stays exact, only
    /// crash-durability is lost — and retried at snapshot_all/Close, which
    /// clears the flag when the disk has space again.
    bool memory_only = false;

    explicit Session(workload::OnlineWorkloadExtractor ex) : extractor(std::move(ex)) {}
  };

  struct QueuedOpen {
    std::uint64_t cookie = 0;
    OpenRequest request;
    Clock::time_point deadline;
  };

  /// Immediate admission attempt (no queueing). Fills `reply` on success
  /// (Admit/Degrade) or failure (Reject); returns true when admitted.
  bool try_admit(const OpenRequest& req, bool allow_degrade, Reply* reply);

  class SnapshotWriter;
  struct SnapshotJob;
  struct SnapshotResult;

  Session* find(const std::string& id);
  const Session* find(const std::string& id) const;
  std::string snapshot_path(const std::string& id) const;
  /// Takes a fresh incarnation, leases the session's pool share and makes it
  /// live (admit, migrate-in and recovery all end here).
  Session& install(std::unique_ptr<Session> session);
  /// Exports `s` into `slot`: the reactor's whole share of a snapshot.
  SnapshotJob export_job(Session& s, std::unique_ptr<SessionSnapshot> slot);
  /// Synchronous snapshot: durable before it returns.
  void snapshot_session(Session& s);
  /// Asynchronous snapshot: exports and hands the job to the writer.
  void queue_snapshot(Session& s);
  /// Cancels the session's pending job and waits out its write in flight,
  /// then applies the results in hand. Every synchronous path starts here.
  void settle_writer(const std::string& id);
  void apply_result(const SnapshotResult& r);
  /// Releases a closed or migrated session's leases and forgets it.
  void forget(const std::string& id);
  void tenant_count(const std::string& tenant, const char* what, std::int64_t delta);
  void log_line(const std::string& line);

  SessionConfig cfg_;
  std::map<std::string, std::unique_ptr<Session>> sessions_;
  std::deque<QueuedOpen> queue_;
  std::uint64_t next_cookie_ = 1;
  std::int64_t grid_leased_ = 0;
  std::int64_t bytes_leased_ = 0;
  std::int64_t recovered_ = 0;
  std::uint64_t next_incarnation_ = 1;
  /// Started by the first asynchronous snapshot; declared last so it stops
  /// before anything else here goes away.
  std::unique_ptr<SnapshotWriter> writer_;
};

/// True iff `s` is a valid session id / tenant name: [A-Za-z0-9_.-],
/// 1..128 chars, no leading dot (ids double as snapshot file stems).
bool valid_identifier(const std::string& s);

/// Resident-byte estimate of a session tracking `ks` (normalized grid):
/// the demand ring (8 bytes per slot up to max k) plus the per-k
/// accumulator rows plus fixed overhead.
std::int64_t session_bytes_estimate(const std::vector<EventCount>& ks);

}  // namespace wlc::serve
