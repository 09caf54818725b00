#include "serve/session.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <mutex>
#include <ostream>
#include <string_view>
#include <thread>
#include <utility>

#include "common/atomic_file.h"
#include "common/error.h"
#include "obs/obs.h"
#include "runtime/runtime.h"
#include "serve/snapshot.h"

namespace wlc::serve {

namespace {

/// Absolute sanity caps, independent of the configured pool: a hostile Open
/// must not make the daemon allocate a multi-gigabyte demand ring before
/// admission even runs.
constexpr EventCount kMaxWindowSize = 1 << 24;   ///< ring ≤ 128 MiB
constexpr std::size_t kMaxGridRequest = 1 << 20;

/// Hint for backpressure replies: capacity frees when sessions close, so
/// retrying after a beat may succeed.
constexpr std::int64_t kRetryHintMs = 250;

/// The extractor's own grid normalization (sorted, deduplicated, k = 1
/// added), done *before* construction so cost estimates precede any large
/// allocation.
std::vector<EventCount> normalize_grid(std::vector<EventCount> ks) {
  ks.push_back(1);
  std::sort(ks.begin(), ks.end());
  ks.erase(std::unique(ks.begin(), ks.end()), ks.end());
  return ks;
}

Reply reject(RejectCode code, std::string reason, std::int64_t retry_after_ms) {
  return RejectReply{code, std::move(reason), retry_after_ms};
}

/// Session curves on the compaction grid: one sample per workload-curve
/// breakpoint (dt = 1, values in cycles — exact in double up to 2^53).
curve::DiscreteCurve index_curve(const std::vector<workload::WorkloadCurve::Point>& pts) {
  std::vector<double> v;
  v.reserve(pts.size());
  for (const auto& p : pts) v.push_back(static_cast<double>(p.second));
  return curve::DiscreteCurve(std::move(v), 1.0);
}

/// Semantic tier validation: the persisted compact curves must dominate
/// (γᵘ from above, γˡ from below) the curves rebuilt from the extractor
/// state at every breakpoint, within their recorded budget. Exact
/// comparisons — the tier writer recomputes deterministically, so a sound
/// tier passes bit-for-bit.
bool tier_sound(const PwlTier& tier, const workload::OnlineWorkloadExtractor& ex) {
  if (!ex.ready()) return false;
  const auto upts = ex.upper().points();
  const auto lpts = ex.lower().points();
  if (tier.upper.dense_size() != upts.size() || tier.lower.dense_size() != lpts.size())
    return false;
  if (tier.upper.dt() != 1.0 || tier.lower.dt() != 1.0) return false;
  for (std::size_t j = 0; j < upts.size(); ++j) {
    const double v = static_cast<double>(upts[j].second);
    const double c = tier.upper.eval_index(j);
    if (c < v || c - v > tier.upper.budget().at(v)) return false;
  }
  for (std::size_t j = 0; j < lpts.size(); ++j) {
    const double v = static_cast<double>(lpts[j].second);
    const double c = tier.lower.eval_index(j);
    if (c > v || v - c > tier.lower.budget().at(v)) return false;
  }
  return true;
}

/// True for `<id>.wlcs.tmp.<pid>` — atomic_write_file's temp name — when
/// <pid> is not this process: a write that a dead process never finished.
bool orphaned_temp_file(const std::string& name) {
  constexpr std::string_view kInfix = ".wlcs.tmp.";
  const auto at = name.rfind(kInfix);
  if (at == std::string::npos) return false;
  const std::string pid = name.substr(at + kInfix.size());
  const auto digit = [](char c) { return c >= '0' && c <= '9'; };
  if (pid.empty() || !std::all_of(pid.begin(), pid.end(), digit)) return false;
  return pid != std::to_string(::getpid());
}

/// Spare export slots the writer keeps for reuse. Two cover the steady
/// state — one slot exporting on the reactor while another is written — so
/// a stream of snapshots allocates no state.
constexpr std::size_t kSpareSlots = 2;

}  // namespace

/// One exported snapshot on its way to the disk.
struct SessionManager::SnapshotJob {
  std::string id;
  std::string path;
  std::uint64_t incarnation = 0;
  std::uint64_t version = 0;
  EventCount events = 0;  ///< events_since_snapshot the export reset
  std::unique_ptr<SessionSnapshot> state;
  std::int64_t started_us = 0;  ///< export began (obs::now_us)
  std::int64_t queued_us = 0;   ///< export done, handed over
};

/// What the reactor needs to apply a finished snapshot.
struct SessionManager::SnapshotResult {
  std::string id;
  std::uint64_t incarnation = 0;
  std::uint64_t version = 0;
  EventCount events = 0;
  bool ok = false;
  int err = 0;
  std::string error;
  std::int64_t total_us = 0;  ///< export start to durable file
};

/// The snapshot-writer thread and its queue. All members are guarded by mu_
/// except buf_, which only the thread touches.
class SessionManager::SnapshotWriter {
 public:
  SnapshotWriter() : thread_([this] { run(); }) {
    WLC_COUNTER_ADD("serve.snapshots.coalesced", 0);  // listed in Stats from the start
  }

  ~SnapshotWriter() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    work_cv_.notify_one();
    thread_.join();
  }

  std::unique_ptr<SessionSnapshot> take_slot() {
    std::lock_guard<std::mutex> lock(mu_);
    if (spare_.empty()) return std::make_unique<SessionSnapshot>();
    auto slot = std::move(spare_.back());
    spare_.pop_back();
    return slot;
  }

  /// Queues `job`; a job already pending for the same session is replaced.
  void submit(SnapshotJob job) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = find_pending(job.id);
      if (it != pending_.end()) {
        recycle(std::move(it->state));
        *it = std::move(job);
        WLC_COUNTER_ADD("serve.snapshots.coalesced", 1);
      } else {
        pending_.push_back(std::move(job));
      }
      WLC_GAUGE_SET("serve.snapshots.pending", static_cast<std::int64_t>(pending_.size()));
    }
    work_cv_.notify_one();
  }

  /// Drops the pending job of `id` (every session when `id` is null) and
  /// waits until no write of it is in flight.
  void cancel(const std::string* id) {
    std::unique_lock<std::mutex> lock(mu_);
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (id == nullptr || it->id == *id) {
        recycle(std::move(it->state));
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
    WLC_GAUGE_SET("serve.snapshots.pending", static_cast<std::int64_t>(pending_.size()));
    idle_cv_.wait(lock, [&] { return in_flight_.empty() || (id != nullptr && in_flight_ != *id); });
  }

  /// Waits until every job handed over so far is written.
  void barrier() {
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [&] { return pending_.empty() && in_flight_.empty(); });
  }

  bool has_results() const { return has_results_.load(std::memory_order_acquire); }

  /// Encodes (payload plus CRC) and atomically writes one exported
  /// snapshot, timing each stage. The thread runs it, and so do the
  /// synchronous paths on the reactor, each with its own buffer.
  static SnapshotResult write(const SnapshotJob& job, std::string& buf) {
    SnapshotResult r;
    r.id = job.id;
    r.incarnation = job.incarnation;
    r.version = job.version;
    r.events = job.events;
    {
      WLC_TRACE_SPAN("serve.snapshot.encode");
      const std::int64_t t0 = obs::now_us();
      encode_snapshot_into(*job.state, &buf);
      WLC_HISTOGRAM_OBSERVE("serve.snapshot.encode_us", obs::now_us() - t0);
    }
    common::WriteStageTimes times;
    {
      // Covers both of atomic_write_file's stages, write_us and fsync_us.
      WLC_TRACE_SPAN("serve.snapshot.write");
      r.ok = common::atomic_write_file(job.path, buf, &r.error, &r.err, &times);
    }
    if (r.ok) {
      WLC_HISTOGRAM_OBSERVE("serve.snapshot.write_us", times.write_us);
      WLC_HISTOGRAM_OBSERVE("serve.snapshot.fsync_us", times.fsync_us);
    }
    r.total_us = obs::now_us() - job.started_us;
    return r;
  }

  std::vector<SnapshotResult> take_results() {
    std::lock_guard<std::mutex> lock(mu_);
    has_results_.store(false, std::memory_order_relaxed);
    return std::exchange(results_, {});
  }

 private:
  std::deque<SnapshotJob>::iterator find_pending(const std::string& id) {
    return std::find_if(pending_.begin(), pending_.end(),
                        [&](const SnapshotJob& j) { return j.id == id; });
  }

  void recycle(std::unique_ptr<SessionSnapshot> slot) {
    if (slot != nullptr && spare_.size() < kSpareSlots) spare_.push_back(std::move(slot));
  }

  void run() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      work_cv_.wait(lock, [&] { return stop_ || !pending_.empty(); });
      if (pending_.empty()) return;  // stopping, and everything handed over is written
      SnapshotJob job = std::move(pending_.front());
      pending_.pop_front();
      in_flight_ = job.id;
      WLC_GAUGE_SET("serve.snapshots.pending", static_cast<std::int64_t>(pending_.size()));
      lock.unlock();
      WLC_HISTOGRAM_OBSERVE("serve.snapshot.queue_us", obs::now_us() - job.queued_us);
      SnapshotResult result = write(job, buf_);
      lock.lock();
      results_.push_back(std::move(result));
      has_results_.store(true, std::memory_order_release);
      recycle(std::move(job.state));
      in_flight_.clear();
      idle_cv_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< the thread waits for jobs
  std::condition_variable idle_cv_;  ///< cancel/barrier wait for writes to end
  std::deque<SnapshotJob> pending_;  ///< FIFO, at most one job per session
  std::string in_flight_;            ///< session whose write is in flight, or empty
  bool stop_ = false;
  std::vector<SnapshotResult> results_;
  std::atomic<bool> has_results_{false};
  std::vector<std::unique_ptr<SessionSnapshot>> spare_;
  std::string buf_;  ///< the thread's long-lived encode buffer
  std::thread thread_;  ///< declared last: starts once the members above exist
};

bool valid_identifier(const std::string& s) {
  if (s.empty() || s.size() > 128 || s.front() == '.') return false;
  for (char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

std::int64_t session_bytes_estimate(const std::vector<EventCount>& ks) {
  return workload::OnlineWorkloadExtractor::resident_bytes(ks) + 512;
}

SessionManager::SessionManager(SessionConfig cfg) : cfg_(std::move(cfg)) {
  if (!cfg_.state_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(cfg_.state_dir, ec);
    if (ec) log_line("cannot create state dir '" + cfg_.state_dir + "': " + ec.message());
  }
}

SessionManager::~SessionManager() = default;

SessionManager::Session* SessionManager::find(const std::string& id) {
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second.get();
}

const SessionManager::Session* SessionManager::find(const std::string& id) const {
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second.get();
}

std::string SessionManager::snapshot_path(const std::string& id) const {
  return cfg_.state_dir + "/" + id + ".wlcs";
}

void SessionManager::tenant_count(const std::string& tenant, const char* what,
                                  std::int64_t delta) {
  obs::registry().counter("serve.tenant." + tenant + "." + what).add(delta);
}

void SessionManager::log_line(const std::string& line) {
  if (cfg_.log != nullptr) *cfg_.log << "wlc_serve: " << line << "\n";
}

bool SessionManager::try_admit(const OpenRequest& req, bool allow_degrade, Reply* reply) {
  std::vector<EventCount> ks = normalize_grid(req.ks);
  bool degraded = false;

  if (cfg_.limits.max_sessions > 0 &&
      static_cast<std::int64_t>(sessions_.size()) >= cfg_.limits.max_sessions) {
    *reply = reject(RejectCode::SessionLimit,
                    "session pool exhausted: " + std::to_string(sessions_.size()) + " of " +
                        std::to_string(cfg_.limits.max_sessions) + " live sessions",
                    kRetryHintMs);
    return false;
  }

  const auto need = static_cast<std::int64_t>(ks.size());
  if (cfg_.limits.max_grid_points > 0 && grid_leased_ + need > cfg_.limits.max_grid_points) {
    const std::int64_t remaining = cfg_.limits.max_grid_points - grid_leased_;
    if (allow_degrade && remaining >= 2) {
      // Soundness-preserving degradation: the coarsened grid is a
      // subsequence keeping both endpoints (k = 1 anchor, exact range), so
      // the session's curves only loosen, never lie.
      ks = runtime::coarsen_grid(ks, remaining);
      degraded = true;
    } else {
      *reply = reject(RejectCode::GridLimit,
                      "grid pool exhausted: request needs " + std::to_string(need) +
                          " points, " + std::to_string(std::max<std::int64_t>(remaining, 0)) +
                          " of " + std::to_string(cfg_.limits.max_grid_points) + " remain",
                      kRetryHintMs);
      return false;
    }
  }

  const std::int64_t bytes = session_bytes_estimate(ks);
  if (cfg_.limits.max_resident_bytes > 0 &&
      bytes_leased_ + bytes > cfg_.limits.max_resident_bytes) {
    // Coarsening keeps max(k), so the prefix buffer — the dominant cost — cannot
    // shrink; degrading has no byte-axis path and this always rejects.
    *reply = reject(RejectCode::MemoryLimit,
                    "memory pool exhausted: session needs ~" + std::to_string(bytes) +
                        " bytes, " +
                        std::to_string(cfg_.limits.max_resident_bytes - bytes_leased_) +
                        " of " + std::to_string(cfg_.limits.max_resident_bytes) + " remain",
                    kRetryHintMs);
    return false;
  }

  auto session = std::make_unique<Session>(workload::OnlineWorkloadExtractor(ks));
  session->id = req.session_id;
  session->tenant = req.tenant;
  session->ks_used = std::move(ks);
  session->bytes_cost = bytes;
  session->degraded = degraded;
  Session& ref = install(std::move(session));

  OpenReply ok;
  ok.ks_used = ref.ks_used;
  ok.events_seen = 0;
  ok.resumed = false;
  ok.degraded = degraded;

  WLC_COUNTER_ADD("serve.sessions.admitted", 1);
  if (degraded) WLC_COUNTER_ADD("serve.sessions.degraded", 1);
  tenant_count(req.tenant, "admitted", 1);
  if (degraded) tenant_count(req.tenant, "degraded", 1);
  // Snapshot-on-admit: makes the fresh session durable immediately and
  // overwrites any stale snapshot left by an earlier incarnation of the id.
  if (!cfg_.state_dir.empty()) snapshot_session(ref);

  *reply = std::move(ok);
  return true;
}

SessionManager::OpenOutcome SessionManager::open(const OpenRequest& req, Clock::time_point now) {
  OpenOutcome out;
  if (req.protocol_version != kProtocolVersion) {
    out.reply = reject(RejectCode::BadRequest,
                       "protocol version " + std::to_string(req.protocol_version) +
                           " not supported (daemon speaks " +
                           std::to_string(kProtocolVersion) + ")",
                       0);
    return out;
  }
  if (!valid_identifier(req.session_id)) {
    out.reply = reject(RejectCode::BadRequest,
                       "invalid session id (want [A-Za-z0-9_.-]{1,128}, no leading dot)", 0);
    return out;
  }
  if (!valid_identifier(req.tenant)) {
    out.reply = reject(RejectCode::BadRequest, "invalid tenant name", 0);
    return out;
  }
  if (req.ks.empty() || req.ks.size() > kMaxGridRequest) {
    out.reply = reject(RejectCode::BadRequest,
                       "grid must have 1.." + std::to_string(kMaxGridRequest) + " window sizes",
                       0);
    return out;
  }
  for (EventCount k : req.ks) {
    if (k < 1 || k > kMaxWindowSize) {
      out.reply = reject(RejectCode::BadRequest,
                         "window sizes must be in 1.." + std::to_string(kMaxWindowSize), 0);
      return out;
    }
  }

  if (Session* s = find(req.session_id)) {
    // Resume: the id is live (or was recovered at startup). The session
    // keeps its own grid; the reply tells the client where to continue.
    if (s->tenant != req.tenant) {
      out.reply = reject(RejectCode::BadRequest,
                         "session '" + req.session_id + "' belongs to tenant '" + s->tenant +
                             "', not '" + req.tenant + "'",
                         0);
      return out;
    }
    OpenReply ok;
    ok.ks_used = s->ks_used;
    // The resume cursor is the *stream position*: demands consumed,
    // including quarantined ones. Resuming at events_seen() alone would
    // make a client re-send (and the extractor re-quarantine) every
    // invalid demand in the gap — diverging from the uninterrupted run.
    ok.events_seen = s->extractor.events_seen() + s->extractor.health().quarantined;
    ok.resumed = true;
    ok.degraded = s->degraded;
    WLC_COUNTER_ADD("serve.sessions.resumed", 1);
    out.reply = std::move(ok);
    return out;
  }

  const bool allow_degrade = cfg_.admission == AdmissionPolicy::Degrade;
  if (try_admit(req, allow_degrade, &out.reply)) return out;

  if (cfg_.admission == AdmissionPolicy::Queue &&
      std::get<RejectReply>(out.reply).code != RejectCode::BadRequest) {
    out.kind = OpenOutcome::Kind::Queued;
    out.cookie = next_cookie_++;
    queue_.push_back({out.cookie, req, now + cfg_.queue_timeout});
    WLC_COUNTER_ADD("serve.sessions.queued", 1);
    return out;
  }

  WLC_COUNTER_ADD("serve.sessions.rejected", 1);
  tenant_count(req.tenant, "rejected", 1);
  return out;
}

Reply SessionManager::push(const PushRequest& req) {
  poll_snapshots();
  Session* s = find(req.session_id);
  if (s == nullptr)
    return reject(RejectCode::UnknownSession, "no session '" + req.session_id + "'", 0);
  s->extractor.try_push_all(req.demands);
  const auto n = static_cast<std::int64_t>(req.demands.size());
  s->dirty = true;
  ++s->version;
  s->events_since_snapshot += n;
  WLC_COUNTER_ADD("serve.events.pushed", n);
  tenant_count(s->tenant, "events", n);
  if (!cfg_.state_dir.empty() && cfg_.snapshot_every > 0 && !s->memory_only &&
      s->events_since_snapshot >= cfg_.snapshot_every)
    queue_snapshot(*s);
  const auto health = s->extractor.health();
  PushReply ok;
  ok.events_seen = s->extractor.events_seen() + health.quarantined;  // stream position
  ok.quarantined = health.quarantined;
  return ok;
}

Reply SessionManager::query(const QueryRequest& req) const {
  const Session* s = find(req.session_id);
  if (s == nullptr)
    return reject(RejectCode::UnknownSession, "no session '" + req.session_id + "'", 0);
  CurveReply rep;
  const auto health = s->extractor.health();
  rep.accepted = health.accepted;
  rep.quarantined = health.quarantined;
  rep.windows_reset = health.windows_reset;
  rep.saturated = health.saturated;
  rep.ready = s->extractor.ready();
  if (rep.ready) {
    rep.upper = s->extractor.upper().points();
    rep.lower = s->extractor.lower().points();
  }
  return rep;
}

Reply SessionManager::close(const CloseRequest& req) {
  Session* s = find(req.session_id);
  if (s == nullptr)
    return reject(RejectCode::UnknownSession, "no session '" + req.session_id + "'", 0);
  CloseReply rep;
  rep.events_seen = s->extractor.events_seen() + s->extractor.health().quarantined;
  if (!cfg_.state_dir.empty()) {
    if (req.discard_snapshot) {
      settle_writer(s->id);
      std::remove(snapshot_path(s->id).c_str());
    } else {
      snapshot_session(*s);
    }
  }
  forget(req.session_id);
  WLC_COUNTER_ADD("serve.sessions.closed", 1);
  return rep;
}

PongReply SessionManager::stats() const {
  PongReply p;
  p.live_sessions = static_cast<std::int64_t>(sessions_.size());
  p.max_sessions = cfg_.limits.max_sessions;
  p.grid_leased = grid_leased_;
  p.max_grid_points = cfg_.limits.max_grid_points;
  p.bytes_leased = bytes_leased_;
  p.max_resident_bytes = cfg_.limits.max_resident_bytes;
  p.queued_opens = queued_opens();
  p.recovered_sessions = recovered_;
  return p;
}

std::vector<SessionManager::SessionInfo> SessionManager::describe_sessions() const {
  std::vector<SessionInfo> rows;
  rows.reserve(sessions_.size());
  // sessions_ is an ordered map, so the rows come out id-sorted — the Stats
  // document is stable across polls of an unchanged daemon.
  for (const auto& [id, s] : sessions_) {
    SessionInfo row;
    row.id = id;
    row.tenant = s->tenant;
    row.grid_points = s->grid_cost;
    row.bytes_cost = s->bytes_cost;
    const auto health = s->extractor.health();
    row.events_seen = s->extractor.events_seen() + health.quarantined;
    row.quarantined = health.quarantined;
    row.ready = s->extractor.ready();
    row.degraded = s->degraded;
    row.dirty = s->dirty;
    row.memory_only = s->memory_only;
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string SessionManager::tenant_of(const std::string& session_id) const {
  const Session* s = find(session_id);
  return s != nullptr ? s->tenant : std::string();
}

Reply SessionManager::migrate_in(const MigrateRequest& req) {
  SessionSnapshot snap;
  std::unique_ptr<Session> session;
  try {
    // Same strict path as crash recovery: decode validates magic, version,
    // CRC, payload structure and extractor-state consistency.
    snap = decode_snapshot(req.snapshot);
    session =
        std::make_unique<Session>(workload::OnlineWorkloadExtractor::from_state(snap.extractor));
  } catch (const wlc::Error& e) {
    WLC_COUNTER_ADD("serve.migrate.refused", 1);
    log_line("migrate refused: snapshot rejected (" + std::string(e.kind()) +
             "): " + e.message());
    return ErrReply{"migrate refused: snapshot rejected (" + std::string(e.kind()) +
                    "): " + e.message()};
  }
  if (!valid_identifier(snap.session_id) || !valid_identifier(snap.tenant)) {
    WLC_COUNTER_ADD("serve.migrate.refused", 1);
    return reject(RejectCode::BadRequest, "migrate refused: invalid session id or tenant", 0);
  }
  if (find(snap.session_id) != nullptr) {
    WLC_COUNTER_ADD("serve.migrate.refused", 1);
    return reject(RejectCode::BadRequest,
                  "migrate refused: session '" + snap.session_id + "' is already live here", 0);
  }
  session->id = snap.session_id;
  session->tenant = snap.tenant;
  session->ks_used = snap.extractor.ks;
  session->bytes_cost = session_bytes_estimate(session->ks_used);
  adopt_tier(*session, std::move(snap.tier));
  // Like recovery: the session was already admitted (by the origin daemon),
  // so it re-leases unconditionally rather than being re-subjected to this
  // pool's admission — dropping an accepted session's guarantees mid-flight
  // would be worse than a transient overcommit.
  Session& ref = install(std::move(session));
  tenant_count(ref.tenant, "migrated_in", 1);
  WLC_COUNTER_ADD("serve.sessions.migrated_in", 1);
  // Persist before acknowledging: once the origin sees MigrateOk it deletes
  // its copy, so this daemon must be able to survive its own crash from
  // here on. A disk-full receiver still accepts (memory-only degrade).
  if (!cfg_.state_dir.empty()) snapshot_session(ref);
  log_line("session '" + ref.id + "' migrated in (cursor " +
           std::to_string(ref.extractor.events_seen() + ref.extractor.health().quarantined) +
           ")");
  MigrateOkReply ok;
  ok.events_seen = ref.extractor.events_seen() + ref.extractor.health().quarantined;
  return ok;
}

std::vector<std::string> SessionManager::session_ids() const {
  std::vector<std::string> ids;
  ids.reserve(sessions_.size());
  for (const auto& [id, s] : sessions_) ids.push_back(id);
  return ids;
}

bool SessionManager::export_session_snapshot(const std::string& id, std::string* bytes) const {
  const Session* s = find(id);
  if (s == nullptr) return false;
  SessionSnapshot snap;
  snap.session_id = s->id;
  snap.tenant = s->tenant;
  snap.extractor = s->extractor.export_state();
  snap.tier = s->tier.has_value() ? s->tier : make_tier(*s);
  *bytes = encode_snapshot(snap);
  return true;
}

void SessionManager::drop_migrated(const std::string& id) {
  Session* s = find(id);
  if (s == nullptr) return;
  if (!cfg_.state_dir.empty()) {
    settle_writer(id);
    std::remove(snapshot_path(id).c_str());
  }
  tenant_count(s->tenant, "migrated_out", 1);
  forget(id);
  WLC_COUNTER_ADD("serve.sessions.migrated_out", 1);
}

std::vector<SessionManager::QueueResolution> SessionManager::pump_queue(Clock::time_point now) {
  std::vector<QueueResolution> resolved;
  // Strict FIFO: once the head does not fit, later entries only get their
  // deadlines checked — no queue-jumping, no starvation of large requests.
  bool blocked = false;
  for (auto it = queue_.begin(); it != queue_.end();) {
    Reply reply;
    if (!blocked && try_admit(it->request, /*allow_degrade=*/false, &reply)) {
      resolved.push_back({it->cookie, std::move(reply)});
      it = queue_.erase(it);
      continue;
    }
    blocked = true;
    if (now >= it->deadline) {
      WLC_COUNTER_ADD("serve.sessions.queue_timeouts", 1);
      tenant_count(it->request.tenant, "rejected", 1);
      resolved.push_back(
          {it->cookie, reject(RejectCode::QueueTimeout,
                              "queued open timed out after " +
                                  std::to_string(cfg_.queue_timeout.count()) + " ms",
                              kRetryHintMs)});
      it = queue_.erase(it);
      continue;
    }
    ++it;
  }
  return resolved;
}

void SessionManager::cancel_queued(std::uint64_t cookie) {
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->cookie == cookie) {
      queue_.erase(it);
      return;
    }
  }
}

std::optional<PwlTier> SessionManager::make_tier(const Session& s) const {
  if (!cfg_.compact_tier || !s.extractor.ready()) return std::nullopt;
  const curve::DiscreteCurve upper = index_curve(s.extractor.upper().points());
  const curve::DiscreteCurve lower = index_curve(s.extractor.lower().points());
  return PwlTier{curve::CompactCurve::compact_upper(upper, cfg_.compact),
                 curve::CompactCurve::compact_lower(lower, cfg_.compact)};
}

void SessionManager::adopt_tier(Session& s, std::optional<PwlTier> tier) {
  if (!cfg_.compact_tier) {
    // Tiering is off in this daemon: a persisted tier is neither validated
    // nor carried forward (the next snapshot would drop it anyway).
    s.tier.reset();
    return;
  }
  if (tier.has_value()) {
    if (tier_sound(*tier, s.extractor)) {
      WLC_COUNTER_ADD("serve.compact.tier_reused", 1);
      s.tier = std::move(tier);
      return;
    }
    WLC_COUNTER_ADD("serve.compact.tier_rejected", 1);
    log_line("session '" + s.id +
             "': persisted pwl tier failed the dominance re-check, recomputing");
  }
  s.tier = make_tier(s);
  if (tier.has_value() && s.tier.has_value()) WLC_COUNTER_ADD("serve.compact.recomputes", 1);
}

SessionManager::Session& SessionManager::install(std::unique_ptr<Session> session) {
  session->incarnation = next_incarnation_++;
  session->grid_cost = static_cast<std::int64_t>(session->ks_used.size());
  grid_leased_ += session->grid_cost;
  bytes_leased_ += session->bytes_cost;
  Session& ref = *session;
  sessions_[ref.id] = std::move(session);
  WLC_GAUGE_SET("serve.sessions.live", static_cast<std::int64_t>(sessions_.size()));
  WLC_GAUGE_SET("serve.pool.grid_leased", grid_leased_);
  WLC_GAUGE_SET("serve.pool.bytes_leased", bytes_leased_);
  return ref;
}

void SessionManager::forget(const std::string& id) {
  const auto it = sessions_.find(id);
  grid_leased_ -= it->second->grid_cost;
  bytes_leased_ -= it->second->bytes_cost;
  sessions_.erase(it);
  WLC_GAUGE_SET("serve.sessions.live", static_cast<std::int64_t>(sessions_.size()));
  WLC_GAUGE_SET("serve.pool.grid_leased", grid_leased_);
  WLC_GAUGE_SET("serve.pool.bytes_leased", bytes_leased_);
}

SessionManager::SnapshotJob SessionManager::export_job(Session& s,
                                                       std::unique_ptr<SessionSnapshot> slot) {
  WLC_TRACE_SPAN("serve.snapshot.hold");
  SnapshotJob job;
  job.started_us = obs::now_us();
  // Recompute the tier from the live curves at every persist — the compact
  // fit is deterministic, so two snapshots of the same stream position
  // carry byte-identical tiers (what the kill -9 soak asserts).
  s.tier = make_tier(s);
  slot->session_id = s.id;
  slot->tenant = s.tenant;
  s.extractor.export_state_into(slot->extractor);
  slot->tier = s.tier;
  if (slot->tier.has_value()) WLC_COUNTER_ADD("serve.compact.tier_written", 1);
  job.id = s.id;
  job.path = snapshot_path(s.id);
  job.incarnation = s.incarnation;
  job.version = s.version;
  job.events = std::exchange(s.events_since_snapshot, 0);
  job.state = std::move(slot);
  job.queued_us = obs::now_us();
  WLC_HISTOGRAM_OBSERVE("serve.snapshot.hold_us", job.queued_us - job.started_us);
  return job;
}

void SessionManager::snapshot_session(Session& s) {
  settle_writer(s.id);
  std::string buf;
  apply_result(SnapshotWriter::write(export_job(s, std::make_unique<SessionSnapshot>()), buf));
}

void SessionManager::queue_snapshot(Session& s) {
  if (writer_ == nullptr) writer_ = std::make_unique<SnapshotWriter>();
  writer_->submit(export_job(s, writer_->take_slot()));
}

void SessionManager::settle_writer(const std::string& id) {
  if (writer_ == nullptr) return;
  writer_->cancel(&id);
  poll_snapshots();
}

void SessionManager::apply_result(const SnapshotResult& r) {
  Session* s = find(r.id);
  // A result for a closed, migrated or re-opened id still counts as I/O,
  // but it must not touch whatever session holds the id now.
  if (s != nullptr && s->incarnation != r.incarnation) s = nullptr;
  if (!r.ok) {
    WLC_COUNTER_ADD("serve.snapshots.failed", 1);
    const bool disk_full = r.err == ENOSPC || r.err == EDQUOT;
    if (disk_full) WLC_COUNTER_ADD("serve.snapshots.disk_full", 1);
    if (s == nullptr) return;
    // Not durable after all: the events this export covered still count
    // towards the next cadence snapshot.
    s->events_since_snapshot += r.events;
    if (disk_full) {
      // Disk full is the one I/O failure with a sound degraded mode:
      // suspend this session's cadence snapshots (analysis stays exact,
      // only crash-durability is lost) instead of hammering a full disk —
      // the timer, snapshot_all and Close keep retrying, and success
      // re-arms.
      if (!s->memory_only) {
        s->memory_only = true;
        WLC_COUNTER_ADD("serve.sessions.memory_only", 1);
        const DiskFullError e("session degraded to in-memory-only: " + r.error, s->id);
        log_line(std::string(e.kind()) + ": " + e.message());
      }
    } else {
      log_line("snapshot of session '" + s->id + "' failed: " + r.error);
    }
    return;
  }
  WLC_COUNTER_ADD("serve.snapshots.written", 1);
  WLC_HISTOGRAM_OBSERVE("serve.snapshot_us", r.total_us);
  if (s == nullptr) return;
  if (s->version == r.version) s->dirty = false;
  if (s->memory_only) {
    s->memory_only = false;
    log_line("session '" + s->id + "' snapshots re-enabled (disk has space again)");
  }
}

void SessionManager::snapshot_all() {
  if (cfg_.state_dir.empty()) return;
  if (writer_ != nullptr) {
    writer_->cancel(nullptr);
    poll_snapshots();
  }
  for (auto& [id, s] : sessions_)
    if (s->dirty) snapshot_session(*s);
}

void SessionManager::schedule_snapshots() {
  if (cfg_.state_dir.empty()) return;
  poll_snapshots();
  for (auto& [id, s] : sessions_)
    if (s->dirty) queue_snapshot(*s);
}

void SessionManager::poll_snapshots() {
  if (writer_ == nullptr || !writer_->has_results()) return;
  for (const SnapshotResult& r : writer_->take_results()) apply_result(r);
}

void SessionManager::flush_snapshots() {
  if (writer_ == nullptr) return;
  writer_->barrier();
  poll_snapshots();
}

std::size_t SessionManager::recover() {
  if (cfg_.state_dir.empty()) return 0;
  std::size_t loaded = 0;
  std::error_code ec;
  std::filesystem::directory_iterator dir(cfg_.state_dir, ec);
  if (ec) {
    log_line("cannot scan state dir '" + cfg_.state_dir + "': " + ec.message());
    return 0;
  }
  // Deterministic recovery order (directory iteration order is not).
  std::vector<std::filesystem::path> files;
  std::vector<std::filesystem::path> orphans;
  for (const auto& entry : dir) {
    if (!entry.is_regular_file(ec)) continue;
    if (entry.path().extension() == ".wlcs") {
      files.push_back(entry.path());
    } else if (orphaned_temp_file(entry.path().filename().string())) {
      orphans.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  // A process killed mid-write leaves its <id>.wlcs.tmp.<pid> behind, and
  // nothing else would ever remove it.
  for (const auto& path : orphans)
    if (std::filesystem::remove(path, ec)) WLC_COUNTER_ADD("serve.snapshots.orphans_removed", 1);
  if (!orphans.empty())
    log_line("removed " + std::to_string(orphans.size()) +
             " snapshot temp file(s) left by an earlier process");

  for (const auto& path : files) {
    SessionSnapshot snap;
    std::string error;
    try {
      if (!read_snapshot_file(path.string(), &snap, &error)) {
        log_line("cannot read snapshot " + path.string() + ": " + error);
        WLC_COUNTER_ADD("serve.sessions.recover_failed", 1);
        continue;
      }
      if (!valid_identifier(snap.session_id) || sessions_.count(snap.session_id) > 0) {
        throw ParseError("snapshot carries an invalid or duplicate session id",
                         snap.session_id, 0, 0, __FILE__, __LINE__);
      }
      auto session = std::make_unique<Session>(
          workload::OnlineWorkloadExtractor::from_state(snap.extractor));
      session->id = snap.session_id;
      session->tenant = snap.tenant;
      session->ks_used = snap.extractor.ks;
      session->bytes_cost = session_bytes_estimate(session->ks_used);
      tenant_count(session->tenant, "recovered", 1);
      adopt_tier(*session, std::move(snap.tier));
      // Recovered sessions were admitted before the crash; they re-lease
      // unconditionally (the pool may transiently overcommit until some
      // close — preferable to dropping accepted sessions' guarantees).
      install(std::move(session));
      ++recovered_;
      ++loaded;
    } catch (const wlc::Error& e) {
      // Strictly rejected (truncated / bit-flipped / version-skewed):
      // quarantine the file so the next restart is not stuck on it too.
      WLC_COUNTER_ADD("serve.sessions.recover_failed", 1);
      const std::string corrupt = path.string() + ".corrupt";
      std::rename(path.string().c_str(), corrupt.c_str());
      log_line("snapshot " + path.string() + " rejected (" + e.kind() +
               "), quarantined as .corrupt: " + e.message());
    }
  }
  WLC_COUNTER_ADD("serve.sessions.recovered", static_cast<std::int64_t>(loaded));
  return loaded;
}

}  // namespace wlc::serve
