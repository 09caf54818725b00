#include "serve/session.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <ostream>

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

}  // namespace

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
  session->grid_cost = static_cast<std::int64_t>(session->ks_used.size());
  session->bytes_cost = bytes;
  session->degraded = degraded;
  grid_leased_ += session->grid_cost;
  bytes_leased_ += session->bytes_cost;

  OpenReply ok;
  ok.ks_used = session->ks_used;
  ok.events_seen = 0;
  ok.resumed = false;
  ok.degraded = degraded;

  Session& ref = *session;
  sessions_[req.session_id] = std::move(session);
  WLC_COUNTER_ADD("serve.sessions.admitted", 1);
  if (degraded) WLC_COUNTER_ADD("serve.sessions.degraded", 1);
  WLC_GAUGE_SET("serve.sessions.live", static_cast<std::int64_t>(sessions_.size()));
  WLC_GAUGE_SET("serve.pool.grid_leased", grid_leased_);
  WLC_GAUGE_SET("serve.pool.bytes_leased", bytes_leased_);
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
  Session* s = find(req.session_id);
  if (s == nullptr)
    return reject(RejectCode::UnknownSession, "no session '" + req.session_id + "'", 0);
  s->extractor.try_push_all(req.demands);
  const auto n = static_cast<std::int64_t>(req.demands.size());
  s->dirty = true;
  s->events_since_snapshot += n;
  WLC_COUNTER_ADD("serve.events.pushed", n);
  tenant_count(s->tenant, "events", n);
  if (!cfg_.state_dir.empty() && cfg_.snapshot_every > 0 && !s->memory_only &&
      s->events_since_snapshot >= cfg_.snapshot_every)
    snapshot_session(*s);
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
    if (req.discard_snapshot)
      std::remove(snapshot_path(s->id).c_str());
    else
      snapshot_session(*s);
  }
  grid_leased_ -= s->grid_cost;
  bytes_leased_ -= s->bytes_cost;
  sessions_.erase(req.session_id);
  WLC_COUNTER_ADD("serve.sessions.closed", 1);
  WLC_GAUGE_SET("serve.sessions.live", static_cast<std::int64_t>(sessions_.size()));
  WLC_GAUGE_SET("serve.pool.grid_leased", grid_leased_);
  WLC_GAUGE_SET("serve.pool.bytes_leased", bytes_leased_);
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
  session->grid_cost = static_cast<std::int64_t>(session->ks_used.size());
  session->bytes_cost = session_bytes_estimate(session->ks_used);
  adopt_tier(*session, std::move(snap.tier));
  // Like recovery: the session was already admitted (by the origin daemon),
  // so it re-leases unconditionally rather than being re-subjected to this
  // pool's admission — dropping an accepted session's guarantees mid-flight
  // would be worse than a transient overcommit.
  grid_leased_ += session->grid_cost;
  bytes_leased_ += session->bytes_cost;
  Session& ref = *session;
  sessions_[ref.id] = std::move(session);
  tenant_count(ref.tenant, "migrated_in", 1);
  WLC_COUNTER_ADD("serve.sessions.migrated_in", 1);
  WLC_GAUGE_SET("serve.sessions.live", static_cast<std::int64_t>(sessions_.size()));
  WLC_GAUGE_SET("serve.pool.grid_leased", grid_leased_);
  WLC_GAUGE_SET("serve.pool.bytes_leased", bytes_leased_);
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
  if (!cfg_.state_dir.empty()) std::remove(snapshot_path(id).c_str());
  grid_leased_ -= s->grid_cost;
  bytes_leased_ -= s->bytes_cost;
  tenant_count(s->tenant, "migrated_out", 1);
  sessions_.erase(id);
  WLC_COUNTER_ADD("serve.sessions.migrated_out", 1);
  WLC_GAUGE_SET("serve.sessions.live", static_cast<std::int64_t>(sessions_.size()));
  WLC_GAUGE_SET("serve.pool.grid_leased", grid_leased_);
  WLC_GAUGE_SET("serve.pool.bytes_leased", bytes_leased_);
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

void SessionManager::snapshot_session(Session& s) {
  const auto start = std::chrono::steady_clock::now();
  // Recompute the tier from the live curves at every persist — the compact
  // fit is deterministic, so two snapshots of the same stream position
  // carry byte-identical tiers (what the kill -9 soak asserts).
  s.tier = make_tier(s);
  SessionSnapshot snap;
  snap.session_id = s.id;
  snap.tenant = s.tenant;
  snap.extractor = s.extractor.export_state();
  snap.tier = s.tier;
  if (snap.tier.has_value()) WLC_COUNTER_ADD("serve.compact.tier_written", 1);
  std::string error;
  int write_errno = 0;
  if (!write_snapshot_file(snapshot_path(s.id), snap, &error, &write_errno)) {
    WLC_COUNTER_ADD("serve.snapshots.failed", 1);
    if (write_errno == ENOSPC || write_errno == EDQUOT) {
      // Disk full is the one I/O failure with a sound degraded mode:
      // suspend this session's cadence snapshots (analysis stays exact,
      // only crash-durability is lost) instead of hammering a full disk —
      // snapshot_all and Close keep retrying, and success re-arms.
      WLC_COUNTER_ADD("serve.snapshots.disk_full", 1);
      if (!s.memory_only) {
        s.memory_only = true;
        WLC_COUNTER_ADD("serve.sessions.memory_only", 1);
        const DiskFullError e("session degraded to in-memory-only: " + error, s.id);
        log_line(std::string(e.kind()) + ": " + e.message());
      }
    } else {
      log_line("snapshot of session '" + s.id + "' failed: " + error);
    }
    return;
  }
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  WLC_COUNTER_ADD("serve.snapshots.written", 1);
  WLC_HISTOGRAM_OBSERVE("serve.snapshot_us", us);
  s.events_since_snapshot = 0;
  s.dirty = false;
  if (s.memory_only) {
    s.memory_only = false;
    log_line("session '" + s.id + "' snapshots re-enabled (disk has space again)");
  }
}

void SessionManager::snapshot_all() {
  if (cfg_.state_dir.empty()) return;
  for (auto& [id, s] : sessions_)
    if (s->dirty) snapshot_session(*s);
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
  for (const auto& entry : dir)
    if (entry.is_regular_file(ec) && entry.path().extension() == ".wlcs")
      files.push_back(entry.path());
  std::sort(files.begin(), files.end());

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
      session->grid_cost = static_cast<std::int64_t>(session->ks_used.size());
      session->bytes_cost = session_bytes_estimate(session->ks_used);
      // Recovered sessions were admitted before the crash; they re-lease
      // unconditionally (the pool may transiently overcommit until some
      // close — preferable to dropping accepted sessions' guarantees).
      grid_leased_ += session->grid_cost;
      bytes_leased_ += session->bytes_cost;
      tenant_count(session->tenant, "recovered", 1);
      adopt_tier(*session, std::move(snap.tier));
      sessions_[snap.session_id] = std::move(session);
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
  WLC_GAUGE_SET("serve.sessions.live", static_cast<std::int64_t>(sessions_.size()));
  WLC_GAUGE_SET("serve.pool.grid_leased", grid_leased_);
  WLC_GAUGE_SET("serve.pool.bytes_leased", bytes_leased_);
  return loaded;
}

}  // namespace wlc::serve
