#include "serve/server.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <optional>
#include <ostream>
#include <sstream>
#include <thread>
#include <vector>

#include "common/faultfs.h"
#include "obs/obs.h"
#include "serve/client.h"
#include "serve/protocol.h"

namespace wlc::serve {

namespace {

/// Stop reading a connection whose replies back up past this; TCP flow
/// control then pushes back on the client until the buffer drains.
constexpr std::size_t kOutputWatermark = 8u << 20;
constexpr std::size_t kReadChunk = 64u << 10;

struct Connection {
  int fd = -1;
  std::string in;
  std::string out;
  bool close_after_flush = false;
  std::vector<std::uint64_t> queued_cookies;  ///< Opens parked in the admission queue
};

const char* opcode_of(const Request& req) {
  return std::visit(
      [](const auto& r) {
        using T = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<T, OpenRequest>) return "open";
        else if constexpr (std::is_same_v<T, PushRequest>) return "push";
        else if constexpr (std::is_same_v<T, QueryRequest>) return "query";
        else if constexpr (std::is_same_v<T, CloseRequest>) return "close";
        else if constexpr (std::is_same_v<T, PingRequest>) return "ping";
        else if constexpr (std::is_same_v<T, MigrateRequest>) return "migrate";
        else return "stats";
      },
      req);
}

std::string session_of(const Request& req) {
  if (const auto* open = std::get_if<OpenRequest>(&req)) return open->session_id;
  if (const auto* push = std::get_if<PushRequest>(&req)) return push->session_id;
  if (const auto* query = std::get_if<QueryRequest>(&req)) return query->session_id;
  if (const auto* close = std::get_if<CloseRequest>(&req)) return close->session_id;
  return {};
}

/// Admission outcome label for the request log ("ok" / "rejected:<axis>").
std::string outcome_of(const Reply& reply) {
  if (const auto* rej = std::get_if<RejectReply>(&reply))
    return std::string("rejected:") + to_string(rej->code);
  if (std::holds_alternative<ErrReply>(reply)) return "err";
  return "ok";
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

std::int64_t wall_clock_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// Monitor thread detecting a stalled reactor: the reactor stamps
/// heartbeat_us every poll iteration; a heartbeat older than the threshold
/// means some callback (or a pathological frame) is holding the loop. Each
/// stalled iteration is counted once (deduped on the heartbeat value), with
/// the offending activity — "opcode=push session=x" — in the log line.
struct Watchdog {
  std::atomic<std::int64_t> heartbeat_us{0};
  std::atomic<bool> stop{false};
  std::mutex mu;  ///< guards activity and the shared log stream
  std::condition_variable cv;
  std::string activity;
  std::thread monitor;

  void set_activity(const char* opcode, const std::string& session) {
    std::lock_guard<std::mutex> lock(mu);
    activity = std::string("opcode=") + opcode;
    if (!session.empty()) activity += " session=" + session;
  }

  void clear_activity() {
    std::lock_guard<std::mutex> lock(mu);
    activity.clear();
  }

  void start(std::chrono::milliseconds threshold, bool abort_on_stall, std::ostream& log) {
    heartbeat_us.store(obs::now_us(), std::memory_order_relaxed);
    monitor = std::thread([this, threshold, abort_on_stall, &log] {
      const std::int64_t threshold_us = threshold.count() * 1000;
      const auto interval =
          std::max<std::chrono::milliseconds>(threshold / 4, std::chrono::milliseconds(1));
      std::int64_t last_counted = -1;
      std::unique_lock<std::mutex> lock(mu);
      while (!stop.load(std::memory_order_relaxed)) {
        cv.wait_for(lock, interval);
        if (stop.load(std::memory_order_relaxed)) break;
        const std::int64_t hb = heartbeat_us.load(std::memory_order_relaxed);
        const std::int64_t age_us = obs::now_us() - hb;
        if (age_us < threshold_us || hb == last_counted) continue;
        last_counted = hb;
        WLC_COUNTER_ADD("serve.reactor.stall", 1);
        log << "wlc_serve: watchdog: reactor stalled " << age_us / 1000 << " ms ("
            << (activity.empty() ? "idle/io, no frame in flight" : activity) << ")\n"
            << std::flush;
        if (abort_on_stall) std::abort();
      }
    });
  }

  void join() {
    if (!monitor.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mu);
      stop.store(true, std::memory_order_relaxed);
    }
    cv.notify_all();
    monitor.join();
  }
};

}  // namespace

struct Server::Impl {
  Server& srv;
  RequestLog reqlog;
  Watchdog watchdog;
  std::map<int, Connection> conns;
  std::map<std::uint64_t, int> pending;  ///< queue cookie → connection fd
  SessionManager::Clock::time_point last_snapshot;

  /// EMFILE insurance: one fd held open from the start so that when the
  /// process hits its descriptor limit there is still one to momentarily
  /// release — accept the pending connection, close it (shed), reacquire.
  /// Without this the kernel keeps the connection in the backlog and the
  /// listen fd stays readable: poll() returns instantly, forever — a 100%
  /// CPU spin that also starves every live session.
  int reserve_fd = -1;
  int accept_backoff_ms = 0;  ///< doubles per consecutive shed, 0 = none
  SessionManager::Clock::time_point accept_retry_at{};

  explicit Impl(Server& server)
      : srv(server), reqlog(server.cfg_.request_log, &server.log_) {
    reserve_fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  }

  ~Impl() {
    if (reserve_fd >= 0) ::close(reserve_fd);
  }

  void send(Connection& c, const Reply& reply) { c.out += encode_reply(reply); }

  /// The versioned live-introspection document a Stats frame answers with.
  /// The metrics snapshot (with its quantiles and exemplars) is embedded
  /// verbatim under "metrics"; everything else is reactor/session state the
  /// registry does not know.
  std::string build_stats_json() const {
    const PongReply pool = srv.sessions_.stats();
    const auto rows = srv.sessions_.describe_sessions();
    const auto uptime_s = std::chrono::duration_cast<std::chrono::seconds>(
                              std::chrono::steady_clock::now() - srv.started_at_)
                              .count();

    // Per-tenant rollup over live sessions (the cumulative per-tenant
    // counters live in metrics as serve.tenant.*).
    struct Tally {
      std::int64_t sessions = 0;
      std::int64_t events_seen = 0;
      std::int64_t quarantined = 0;
      std::int64_t grid_points = 0;
      std::int64_t bytes_cost = 0;
    };
    std::map<std::string, Tally> tenants;
    for (const auto& r : rows) {
      Tally& t = tenants[r.tenant];
      ++t.sessions;
      t.events_seen += r.events_seen;
      t.quarantined += r.quarantined;
      t.grid_points += r.grid_points;
      t.bytes_cost += r.bytes_cost;
    }

    std::ostringstream os;
    os << "{\n  \"schema_version\": " << obs::MetricsSnapshot::kSchemaVersion << ",\n";
    os << "  \"uptime_s\": " << uptime_s << ",\n";
    os << "  \"pool\": {\"live_sessions\": " << pool.live_sessions
       << ", \"max_sessions\": " << pool.max_sessions
       << ", \"grid_leased\": " << pool.grid_leased
       << ", \"max_grid_points\": " << pool.max_grid_points
       << ", \"bytes_leased\": " << pool.bytes_leased
       << ", \"max_resident_bytes\": " << pool.max_resident_bytes
       << ", \"queued_opens\": " << pool.queued_opens
       << ", \"recovered_sessions\": " << pool.recovered_sessions << "},\n";
    os << "  \"sessions\": [";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& r = rows[i];
      os << (i ? "," : "") << "\n    {\"id\": \"" << json_escape(r.id) << "\", \"tenant\": \""
         << json_escape(r.tenant) << "\", \"grid_points\": " << r.grid_points
         << ", \"bytes_cost\": " << r.bytes_cost << ", \"events_seen\": " << r.events_seen
         << ", \"quarantined\": " << r.quarantined
         << ", \"ready\": " << (r.ready ? "true" : "false")
         << ", \"degraded\": " << (r.degraded ? "true" : "false")
         << ", \"dirty\": " << (r.dirty ? "true" : "false") << "}";
    }
    os << (rows.empty() ? "" : "\n  ") << "],\n";
    os << "  \"tenants\": {";
    bool first = true;
    for (const auto& [tenant, t] : tenants) {
      os << (first ? "" : ",") << "\n    \"" << json_escape(tenant)
         << "\": {\"sessions\": " << t.sessions << ", \"events_seen\": " << t.events_seen
         << ", \"quarantined\": " << t.quarantined << ", \"grid_points\": " << t.grid_points
         << ", \"bytes_cost\": " << t.bytes_cost << "}";
      first = false;
    }
    os << (tenants.empty() ? "" : "\n  ") << "},\n";
    std::string metrics = obs::registry().snapshot().to_json();
    while (!metrics.empty() && metrics.back() == '\n') metrics.pop_back();
    os << "  \"metrics\": " << metrics << "\n}\n";
    return os.str();
  }

  void handle_frame(SessionManager& sessions, Connection& c, std::string_view payload) {
    const std::int64_t t0 = obs::now_us();
    RequestLog::Record rec;
    rec.bytes = static_cast<std::int64_t>(payload.size());

    Request req;
    try {
      req = decode_request(payload);
    } catch (const wlc::Error& e) {
      WLC_COUNTER_ADD("serve.protocol_errors", 1);
      send(c, ErrReply{std::string("malformed request: ") + e.message()});
      rec.opcode = "invalid";
      rec.outcome = "err";
      finish_record(rec, t0);
      return;
    }

    rec.opcode = opcode_of(req);
    rec.session = session_of(req);
    watchdog.set_activity(rec.opcode, rec.session);
    if (srv.cfg_.test_frame_hook) srv.cfg_.test_frame_hook(req);

    if (const auto* open = std::get_if<OpenRequest>(&req)) {
      rec.tenant = open->tenant;
      auto outcome = sessions.open(*open, SessionManager::Clock::now());
      if (outcome.kind == SessionManager::OpenOutcome::Kind::Queued) {
        pending[outcome.cookie] = c.fd;
        c.queued_cookies.push_back(outcome.cookie);
        rec.outcome = "queued";
      } else {
        if (const auto* ok = std::get_if<OpenReply>(&outcome.reply))
          rec.degraded = ok->degraded;
        rec.outcome = outcome_of(outcome.reply);
        send(c, outcome.reply);
      }
    } else {
      if (!rec.session.empty()) rec.tenant = sessions.tenant_of(rec.session);
      Reply reply;
      if (const auto* push = std::get_if<PushRequest>(&req)) {
        reply = sessions.push(*push);
      } else if (const auto* query = std::get_if<QueryRequest>(&req)) {
        reply = sessions.query(*query);
      } else if (const auto* close = std::get_if<CloseRequest>(&req)) {
        reply = sessions.close(*close);
      } else if (std::holds_alternative<StatsRequest>(req)) {
        reply = StatsReply{build_stats_json()};
      } else if (const auto* migrate = std::get_if<MigrateRequest>(&req)) {
        reply = sessions.migrate_in(*migrate);
      } else {
        reply = sessions.stats();
      }
      rec.outcome = outcome_of(reply);
      send(c, reply);
    }

    watchdog.clear_activity();
    finish_record(rec, t0);
  }

  void finish_record(RequestLog::Record& rec, std::int64_t t0) {
    rec.latency_us = obs::now_us() - t0;
    WLC_HISTOGRAM_OBSERVE("serve.frame_us", rec.latency_us);
    if (!reqlog.enabled()) return;
    rec.ts_us = wall_clock_us();
    reqlog.append(rec);
  }

  /// Extracts and handles every complete frame buffered on `c`. Returns
  /// false when the stream turned unframeable and the connection must go.
  bool process_input(SessionManager& sessions, Connection& c) {
    for (;;) {
      std::size_t consumed = 0;
      std::optional<std::string_view> payload;
      try {
        payload = try_extract_frame(c.in, &consumed);
      } catch (const wlc::Error& e) {
        WLC_COUNTER_ADD("serve.protocol_errors", 1);
        send(c, ErrReply{std::string("unframeable stream: ") + e.message()});
        c.close_after_flush = true;
        return false;
      }
      if (!payload) return true;
      handle_frame(sessions, c, *payload);
      c.in.erase(0, consumed);
    }
  }

  void route_queue_resolutions(SessionManager& sessions,
                               const std::vector<SessionManager::QueueResolution>& resolved) {
    for (const auto& r : resolved) {
      const auto it = pending.find(r.cookie);
      if (it == pending.end()) continue;  // connection died; manager was told
      const auto conn_it = conns.find(it->second);
      pending.erase(it);
      if (conn_it != conns.end()) send(conn_it->second, r.reply);
    }
    (void)sessions;
  }

  void drop_connection(SessionManager& sessions, int fd) {
    const auto it = conns.find(fd);
    if (it == conns.end()) return;
    for (std::uint64_t cookie : it->second.queued_cookies) {
      sessions.cancel_queued(cookie);
      pending.erase(cookie);
    }
    ::close(fd);
    conns.erase(it);
    WLC_COUNTER_ADD("serve.connections.closed", 1);
  }

  /// Drain-time hand-off: offers every live session to the --drain-to peer
  /// as a Migrate frame and forgets the ones it acknowledges. Any failure —
  /// peer unreachable, snapshot too large to frame, refusal — leaves that
  /// session live, so the caller's snapshot_all() persists it to disk as
  /// before; migration can only improve on the disk-snapshot baseline,
  /// never lose a session. Returns the number handed off.
  std::size_t migrate_out(SessionManager& sessions, const std::string& peer) {
    const std::vector<std::string> ids = sessions.session_ids();
    if (ids.empty()) return 0;
    Client client;
    if (!client.connect(peer)) {
      srv.log_ << "wlc_serve: drain-to peer " << peer << " unreachable (" << client.error()
               << "); draining to disk snapshots instead\n";
      return 0;
    }
    std::size_t migrated = 0;
    for (const std::string& id : ids) {
      std::string bytes;
      if (!sessions.export_session_snapshot(id, &bytes)) continue;
      // encode_request adds the type byte and the blob's length prefix on
      // top of the snapshot; a payload beyond the frame cap is unframeable.
      if (bytes.size() + 5 > kMaxFrameBytes) {
        WLC_COUNTER_ADD("serve.migrate.too_large", 1);
        srv.log_ << "wlc_serve: session '" << id << "' snapshot (" << bytes.size()
                 << " bytes) exceeds the frame cap; keeping its disk snapshot\n";
        continue;
      }
      Reply reply;
      try {
        if (!client.call(MigrateRequest{std::move(bytes)}, &reply)) {
          srv.log_ << "wlc_serve: hand-off of session '" << id << "' failed ("
                   << client.error() << "); remaining sessions drain to disk\n";
          break;
        }
      } catch (const wlc::Error& e) {
        srv.log_ << "wlc_serve: undecodable reply from drain-to peer for session '" << id
                 << "' (" << e.message() << "); remaining sessions drain to disk\n";
        break;
      }
      if (std::holds_alternative<MigrateOkReply>(reply)) {
        sessions.drop_migrated(id);
        ++migrated;
      } else {
        srv.log_ << "wlc_serve: drain-to peer refused session '" << id << "' ("
                 << outcome_of(reply) << "); keeping its disk snapshot\n";
      }
    }
    return migrated;
  }
};

Server::Server(ServerConfig cfg, std::ostream& log)
    : cfg_(std::move(cfg)),
      addr_(parse_address(cfg_.listen)),
      log_(log),
      sessions_([&] {
        SessionConfig sc = cfg_.sessions;
        sc.log = &log;
        return sc;
      }()) {}

Server::~Server() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (addr_.is_unix) ::unlink(addr_.path.c_str());
}

void Server::start() {
  listen_fd_ = listen_socket(addr_);
  set_nonblocking(listen_fd_);
  started_at_ = std::chrono::steady_clock::now();
  const std::size_t recovered = sessions_.recover();
  log_ << "wlc_serve: listening on " << addr_.to_string();
  if (!cfg_.sessions.state_dir.empty())
    log_ << ", state dir '" << cfg_.sessions.state_dir << "' (" << recovered
         << " sessions recovered)";
  log_ << "\n";
}

int Server::run(const runtime::RunPolicy& policy) {
  Impl impl(*this);
  impl.last_snapshot = SessionManager::Clock::now();

  // With a watchdog armed, the poll timeout must stay well under the stall
  // threshold or an idle reactor's blocking poll would read as a stall.
  int poll_timeout_ms = cfg_.poll_timeout_ms;
  if (cfg_.watchdog.count() > 0) {
    poll_timeout_ms =
        std::min<int>(poll_timeout_ms, std::max<int>(1, static_cast<int>(cfg_.watchdog.count() / 2)));
    impl.watchdog.start(cfg_.watchdog, cfg_.watchdog_abort, log_);
  }

  const auto stopping = [&] {
    return policy.token.cancelled() || policy.deadline.expired();
  };

  while (!stopping()) {
    const std::int64_t hb = obs::now_us();
    impl.watchdog.heartbeat_us.store(hb, std::memory_order_relaxed);
    WLC_GAUGE_SET("serve.reactor.heartbeat_us", hb);

    std::vector<pollfd> fds;
    // During an EMFILE backoff window the listen fd is not polled for
    // readability at all — otherwise the still-backlogged connection would
    // make every poll() return instantly (the spin this satellite removes).
    const bool accept_paused = SessionManager::Clock::now() < impl.accept_retry_at;
    fds.push_back({listen_fd_, static_cast<short>(accept_paused ? 0 : POLLIN), 0});
    for (auto& [fd, c] : impl.conns) {
      short events = 0;
      if (c.out.size() < kOutputWatermark && !c.close_after_flush) events |= POLLIN;
      if (!c.out.empty()) events |= POLLOUT;
      fds.push_back({fd, events, 0});
    }
    const int n = ::poll(fds.data(), fds.size(), poll_timeout_ms);
    if (n < 0 && errno != EINTR) {
      std::lock_guard<std::mutex> lock(impl.watchdog.mu);
      log_ << "wlc_serve: poll failed: " << std::strerror(errno) << "\n";
      break;
    }

    // New connections.
    if (fds[0].revents & POLLIN) {
      for (;;) {
        const int fd = common::faultfs::accept(listen_fd_, nullptr, nullptr);
        if (fd >= 0) {
          impl.accept_backoff_ms = 0;
          set_nonblocking(fd);
          Connection c;
          c.fd = fd;
          impl.conns.emplace(fd, std::move(c));
          WLC_COUNTER_ADD("serve.connections.accepted", 1);
          continue;
        }
        if (errno == EINTR) continue;
        if (errno == EMFILE || errno == ENFILE) {
          // Descriptor exhaustion. Accept-close-shed via the reserve fd:
          // the backlogged peer gets a clean close instead of hanging and
          // the listen fd stops reporting readable; then back off so an fd
          // storm cannot monopolize the reactor over live sessions.
          const int saved_errno = errno;
          if (impl.reserve_fd >= 0) {
            ::close(impl.reserve_fd);
            impl.reserve_fd = -1;
            const int shed = ::accept(listen_fd_, nullptr, nullptr);
            if (shed >= 0) ::close(shed);
            impl.reserve_fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
          }
          WLC_COUNTER_ADD("serve.accept.shed", 1);
          const bool first = impl.accept_backoff_ms == 0;
          impl.accept_backoff_ms =
              first ? 10 : std::min(impl.accept_backoff_ms * 2, 500);
          impl.accept_retry_at = SessionManager::Clock::now() +
                                 std::chrono::milliseconds(impl.accept_backoff_ms);
          if (first) {
            std::lock_guard<std::mutex> lock(impl.watchdog.mu);
            log_ << "wlc_serve: accept: " << std::strerror(saved_errno)
                 << "; shedding new connections with backoff\n";
          }
        }
        break;
      }
    }

    // I/O per connection. Collect fds to drop; mutating the map while the
    // pollfd list still refers to it is asking for trouble.
    std::vector<int> doomed;
    for (std::size_t i = 1; i < fds.size(); ++i) {
      const int fd = fds[i].fd;
      auto it = impl.conns.find(fd);
      if (it == impl.conns.end()) continue;
      Connection& c = it->second;
      if (fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) {
        if (c.out.empty() || (fds[i].revents & (POLLERR | POLLNVAL))) {
          doomed.push_back(fd);
          continue;
        }
      }
      if (fds[i].revents & POLLIN) {
        char buf[kReadChunk];
        for (;;) {
          const ssize_t got = common::faultfs::read(fd, buf, sizeof buf);
          if (got > 0) {
            c.in.append(buf, static_cast<std::size_t>(got));
            if (!impl.process_input(sessions_, c)) break;
            if (c.in.size() >= kMaxFrameBytes) break;  // wait for drain
            continue;
          }
          if (got == 0) {
            // Peer closed its write side; serve out what is buffered.
            impl.process_input(sessions_, c);
            c.close_after_flush = true;
            break;
          }
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          doomed.push_back(fd);
          break;
        }
      }
      if (!c.out.empty()) {
        const ssize_t sent = common::faultfs::write(fd, c.out.data(), c.out.size());
        if (sent > 0) c.out.erase(0, static_cast<std::size_t>(sent));
        else if (sent < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)
          doomed.push_back(fd);
      }
      if (c.close_after_flush && c.out.empty()) doomed.push_back(fd);
    }
    for (int fd : doomed) impl.drop_connection(sessions_, fd);

    const auto now = SessionManager::Clock::now();
    impl.route_queue_resolutions(sessions_, sessions_.pump_queue(now));
    sessions_.poll_snapshots();
    if (cfg_.snapshot_interval.count() > 0 && now - impl.last_snapshot >= cfg_.snapshot_interval) {
      sessions_.schedule_snapshots();
      impl.last_snapshot = now;
    }
  }

  // The monitor must not read the drain below as one long stall.
  impl.watchdog.join();

  // Graceful drain: no new reads or accepts; answer what is already
  // buffered, fail the parked Opens explicitly, flush replies briefly,
  // persist everything.
  for (auto& [fd, c] : impl.conns) impl.process_input(sessions_, c);
  for (auto& [cookie, fd] : impl.pending) {
    const auto it = impl.conns.find(fd);
    if (it != impl.conns.end()) {
      if (!cfg_.drain_to.empty())
        impl.send(it->second, RedirectReply{cfg_.drain_to, "daemon draining to peer"});
      else
        impl.send(it->second,
                  RejectReply{RejectCode::QueueTimeout, "daemon draining for shutdown", 0});
    }
    sessions_.cancel_queued(cookie);
  }
  const auto flush_deadline =
      SessionManager::Clock::now() + std::chrono::seconds(2);
  for (bool outstanding = true;
       outstanding && SessionManager::Clock::now() < flush_deadline;) {
    outstanding = false;
    for (auto& [fd, c] : impl.conns) {
      if (c.out.empty()) continue;
      const ssize_t sent = common::faultfs::write(fd, c.out.data(), c.out.size());
      if (sent > 0) c.out.erase(0, static_cast<std::size_t>(sent));
      if (!c.out.empty()) outstanding = true;
    }
    if (outstanding) ::poll(nullptr, 0, 5);
  }
  std::size_t migrated = 0;
  if (!cfg_.drain_to.empty()) migrated = impl.migrate_out(sessions_, cfg_.drain_to);
  sessions_.snapshot_all();
  for (auto& [fd, c] : impl.conns) ::close(fd);
  impl.conns.clear();
  log_ << "wlc_serve: drained " << sessions_.live_sessions() << " live sessions to snapshots";
  if (!cfg_.drain_to.empty())
    log_ << ", " << migrated << " migrated to " << cfg_.drain_to;
  log_ << ", exiting\n";
  // Drain sentinel: the last request-log record of a graceful shutdown.
  // tools/soak_serve.sh waits for this line instead of sleeping — once it
  // appears, every migration and snapshot above has completed and the log
  // fd has absorbed the final write (one write(2) per record).
  if (impl.reqlog.enabled()) {
    RequestLog::Record rec;
    rec.ts_us = wall_clock_us();
    rec.opcode = "drain";
    rec.outcome = "complete";
    impl.reqlog.append(rec);
  }
  return 0;
}

}  // namespace wlc::serve
