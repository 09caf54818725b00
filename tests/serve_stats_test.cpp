// Live-introspection suite for the serve daemon: the Stats frame answers
// with a versioned document carrying pool occupancy, per-session state and
// latency quantiles; the request log writes one whole JSONL record per
// handled frame (and rotates); and the watchdog monitor detects an injected
// reactor stall, counting it under serve.reactor.stall with the offending
// frame named in the log. Runs under TSan in CI (label `serve`): the
// monitor thread, reactor thread and test thread must be clean together.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "obs/export.h"
#include "obs/obs.h"
#include "runtime/runtime.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace wlc::serve {
namespace {

/// One daemon on a fresh Unix socket in a temp dir, reactor on a thread.
/// Unlike the end-to-end fixture this one takes a whole ServerConfig, so
/// tests can arm the request log, the watchdog and the frame hook.
struct ObservedDaemon {
  std::filesystem::path dir;
  std::string sock;
  runtime::CancelToken stop = runtime::CancelToken::make();
  std::ostringstream log;
  std::unique_ptr<Server> server;
  std::thread thread;
  int run_result = -1;

  explicit ObservedDaemon(const std::string& name, ServerConfig cfg = {}) {
    dir = std::filesystem::temp_directory_path() /
          ("wlc_srv_obs_" + name + "_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
    sock = (dir / "s").string();
    cfg.listen = "unix:" + sock;
    cfg.poll_timeout_ms = 5;
    cfg.snapshot_interval = std::chrono::milliseconds(0);
    server = std::make_unique<Server>(std::move(cfg), log);
    server->start();
    thread = std::thread([this] {
      runtime::RunPolicy policy;
      policy.token = stop.child();
      run_result = server->run(policy);
    });
  }

  void stop_and_join() {
    if (!thread.joinable()) return;
    stop.cancel();
    thread.join();
    EXPECT_EQ(run_result, 0) << log.str();
    server.reset();
  }

  ~ObservedDaemon() {
    if (thread.joinable()) {
      stop.cancel();
      thread.join();
    }
    server.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

void push_demo_session(const std::string& addr, const std::string& id, int events) {
  Client client;
  ASSERT_TRUE(client.connect(addr)) << client.error();
  Reply reply;
  OpenRequest open;
  open.session_id = id;
  open.tenant = "t";
  open.ks = {1, 2, 4};
  ASSERT_TRUE(client.call(open, &reply)) << client.error();
  ASSERT_TRUE(std::holds_alternative<OpenReply>(reply));
  PushRequest push;
  push.session_id = id;
  for (int i = 0; i < events; ++i) push.demands.push_back(static_cast<Cycles>(10 + i));
  ASSERT_TRUE(client.call(push, &reply)) << client.error();
  ASSERT_TRUE(std::holds_alternative<PushReply>(reply));
}

std::int64_t counter_value(const obs::MetricsSnapshot& snap, const std::string& name) {
  for (const auto& c : snap.counters)
    if (c.name == name) return c.value;
  return 0;
}

TEST(ServeStats, StatsFrameAnswersQuantilesPoolAndSessions) {
  obs::registry().reset_for_testing();
  ObservedDaemon daemon("stats");
  push_demo_session("unix:" + daemon.sock, "stats-sess", 50);

  Client client;
  ASSERT_TRUE(client.connect("unix:" + daemon.sock)) << client.error();
  Reply reply;
  ASSERT_TRUE(client.call(StatsRequest{}, &reply)) << client.error();
  const auto* stats = std::get_if<StatsReply>(&reply);
  ASSERT_NE(stats, nullptr);
  const std::string& doc = stats->json;

  // The live-session section: pool occupancy, the session row, the tenant
  // rollup.
  EXPECT_NE(doc.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(doc.find("\"uptime_s\":"), std::string::npos);
  EXPECT_NE(doc.find("\"live_sessions\": 1"), std::string::npos);
  EXPECT_NE(doc.find("\"id\": \"stats-sess\""), std::string::npos);
  EXPECT_NE(doc.find("\"events_seen\": 50"), std::string::npos);
  EXPECT_NE(doc.find("\"tenants\""), std::string::npos);

  // The embedded metrics snapshot decodes through the public decoder, and
  // the frame-latency histogram has real samples with ordered quantiles —
  // the Open and Push frames above already landed in it.
  const obs::MetricsSnapshot snap = obs::decode_metrics_json(doc);
  const auto it = std::find_if(snap.histograms.begin(), snap.histograms.end(),
                               [](const auto& r) { return r.name == "serve.frame_us"; });
  ASSERT_NE(it, snap.histograms.end());
  EXPECT_GE(it->count, 2);
  EXPECT_NE(doc.find("\"p50\":"), std::string::npos);
  EXPECT_NE(doc.find("\"p99\":"), std::string::npos);
  EXPECT_LE(it->quantile(0.50), it->quantile(0.99));
  EXPECT_GE(counter_value(snap, "serve.events.pushed"), 50);
  daemon.stop_and_join();
}

// Every snapshot stage is timed, on both sides of the writer thread, and
// the Prometheus rendering of those metrics passes tools/lint_prom.py.
TEST(ServeStats, SnapshotStageMetricsAppearAfterACadenceSnapshot) {
  obs::registry().reset_for_testing();
  ServerConfig cfg;
  cfg.sessions.snapshot_every = 64;
  const auto state = std::filesystem::temp_directory_path() /
                     ("wlc_srv_obs_stages_state_" + std::to_string(::getpid()));
  std::filesystem::remove_all(state);
  cfg.sessions.state_dir = state.string();
  ObservedDaemon daemon("stages", cfg);
  push_demo_session("unix:" + daemon.sock, "stage-sess", 100);  // crosses the cadence

  Client client;
  ASSERT_TRUE(client.connect("unix:" + daemon.sock)) << client.error();
  std::string doc;
  // The reactor applies the writer's result on its next loop iteration:
  // the admit snapshot plus the cadence one.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    Reply reply;
    ASSERT_TRUE(client.call(StatsRequest{}, &reply)) << client.error();
    ASSERT_TRUE(std::holds_alternative<StatsReply>(reply));
    doc = std::get<StatsReply>(reply).json;
    if (counter_value(obs::decode_metrics_json(doc), "serve.snapshots.written") >= 2) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << doc;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (const char* name :
       {"serve.snapshot_us", "serve.snapshot.hold_us", "serve.snapshot.queue_us",
        "serve.snapshot.encode_us", "serve.snapshot.write_us", "serve.snapshot.fsync_us",
        "serve.snapshots.coalesced", "serve.snapshots.pending"})
    EXPECT_NE(doc.find(std::string("\"") + name + "\""), std::string::npos) << name;

  const auto prom = daemon.dir / "stats.prom";
  std::ofstream(prom) << obs::to_prometheus(obs::decode_metrics_json(doc));
  if (std::system("python3 --version > /dev/null 2>&1") != 0)
    GTEST_SKIP() << "no python3 to run tools/lint_prom.py";
  const std::string lint = std::string("python3 ") + WLC_TOOLS_DIR + "/lint_prom.py < " +
                           prom.string() + " > /dev/null";
  EXPECT_EQ(std::system(lint.c_str()), 0);
  daemon.stop_and_join();
  std::filesystem::remove_all(state);
}

TEST(ServeStats, RequestLogWritesOneRecordPerFrame) {
  obs::registry().reset_for_testing();
  ServerConfig cfg;
  const auto log_path = std::filesystem::temp_directory_path() /
                        ("wlc_reqlog_" + std::to_string(::getpid()) + ".jsonl");
  std::filesystem::remove(log_path);
  cfg.request_log.path = log_path.string();
  {
    ObservedDaemon daemon("reqlog", cfg);
    push_demo_session("unix:" + daemon.sock, "log-sess", 5);
    Client client;
    ASSERT_TRUE(client.connect("unix:" + daemon.sock)) << client.error();
    Reply reply;
    ASSERT_TRUE(client.call(PingRequest{}, &reply)) << client.error();
    daemon.stop_and_join();
  }
  std::ifstream f(log_path);
  ASSERT_TRUE(f.good());
  std::vector<std::string> lines;
  for (std::string line; std::getline(f, line);) lines.push_back(line);
  // open, push, ping, plus the graceful-drain sentinel as the final record
  // (tools/soak_serve.sh waits on it instead of sleeping).
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_NE(lines[0].find("\"opcode\":\"open\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"session\":\"log-sess\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"tenant\":\"t\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"outcome\":\"ok\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"opcode\":\"push\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"opcode\":\"ping\""), std::string::npos);
  EXPECT_NE(lines[3].find("\"opcode\":\"drain\""), std::string::npos);
  EXPECT_NE(lines[3].find("\"outcome\":\"complete\""), std::string::npos);
  for (const auto& line : lines) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"latency_us\":"), std::string::npos);
  }
  std::filesystem::remove(log_path);
}

TEST(ServeStats, RequestLogRotatesPastSizeCapAndHonorsSlowThreshold) {
  obs::registry().reset_for_testing();
  ServerConfig cfg;
  const auto base = std::filesystem::temp_directory_path() /
                    ("wlc_reqlog_rot_" + std::to_string(::getpid()));
  const std::string log_path = base.string() + ".jsonl";
  std::filesystem::remove(log_path);
  std::filesystem::remove(log_path + ".1");
  cfg.request_log.path = log_path;
  cfg.request_log.max_bytes = 256;  // a couple of records per generation
  {
    ObservedDaemon daemon("rot", cfg);
    Client client;
    ASSERT_TRUE(client.connect("unix:" + daemon.sock)) << client.error();
    Reply reply;
    for (int i = 0; i < 20; ++i)
      ASSERT_TRUE(client.call(PingRequest{}, &reply)) << client.error();
    daemon.stop_and_join();
  }
  EXPECT_TRUE(std::filesystem::exists(log_path + ".1"));
  // Every surviving line is whole — rotation never tears a record.
  for (const std::string& p : {log_path, log_path + ".1"}) {
    std::ifstream f(p);
    for (std::string line; std::getline(f, line);) {
      EXPECT_EQ(line.front(), '{');
      EXPECT_EQ(line.back(), '}');
    }
  }
  std::filesystem::remove(log_path);
  std::filesystem::remove(log_path + ".1");

  // slow_us filters fast frames out entirely.
  ServerConfig slow_cfg;
  const std::string slow_path = base.string() + ".slow.jsonl";
  std::filesystem::remove(slow_path);
  slow_cfg.request_log.path = slow_path;
  slow_cfg.request_log.slow_us = std::int64_t{60} * 1000 * 1000;  // nothing is that slow
  {
    ObservedDaemon daemon("slow", slow_cfg);
    Client client;
    ASSERT_TRUE(client.connect("unix:" + daemon.sock)) << client.error();
    Reply reply;
    ASSERT_TRUE(client.call(PingRequest{}, &reply)) << client.error();
    daemon.stop_and_join();
  }
  std::ifstream f(slow_path);
  ASSERT_TRUE(f.good());  // the file exists (the log was enabled)...
  std::string any;
  EXPECT_FALSE(static_cast<bool>(std::getline(f, any)));  // ...but kept nothing
  std::filesystem::remove(slow_path);
}

TEST(ServeStats, WatchdogDetectsInjectedReactorStall) {
  obs::registry().reset_for_testing();
  ServerConfig cfg;
  cfg.watchdog = std::chrono::milliseconds(50);
  // A Push that takes 2x the threshold: the monitor must count exactly this
  // stall while the reactor thread sleeps inside the handler.
  cfg.test_frame_hook = [](const Request& req) {
    if (std::holds_alternative<PushRequest>(req))
      std::this_thread::sleep_for(std::chrono::milliseconds(120));
  };
  ObservedDaemon daemon("watchdog", cfg);
  push_demo_session("unix:" + daemon.sock, "stall-sess", 3);

  // The stall is counted by the time the slow frame's reply reaches the
  // client (the monitor fires mid-handler).
  const obs::MetricsSnapshot snap = obs::registry().snapshot();
  EXPECT_GE(counter_value(snap, "serve.reactor.stall"), 1);
  daemon.stop_and_join();
  const std::string log = daemon.log.str();
  EXPECT_NE(log.find("watchdog: reactor stalled"), std::string::npos) << log;
  EXPECT_NE(log.find("opcode=push"), std::string::npos) << log;
  EXPECT_NE(log.find("stall-sess"), std::string::npos) << log;
}

TEST(ServeStats, QuietReactorNeverTripsTheWatchdog) {
  obs::registry().reset_for_testing();
  ServerConfig cfg;
  cfg.watchdog = std::chrono::milliseconds(40);
  ObservedDaemon daemon("quiet", cfg);
  // Idle wait several thresholds long: the heartbeat keeps advancing (the
  // poll timeout is clamped below the threshold), so nothing may be counted.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  Client client;
  ASSERT_TRUE(client.connect("unix:" + daemon.sock)) << client.error();
  Reply reply;
  ASSERT_TRUE(client.call(PingRequest{}, &reply)) << client.error();
  EXPECT_EQ(counter_value(obs::registry().snapshot(), "serve.reactor.stall"), 0);
  daemon.stop_and_join();
  EXPECT_EQ(daemon.log.str().find("watchdog"), std::string::npos) << daemon.log.str();
}

}  // namespace
}  // namespace wlc::serve
