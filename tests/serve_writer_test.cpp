// Snapshot-writer suite: cadence and timer snapshots are encoded, written
// and fsynced on the writer thread, so a Push never waits on the disk,
// while every synchronous path (Close, drop_migrated, snapshot_all) stays
// durable before it returns and never races a late asynchronous write.
// Disk latency and failure come from the seeded faultfs shim. Runs in the
// `serve` label: plain, under ASan/UBSan with faults armed, and under TSan.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "common/faultfs.h"
#include "obs/obs.h"
#include "serve/session.h"
#include "serve/snapshot.h"
#include "workload/online_extract.h"

namespace wlc::serve {
namespace {

namespace faultfs = common::faultfs;
namespace fs = std::filesystem;

/// A fresh state dir per test (name + pid: ctest runs tests in parallel).
struct StateDir {
  fs::path dir;
  explicit StateDir(const std::string& name)
      : dir(fs::temp_directory_path() /
            ("wlc_writer_" + name + "_" + std::to_string(::getpid()))) {
    fs::remove_all(dir);
    fs::create_directories(dir);
  }
  ~StateDir() {
    faultfs::disarm();
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
};

SessionConfig config(const StateDir& d, std::ostream* log = nullptr) {
  SessionConfig cfg;
  cfg.state_dir = d.dir.string();
  cfg.snapshot_every = 64;
  cfg.log = log;
  return cfg;
}

std::vector<Cycles> demands(int n, int seed) {
  std::vector<Cycles> out;
  for (int i = 0; i < n; ++i) out.push_back(100 + (i * 37 + seed * 11) % 500);
  return out;
}

void open_session(SessionManager& mgr, const std::string& id, const std::string& tenant = "t",
                  std::vector<EventCount> ks = {1, 2, 4, 16}) {
  OpenRequest req;
  req.session_id = id;
  req.tenant = tenant;
  req.ks = std::move(ks);
  const auto out = mgr.open(req, SessionManager::Clock::now());
  ASSERT_TRUE(std::holds_alternative<OpenReply>(out.reply));
}

void push(SessionManager& mgr, const std::string& id, const std::vector<Cycles>& d) {
  ASSERT_TRUE(std::holds_alternative<PushReply>(mgr.push(PushRequest{id, d})));
}

std::string read_bytes(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Stream position a snapshot file resumes from.
EventCount cursor_of(const fs::path& p) {
  const SessionSnapshot snap = decode_snapshot(read_bytes(p));
  return snap.extractor.events + snap.extractor.quarantined;
}

std::int64_t counter(const std::string& name) {
  for (const auto& c : obs::registry().snapshot().counters)
    if (c.name == name) return c.value;
  return 0;
}

/// Files in the state dir other than `*.wlcs`: temp files a write left.
std::vector<std::string> stray_files(const fs::path& dir) {
  std::vector<std::string> out;
  for (const auto& e : fs::directory_iterator(dir))
    if (e.path().extension() != ".wlcs") out.push_back(e.path().filename().string());
  return out;
}

#ifndef WLC_FAULT_DISABLE

/// Waits until `n` faults have fired: with a delay plan armed, the writer
/// is then inside a delayed call, i.e. its write is in flight.
void wait_for_faults(std::uint64_t n) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (faultfs::injected_total() < n) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(SnapshotWriter, PushCrossingTheCadenceDoesNotWaitForFsync) {
  StateDir d("no_wait");
  SessionManager mgr(config(d));
  open_session(mgr, "w");
  // Every fsync now takes 300 ms; a snapshot written on the Push path
  // would hold the reply for at least that long.
  faultfs::install_spec("fsync:delay,ms=300");
  const auto t0 = std::chrono::steady_clock::now();
  push(mgr, "w", demands(64, 1));
  const auto held = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(held, std::chrono::milliseconds(100));

  mgr.flush_snapshots();
  EXPECT_EQ(cursor_of(d.dir / "w.wlcs"), 64);
  EXPECT_TRUE(stray_files(d.dir).empty());
}

TEST(SnapshotWriter, CadenceCrossingsCoalesceWhileTheWriterIsBusy) {
  StateDir d("coalesce");
  SessionManager mgr(config(d));
  open_session(mgr, "c");
  obs::registry().reset_for_testing();
  faultfs::install_spec("fsync:delay,ms=150");
  // The first crossing is written while the next nine arrive: each
  // replaces the one pending job instead of queueing behind it.
  push(mgr, "c", demands(64, 0));
  wait_for_faults(1);
  for (int i = 1; i < 10; ++i) push(mgr, "c", demands(64, i));
  mgr.flush_snapshots();
  EXPECT_LE(counter("serve.snapshots.written"), 3);
  EXPECT_GE(counter("serve.snapshots.coalesced"), 7);
  EXPECT_EQ(cursor_of(d.dir / "c.wlcs"), 640);
  EXPECT_FALSE(mgr.describe_sessions().front().dirty);
}

TEST(SnapshotWriter, CloseWithDiscardLeavesNoFileBehindPendingOrInFlightWrites) {
  StateDir d("discard");
  SessionManager mgr(config(d));
  open_session(mgr, "gone");
  open_session(mgr, "moved");
  faultfs::install_spec("fsync:delay,ms=100");
  // A write of "gone" in flight, then a job pending for each session.
  push(mgr, "gone", demands(64, 1));
  wait_for_faults(1);
  push(mgr, "moved", demands(64, 2));
  push(mgr, "gone", demands(64, 3));

  ASSERT_TRUE(std::holds_alternative<CloseReply>(mgr.close(CloseRequest{"gone", true})));
  EXPECT_FALSE(fs::exists(d.dir / "gone.wlcs"));
  mgr.drop_migrated("moved");
  EXPECT_FALSE(fs::exists(d.dir / "moved.wlcs"));

  // No late write brings either back.
  mgr.flush_snapshots();
  EXPECT_FALSE(fs::exists(d.dir / "gone.wlcs"));
  EXPECT_FALSE(fs::exists(d.dir / "moved.wlcs"));
  EXPECT_TRUE(stray_files(d.dir).empty());
  EXPECT_EQ(mgr.live_sessions(), 0u);
}

TEST(SnapshotWriter, CloseWithPersistLeavesTheCloseTimePosition) {
  StateDir d("persist");
  SessionManager mgr(config(d));
  open_session(mgr, "p");
  faultfs::install_spec("fsync:delay,ms=100");
  push(mgr, "p", demands(64, 1));
  wait_for_faults(1);              // in flight
  push(mgr, "p", demands(64, 2));  // pending
  push(mgr, "p", demands(10, 3));  // below the cadence
  ASSERT_TRUE(std::holds_alternative<CloseReply>(mgr.close(CloseRequest{"p", false})));
  mgr.flush_snapshots();
  EXPECT_EQ(cursor_of(d.dir / "p.wlcs"), 138);
  EXPECT_TRUE(stray_files(d.dir).empty());
}

TEST(SnapshotWriter, AReopenedIdNeverTakesTheOldIncarnationsResult) {
  StateDir d("reopen");
  std::ostringstream log;
  SessionManager mgr(config(d, &log));
  open_session(mgr, "x", "old");
  // The first incarnation's cadence snapshot is in flight when it closes,
  // and fails with ENOSPC.
  faultfs::install_spec("open:delay,ms=100;write:enospc");
  push(mgr, "x", demands(64, 1));
  wait_for_faults(1);
  ASSERT_TRUE(std::holds_alternative<CloseReply>(mgr.close(CloseRequest{"x", true})));
  EXPECT_NE(log.str().find("DiskFullError"), std::string::npos) << log.str();
  faultfs::disarm();

  open_session(mgr, "x", "new");
  push(mgr, "x", demands(10, 2));
  mgr.flush_snapshots();
  const auto infos = mgr.describe_sessions();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].tenant, "new");
  EXPECT_FALSE(infos[0].memory_only) << log.str();
  EXPECT_TRUE(infos[0].dirty);  // its 10 events were never written
  const SessionSnapshot on_disk = decode_snapshot(read_bytes(d.dir / "x.wlcs"));
  EXPECT_EQ(on_disk.tenant, "new");
  EXPECT_EQ(on_disk.extractor.events, 0);  // the admit snapshot

  mgr.snapshot_all();
  EXPECT_EQ(cursor_of(d.dir / "x.wlcs"), 10);
  EXPECT_FALSE(mgr.describe_sessions().front().dirty);
}

#endif  // WLC_FAULT_DISABLE

TEST(SnapshotWriter, WrittenBytesEqualEncodeSnapshotOfTheSameState) {
  StateDir d("bytes");
  SessionManager mgr(config(d));
  // A large grid first, then a smaller one: the writer's reused buffer
  // must hold exactly the second snapshot, not a tail of the first.
  open_session(mgr, "big", "t", {1, 2, 4, 16, 200});
  open_session(mgr, "small", "t", {1, 3});
  workload::OnlineWorkloadExtractor big({1, 2, 4, 16, 200});
  workload::OnlineWorkloadExtractor small({1, 3});
  const auto a = demands(300, 5);
  const auto b = demands(70, 6);
  push(mgr, "big", a);
  big.try_push_all(a);
  mgr.flush_snapshots();
  push(mgr, "small", b);
  small.try_push_all(b);
  mgr.flush_snapshots();

  EXPECT_EQ(read_bytes(d.dir / "big.wlcs"), encode_snapshot({"big", "t", big.export_state(), {}}));
  EXPECT_EQ(read_bytes(d.dir / "small.wlcs"),
            encode_snapshot({"small", "t", small.export_state(), {}}));
}

TEST(SnapshotWriter, TieredSnapshotBytesEqualTheSessionsExport) {
  StateDir d("tier_bytes");
  SessionConfig cfg = config(d);
  cfg.compact_tier = true;
  cfg.compact.eps_abs = 50;
  SessionManager mgr(cfg);
  open_session(mgr, "tiered");
  push(mgr, "tiered", demands(100, 7));
  mgr.flush_snapshots();
  std::string expected;
  ASSERT_TRUE(mgr.export_session_snapshot("tiered", &expected));
  EXPECT_EQ(read_bytes(d.dir / "tiered.wlcs"), expected);
  EXPECT_TRUE(decode_snapshot(expected).tier.has_value());
}

TEST(SnapshotWriter, TimerSnapshotsGoThroughTheWriter) {
  StateDir d("timer");
  SessionConfig cfg = config(d);
  cfg.snapshot_every = 0;  // no cadence: only the timer writes
  SessionManager mgr(cfg);
  open_session(mgr, "tm");
  push(mgr, "tm", demands(20, 8));
  mgr.schedule_snapshots();
  mgr.flush_snapshots();
  EXPECT_EQ(cursor_of(d.dir / "tm.wlcs"), 20);
  EXPECT_FALSE(mgr.describe_sessions().front().dirty);
}

}  // namespace
}  // namespace wlc::serve
