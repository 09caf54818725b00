// Chaos-layer suite: the faultfs syscall shim (grammar, injection kinds,
// after/count windows, seeded determinism) and the client resilience policy
// (failover list sweeps, retry budget, decorrelated-jitter backoff,
// redirect-following). The ENOSPC→memory-only degrade path is exercised end
// to end through a real SessionManager: a snapshot that hits injected
// ENOSPC must degrade the session instead of failing the push.
//
// faultfs state is process-global; every test that arms a plan runs under
// the FaultFs fixture, whose TearDown disarms — a leaked plan would inject
// faults into unrelated tests in this binary.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/faultfs.h"
#include "serve/client.h"
#include "serve/session.h"

namespace wlc::serve {
namespace {

namespace faultfs = common::faultfs;

class FaultFs : public ::testing::Test {
 protected:
  // Disarm up front too: CI runs this suite with WLC_FAULT_SPEC exported,
  // and these tests measure explicit-install behavior — an env-armed plan
  // (or one leaked by a crashed test) must not leak in.
  void SetUp() override { faultfs::disarm(); }
  void TearDown() override { faultfs::disarm(); }
};

#ifndef WLC_FAULT_DISABLE

TEST_F(FaultFs, BadSpecsThrowAndArmNothing) {
  const char* bad[] = {
      "read",                    // no kind
      "read:",                   // empty kind
      "read:bogus",              // unknown kind
      "jump:eintr",              // unknown op
      "accept:enospc",           // kind invalid for op
      "read:short,p=1.5",        // p out of [0,1]
      "read:eintr,p=x",          // p not a number
      "read:eintr,count=-1",     // count not unsigned
      "read:eintr,nope=1",       // unknown parameter
      "seed=abc;read:eintr",     // seed not an integer
      "read:eintr,p",            // parameter without '='
  };
  for (const char* spec : bad) {
    EXPECT_THROW(faultfs::install_spec(spec), DomainError) << spec;
    EXPECT_FALSE(faultfs::armed()) << spec;
  }
  // A seed alone is grammatically fine but arms nothing.
  faultfs::install_spec("seed=7");
  EXPECT_FALSE(faultfs::armed());
  EXPECT_EQ(faultfs::describe(), "");
}

TEST_F(FaultFs, EmptySpecDisarmsAndDescribeNamesRules) {
  faultfs::install_spec("seed=42;read:eintr;write:short,p=0.5");
  EXPECT_TRUE(faultfs::armed());
  const std::string desc = faultfs::describe();
  EXPECT_NE(desc.find("seed=42"), std::string::npos) << desc;
  EXPECT_NE(desc.find("read:eintr"), std::string::npos) << desc;
  EXPECT_NE(desc.find("write:short"), std::string::npos) << desc;
  faultfs::install_spec("");
  EXPECT_FALSE(faultfs::armed());
}

TEST_F(FaultFs, EintrAndCountWindow) {
  faultfs::install_spec("read:eintr,count=2");
  const int fd = ::open("/dev/zero", O_RDONLY);
  ASSERT_GE(fd, 0);
  char buf[8];
  errno = 0;
  EXPECT_EQ(faultfs::read(fd, buf, sizeof buf), -1);
  EXPECT_EQ(errno, EINTR);
  errno = 0;
  EXPECT_EQ(faultfs::read(fd, buf, sizeof buf), -1);
  EXPECT_EQ(errno, EINTR);
  // The count window is spent; the third call is a real read.
  EXPECT_EQ(faultfs::read(fd, buf, sizeof buf), static_cast<ssize_t>(sizeof buf));
  EXPECT_EQ(faultfs::injected_total(), 2u);
  ::close(fd);
}

TEST_F(FaultFs, AfterSkipsTheFirstMatchingCalls) {
  faultfs::install_spec("write:eintr,after=2,count=1");
  const int fd = ::open("/dev/null", O_WRONLY);
  ASSERT_GE(fd, 0);
  const char byte = 'x';
  EXPECT_EQ(faultfs::write(fd, &byte, 1), 1);  // call 1: within `after`
  EXPECT_EQ(faultfs::write(fd, &byte, 1), 1);  // call 2: within `after`
  errno = 0;
  EXPECT_EQ(faultfs::write(fd, &byte, 1), -1);  // call 3: fires
  EXPECT_EQ(errno, EINTR);
  EXPECT_EQ(faultfs::write(fd, &byte, 1), 1);  // call 4: count spent
  ::close(fd);
}

TEST_F(FaultFs, ShortWriteTruncatesButWrites) {
  faultfs::install_spec("write:short,count=1");
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::string payload(100, 'a');
  const ssize_t n = faultfs::write(fds[1], payload.data(), payload.size());
  ASSERT_GT(n, 0);
  ASSERT_LT(n, static_cast<ssize_t>(payload.size()));  // genuinely short
  char buf[128];
  EXPECT_EQ(::read(fds[0], buf, sizeof buf), n);  // the prefix really landed
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST_F(FaultFs, EnospcAndEmfileCarryTheirErrno) {
  faultfs::install_spec("fsync:enospc;open:emfile");
  errno = 0;
  EXPECT_EQ(faultfs::open("/dev/null", O_RDONLY), -1);
  EXPECT_EQ(errno, EMFILE);
  const int fd = ::open("/dev/null", O_WRONLY);
  ASSERT_GE(fd, 0);
  errno = 0;
  EXPECT_EQ(faultfs::fsync(fd), -1);
  EXPECT_EQ(errno, ENOSPC);
  ::close(fd);
}

TEST_F(FaultFs, SeededPlansReplayTheIdenticalInjectionSchedule) {
  const int fd = ::open("/dev/zero", O_RDONLY);
  ASSERT_GE(fd, 0);
  const auto run = [&]() {
    faultfs::install_spec("seed=1234;read:eintr,p=0.5");
    std::vector<bool> pattern;
    char buf[4];
    for (int i = 0; i < 200; ++i) pattern.push_back(faultfs::read(fd, buf, sizeof buf) < 0);
    return pattern;
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first, second);
  // p=0.5 over 200 calls: both outcomes must actually occur.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), true), 200);
  ::close(fd);
}

// ENOSPC mid-snapshot is survivable: the push succeeds, the session is
// degraded to memory-only (visible in describe_sessions), and once the
// "disk" recovers, snapshot_all persists it and clears the flag.
TEST_F(FaultFs, EnospcDuringSnapshotDegradesToMemoryOnlyAndRecovers) {
  const auto dir = std::filesystem::temp_directory_path() / "wlc_faultfs_enospc";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::ostringstream log;
  SessionConfig cfg;
  cfg.state_dir = dir.string();
  cfg.snapshot_every = 8;
  cfg.log = &log;
  SessionManager mgr(cfg);

  OpenRequest open;
  open.session_id = "enospc-s";
  open.tenant = "t";
  open.ks = {1, 2, 4};
  const auto out = mgr.open(open, SessionManager::Clock::now());
  ASSERT_TRUE(std::get_if<OpenReply>(&out.reply) != nullptr);

  faultfs::install_spec("write:enospc");  // every snapshot write now fails
  PushRequest push;
  push.session_id = "enospc-s";
  for (int i = 0; i < 16; ++i) push.demands.push_back(100 + i);
  const Reply r = mgr.push(push);  // crosses the cadence → snapshot → ENOSPC
  ASSERT_TRUE(std::get_if<PushReply>(&r) != nullptr);  // analysis unaffected
  mgr.flush_snapshots();  // the cadence snapshot is written off the push path

  auto infos = mgr.describe_sessions();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_TRUE(infos[0].memory_only);
  EXPECT_NE(log.str().find("DiskFullError"), std::string::npos) << log.str();
  EXPECT_NE(log.str().find("in-memory-only"), std::string::npos) << log.str();

  faultfs::disarm();  // the disk has space again
  mgr.snapshot_all();
  infos = mgr.describe_sessions();
  EXPECT_FALSE(infos[0].memory_only);
  EXPECT_TRUE(std::filesystem::exists(dir / "enospc-s.wlcs"));
  std::filesystem::remove_all(dir);
}

#else  // WLC_FAULT_DISABLE

TEST_F(FaultFs, CompiledOutBuildRefusesNonEmptySpecs) {
  EXPECT_FALSE(faultfs::kCompiledIn);
  EXPECT_NO_THROW(faultfs::install_spec(""));
  EXPECT_THROW(faultfs::install_spec("read:eintr"), DomainError);
  EXPECT_FALSE(faultfs::armed());
}

#endif  // WLC_FAULT_DISABLE

TEST(SplitAddressList, SplitsAndDropsEmptyParts) {
  EXPECT_EQ(split_address_list("unix:/a"), (std::vector<std::string>{"unix:/a"}));
  EXPECT_EQ(split_address_list("unix:/a,host:1234,:5"),
            (std::vector<std::string>{"unix:/a", "host:1234", ":5"}));
  EXPECT_EQ(split_address_list(",unix:/a,,unix:/b,"),
            (std::vector<std::string>{"unix:/a", "unix:/b"}));
  EXPECT_TRUE(split_address_list("").empty());
  EXPECT_TRUE(split_address_list(",,").empty());
}

TEST(FailoverClient, RejectsEmptyListAndBadAddressesUpFront) {
  EXPECT_THROW(FailoverClient({}, {}), Error);
  EXPECT_THROW(FailoverClient({"not an address"}, {}), Error);
}

TEST(FailoverClient, RetryBudgetBoundsConsecutiveFailedSweeps) {
  RetryPolicy policy;
  policy.base = std::chrono::milliseconds(1);
  policy.cap = std::chrono::milliseconds(2);
  policy.budget = 2;
  FailoverClient client({"unix:/tmp/wlc_faultfs_test_no_such.sock"}, policy);
  const bool ok =
      client.connect_until(std::chrono::steady_clock::now() + std::chrono::seconds(30));
  EXPECT_FALSE(ok);
  EXPECT_EQ(client.failed_sweeps(), 2);
  EXPECT_NE(client.error().find("retry budget exhausted"), std::string::npos) << client.error();
}

TEST(FailoverClient, DeadlineBoundsTheRetryLoop) {
  RetryPolicy policy;
  policy.base = std::chrono::milliseconds(50);
  FailoverClient client({"unix:/tmp/wlc_faultfs_test_no_such.sock"}, policy);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(client.connect_until(t0 + std::chrono::milliseconds(120)));
  EXPECT_NE(client.error().find("retry deadline reached"), std::string::npos) << client.error();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(10));
}

TEST(FailoverClient, BackoffScheduleIsSeededDeterministicAndBounded) {
  RetryPolicy policy;
  policy.base = std::chrono::milliseconds(1);
  policy.cap = std::chrono::milliseconds(8);
  policy.budget = 5;
  policy.seed = 99;
  const auto schedule = [&]() {
    FailoverClient client({"unix:/tmp/wlc_faultfs_test_no_such.sock"}, policy);
    client.connect_until(std::chrono::steady_clock::now() + std::chrono::minutes(1));
    return client.peek_backoff();
  };
  const auto a = schedule();
  const auto b = schedule();
  EXPECT_EQ(a, b);  // same seed, same failure sequence → same waits
  EXPECT_GE(a, policy.base);
  EXPECT_LE(a, policy.cap);
}

TEST(FailoverClient, FollowRedirectReordersAndValidates) {
  FailoverClient client({"unix:/tmp/wlc_a.sock", "unix:/tmp/wlc_b.sock"}, {});
  EXPECT_EQ(client.current_address(), "unix:/tmp/wlc_a.sock");

  client.follow_redirect("unix:/tmp/wlc_b.sock");  // known peer: re-aim, no insert
  EXPECT_EQ(client.current_address(), "unix:/tmp/wlc_b.sock");
  EXPECT_EQ(client.addresses().size(), 2u);

  client.follow_redirect("unix:/tmp/wlc_c.sock");  // new peer: front of the list
  EXPECT_EQ(client.current_address(), "unix:/tmp/wlc_c.sock");
  EXPECT_EQ(client.addresses().size(), 3u);
  EXPECT_EQ(client.addresses().front(), "unix:/tmp/wlc_c.sock");

  EXPECT_THROW(client.follow_redirect("garbage"), Error);  // refuse to chase junk
  EXPECT_EQ(client.addresses().size(), 3u);  // and leave the list untouched
}

}  // namespace
}  // namespace wlc::serve
