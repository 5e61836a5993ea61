// Tests for the real-deployment executor (src/realexec): generated
// schedules replayed against live gmpx_node processes over localhost TCP.
//
// These are real multi-process tests — each spawns a cluster, so they are
// wall-clock bound (a second or two each) and sensitive to extreme machine
// load the same way any real deployment is.  Port windows start at 23000 —
// clear of net_test (21000+), the tcp_smoke sweep (25000+), and the Linux
// ephemeral port range (32768+, where outgoing connections would race the
// listeners for local ports).
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "net/tcp_runtime.hpp"
#include "realexec/executor.hpp"
#include "realexec/proxy.hpp"
#include "scenario/generator.hpp"
#include "scenario/schedule.hpp"

using namespace gmpx;
using namespace gmpx::realexec;

namespace {

uint16_t base_port() {
  static std::atomic<uint16_t> next{23000};
  return next.fetch_add(64);
}

TcpExecOptions tcp_opts() {
  TcpExecOptions o;
  o.base_port = base_port();
  return o;
}

sockaddr_in loopback(uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

/// A blocking client connection to 127.0.0.1:port, or -1.
int connect_to(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr = loopback(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// One protocol-kind frame from `from` to node 0.
bool send_frame(int fd, ProcessId from) {
  Packet p;
  p.from = from;
  p.to = 0;
  p.kind = kProtocolKindFloor;
  p.bytes = {1, 2, 3};
  const std::vector<uint8_t> wire = net::encode_frame(p);
  return ::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL) == static_cast<ssize_t>(wire.size());
}

bool wait_forwarded(const DelayProxy& proxy, uint64_t want) {
  for (int i = 0; i < 1000 && proxy.frames_forwarded() < want; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return proxy.frames_forwarded() == want;
}

}  // namespace

TEST(RealExec, CleanRunQuiescesAndExitsClean) {
  scenario::Schedule s;
  s.n = 3;
  TcpExecOptions o = tcp_opts();
  TcpExecResult r = execute_tcp(s, o);
  EXPECT_TRUE(r.ok()) << r.message() << "\n" << r.diagnostic;
  EXPECT_TRUE(r.quiesced);
  EXPECT_EQ(r.nodes_spawned, 3u);
  // Every node was SIGTERMed (none killed) and every stream must carry its
  // eos marker — the flush-on-SIGTERM contract.
  EXPECT_EQ(r.clean_exits, 3u);
  EXPECT_EQ(r.missing_eos, 0u);
  EXPECT_EQ(r.final_view_size, 3u);
}

TEST(RealExec, SigkillCrashIsDetectedAndExcluded) {
  scenario::Schedule s;
  s.n = 3;
  s.events.push_back({scenario::EventType::kCrash, 500, 2, kNilId, {}, 0, 0, 0, 0, 0, 0});
  TcpExecOptions o = tcp_opts();
  TcpExecResult r = execute_tcp(s, o);
  EXPECT_TRUE(r.ok()) << r.message() << "\n" << r.diagnostic;
  EXPECT_EQ(r.final_view_size, 2u);
  // The SIGKILLed node cannot flush, and must NOT be counted against the
  // eos contract; the two SIGTERMed survivors must honour it.
  EXPECT_EQ(r.clean_exits, 2u);
  EXPECT_EQ(r.missing_eos, 0u);
}

TEST(RealExec, ShortPauseIsAbsorbed) {
  // SIGSTOP shorter than the heartbeat timeout (800 ticks): peers must ride
  // it out; nobody gets excluded.
  scenario::Schedule s;
  s.n = 3;
  TcpExecOptions o = tcp_opts();
  o.pauses.push_back({1, 400, 300});
  TcpExecResult r = execute_tcp(s, o);
  EXPECT_TRUE(r.ok()) << r.message() << "\n" << r.diagnostic;
  EXPECT_EQ(r.final_view_size, 3u);
  EXPECT_EQ(r.clean_exits, 3u);
}

TEST(RealExec, LongPauseLooksLikeACrash) {
  // SIGSTOP for 4x the heartbeat timeout: the paused node must be excluded
  // exactly like a crash.  Once resumed it has missed every heartbeat and
  // either quits (lost majority) or survives as an excluded zombie — both
  // are verdict-clean; what is pinned here is that the *group* moved on.
  scenario::Schedule s;
  s.n = 4;
  TcpExecOptions o = tcp_opts();
  o.pauses.push_back({3, 500, 3200});
  TcpExecResult r = execute_tcp(s, o);
  EXPECT_TRUE(r.ok()) << r.message() << "\n" << r.diagnostic;
  EXPECT_EQ(r.final_view_size, 3u);
}

TEST(RealExec, JoinAdmitsOverTcp) {
  scenario::Schedule s;
  s.n = 3;
  s.events.push_back({scenario::EventType::kJoin, 600, 100, kNilId, {0}, 0, 0, 0, 0, 0, 0});
  TcpExecOptions o = tcp_opts();
  TcpExecResult r = execute_tcp(s, o);
  EXPECT_TRUE(r.ok()) << r.message() << "\n" << r.diagnostic;
  EXPECT_EQ(r.nodes_spawned, 4u);
  EXPECT_EQ(r.final_view_size, 4u);
  EXPECT_EQ(r.aborted_joins, 0u);
}

TEST(RealExec, RestartRebornOverTcp) {
  // Crash-restart churn on a real deployment: p2 is SIGKILLed, and its
  // replacement — the fresh incarnation p100 (paper S1: ids never reused)
  // — is forked later and admitted through the normal S7 path over TCP.
  scenario::Schedule s;
  s.n = 3;
  s.events.push_back({scenario::EventType::kCrash, 500, 2, kNilId, {}, 0, 0, 0, 0, 0, 0});
  s.events.push_back({scenario::EventType::kRestart, 2500, 2, 100, {0}, 0, 0, 0, 0, 0, 0});
  TcpExecOptions o = tcp_opts();
  TcpExecResult r = execute_tcp(s, o);
  EXPECT_TRUE(r.ok()) << r.message() << "\n" << r.diagnostic;
  EXPECT_EQ(r.nodes_spawned, 4u);
  EXPECT_EQ(r.final_view_size, 3u) << "expected {0, 1, 100}";
  EXPECT_EQ(r.aborted_joins, 0u);
}

TEST(RealExec, CrossCheckAgreesWithSim) {
  // One generated mixed-profile schedule, judged by both deployments.  The
  // divergence contract: timing may differ, verdicts may not.
  scenario::GeneratorOptions gen;
  gen.n = 5;
  gen.profile = scenario::Profile::kMixed;
  scenario::ExecOptions sim;
  sim.fd = fd::DetectorKind::kHeartbeat;
  TcpExecOptions o = tcp_opts();
  gen = scenario::tuned_for_heartbeat(gen, sim.heartbeat);
  scenario::Schedule s = scenario::generate(7, gen);
  CrossCheckResult cc = cross_check(s, sim, o);
  EXPECT_TRUE(cc.agree) << cc.reason;
  EXPECT_TRUE(cc.sim.ok()) << cc.sim.message();
  EXPECT_TRUE(cc.tcp.ok()) << cc.tcp.message() << "\n" << cc.tcp.diagnostic;
}

TEST(RealExec, ProxyAcceptsAndReadsInTheSamePollRound) {
  // One DelayProxy loop round polls the inbound connections, accepts new
  // peers, then reads the polled ones.  Peers accepted mid-round used to
  // be looked up in the poll set past its end (a heap-buffer-overflow
  // under ASan).  Burst several new peers onto the proxy while an
  // established one keeps sending, and require every frame to reach the
  // node.
  const uint16_t node_port = base_port();
  const uint16_t proxy_port = node_port + 1;
  // The node end only needs a listening socket: the kernel completes the
  // proxy's forward connection and buffers the few frames sent here.
  int node_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(node_fd, 0);
  int one = 1;
  ::setsockopt(node_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr = loopback(node_port);
  ASSERT_EQ(::bind(node_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  ASSERT_EQ(::listen(node_fd, 8), 0);

  ProxyOptions po;
  po.target = 0;
  po.listen_port = proxy_port;
  po.node_port = node_port;
  po.epoch_us = net::monotonic_now_us();
  DelayProxy proxy(po);
  proxy.start();

  std::vector<int> peers;
  peers.push_back(connect_to(proxy_port));
  ASSERT_GE(peers[0], 0);
  ASSERT_TRUE(send_frame(peers[0], 1));
  ASSERT_TRUE(wait_forwarded(proxy, 1));

  uint64_t sent = 1;
  for (int round = 0; round < 10; ++round) {
    ASSERT_TRUE(send_frame(peers[0], 1));
    ++sent;
    for (int k = 0; k < 6; ++k) {
      const int fd = connect_to(proxy_port);
      ASSERT_GE(fd, 0);
      peers.push_back(fd);
      ASSERT_TRUE(send_frame(fd, static_cast<ProcessId>(peers.size())));
      ++sent;
    }
  }
  EXPECT_TRUE(wait_forwarded(proxy, sent)) << proxy.summary(0);
  EXPECT_EQ(proxy.frames_dropped(), 0u);

  for (int fd : peers) ::close(fd);
  proxy.stop();
  ::close(node_fd);
}
