// End-to-end serving test over real loopback sockets: boots a ServeServer
// on an ephemeral port, pushes a few thousand closed-loop requests through
// it, and checks that client-side accounting (ok / shed / rejected replies)
// matches the server's OverloadLedger and BridgeStats exactly.  Also covers
// the chaos/self-healing plane: half-frame disconnects, injected shard
// crashes/stalls healed by the watchdog, the idempotent retry identity, and
// graceful drain while a fault window is active.  Environments without
// socket support skip cleanly (Start() reports the error).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>

#include "gtest/gtest.h"
#include "src/serve/chaos.h"
#include "src/serve/idempotency.h"
#include "src/serve/loadgen.h"
#include "src/serve/server.h"
#include "src/serve/wire.h"

namespace faas {
namespace {

using serve::ServeChaosPlan;

// Starts the server or skips the test when sockets are unavailable.
#define START_OR_SKIP(server)                                         \
  do {                                                                \
    std::string error;                                                \
    if (!(server).Start(&error)) {                                    \
      GTEST_SKIP() << "sockets unavailable: " << error;               \
    }                                                                 \
  } while (0)

ServeConfig BaseConfig() {
  ServeConfig config;
  config.port = 0;  // Ephemeral.
  config.num_loops = 1;
  return config;
}

TEST(ServeLoopbackTest, ClosedLoopServedAccountingMatchesLedger) {
  ServeConfig config = BaseConfig();
  config.bridge.num_executors = 2;
  config.bridge.service_time_us = 50;
  config.bridge.cold_start_us = 500;
  ServeServer server(config);
  START_OR_SKIP(server);
  ASSERT_GT(server.port(), 0);

  LoadGenConfig load;
  load.port = server.port();
  load.mode = LoadMode::kClosed;
  load.connections = 8;
  load.duration_ms = 1'000;
  load.drain_ms = 1'000;
  load.num_functions = 16;
  LoadGenResult result;
  std::string error;
  ASSERT_TRUE(LoadGenerator(load).Run(&result, &error)) << error;

  EXPECT_GE(result.sent, 2'000) << "closed loop should clear a few thousand "
                                   "requests in a second";
  EXPECT_EQ(result.replies, result.sent);
  EXPECT_EQ(result.ok, result.sent);
  EXPECT_EQ(result.shed(), 0);
  EXPECT_EQ(result.rejected, 0);
  EXPECT_GT(result.cold, 0);  // First touch of every function is cold.
  EXPECT_GT(result.warm, result.cold);
  EXPECT_EQ(result.latency.count(), result.ok);

  server.Stop();
  const ServeStats stats = server.Snapshot();
  // Client and server books must agree exactly.
  EXPECT_EQ(stats.bridge.requests, result.sent);
  EXPECT_EQ(stats.bridge.served(), result.ok);
  EXPECT_EQ(stats.bridge.served_warm, result.warm);
  EXPECT_EQ(stats.bridge.served_cold, result.cold);
  EXPECT_EQ(stats.bridge.rejected, 0);
  EXPECT_EQ(stats.ledger.shed_queue_full, 0);
  EXPECT_EQ(stats.ledger.shed_deadline, 0);
  EXPECT_EQ(stats.frames_in, result.sent);
  EXPECT_EQ(stats.replies_out, result.replies);
  EXPECT_EQ(stats.latency.count(), result.ok);
}

TEST(ServeLoopbackTest, ConcurrencyCapShedsViaQueueAndLedgerAgrees) {
  ServeConfig config = BaseConfig();
  config.bridge.num_executors = 1;
  config.bridge.service_time_us = 2'000;  // Slow: forces queueing.
  config.bridge.overload.invoker_concurrency_cap = 1;
  config.bridge.overload.admission.capacity = 4;
  config.bridge.overload.admission.discipline = AdmissionDiscipline::kFifo;
  ServeServer server(config);
  START_OR_SKIP(server);

  LoadGenConfig load;
  load.port = server.port();
  load.mode = LoadMode::kOpen;
  load.target_rps = 4'000;  // ~8x what one 2ms-serial executor can do.
  load.connections = 2;
  load.duration_ms = 800;
  load.drain_ms = 1'500;
  LoadGenResult result;
  std::string error;
  ASSERT_TRUE(LoadGenerator(load).Run(&result, &error)) << error;

  EXPECT_GT(result.ok, 0);
  EXPECT_GT(result.shed_queue_full, 0) << "overload must shed at the queue";
  EXPECT_EQ(result.replies, result.sent) << "every request gets a reply";

  server.Stop();
  const ServeStats stats = server.Snapshot();
  EXPECT_EQ(stats.bridge.served(), result.ok);
  EXPECT_EQ(stats.ledger.shed_queue_full, result.shed_queue_full);
  EXPECT_EQ(stats.ledger.shed_deadline, result.shed_deadline);
  EXPECT_EQ(stats.ledger.shed_at_shutdown, result.shed_shutdown);
  EXPECT_EQ(stats.bridge.rejected, result.rejected);
  EXPECT_EQ(stats.bridge.served() + stats.ledger.shed_queue_full +
                stats.ledger.shed_deadline + stats.ledger.shed_at_shutdown +
                stats.bridge.rejected,
            result.sent)
      << "every request is accounted exactly once";
  EXPECT_GT(stats.ledger.queued, 0);
  EXPECT_GT(stats.ledger.drained, 0);
}

TEST(ServeLoopbackTest, RejectsWithoutQueue) {
  ServeConfig config = BaseConfig();
  config.bridge.num_executors = 1;
  config.bridge.service_time_us = 5'000;
  config.bridge.overload.invoker_concurrency_cap = 1;
  // No admission queue: overflow is rejected outright.
  ServeServer server(config);
  START_OR_SKIP(server);

  LoadGenConfig load;
  load.port = server.port();
  load.mode = LoadMode::kOpen;
  load.target_rps = 2'000;
  load.duration_ms = 500;
  load.drain_ms = 1'000;
  LoadGenResult result;
  std::string error;
  ASSERT_TRUE(LoadGenerator(load).Run(&result, &error)) << error;

  EXPECT_GT(result.rejected, 0);
  server.Stop();
  const ServeStats stats = server.Snapshot();
  EXPECT_EQ(stats.bridge.rejected, result.rejected);
  EXPECT_EQ(stats.bridge.served(), result.ok);
}

TEST(ServeLoopbackTest, GracefulStopShedsQueueAndRepliesToEverything) {
  ServeConfig config = BaseConfig();
  config.bridge.num_executors = 1;
  config.bridge.service_time_us = 5'000;
  config.bridge.overload.invoker_concurrency_cap = 1;
  config.bridge.overload.admission.capacity = 512;
  ServeServer server(config);
  START_OR_SKIP(server);

  // Send a burst that cannot finish within the send window, then stop the
  // server mid-pile: the drain path must shed the queue as shed_shutdown
  // and still deliver one reply per request.
  LoadGenConfig load;
  load.port = server.port();
  load.mode = LoadMode::kOpen;
  load.target_rps = 3'000;
  load.duration_ms = 300;
  load.drain_ms = 2'500;
  LoadGenResult result;
  std::string error;
  std::atomic<bool> done{false};
  std::thread stopper([&server, &done]() {
    // Stop while the load generator is draining replies.
    while (!done.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(400));
      server.Stop();
      return;
    }
  });
  const bool ran = LoadGenerator(load).Run(&result, &error);
  done.store(true);
  stopper.join();
  ASSERT_TRUE(ran) << error;
  server.Stop();

  const ServeStats stats = server.Snapshot();
  EXPECT_GT(stats.ledger.shed_at_shutdown, 0)
      << "queue should have been shed at shutdown";
  EXPECT_EQ(stats.bridge.served() + stats.ledger.shed_at_shutdown +
                stats.ledger.shed_queue_full + stats.ledger.shed_deadline +
                stats.bridge.rejected,
            stats.bridge.requests);
  // The server replied to everything it admitted before the connections
  // closed (client may see slightly fewer if its socket closed first).
  EXPECT_EQ(stats.replies_out, stats.bridge.requests);
  EXPECT_LE(result.replies, result.sent);
}

TEST(ServeLoopbackTest, ServesAcrossMultipleLoops) {
  ServeConfig config = BaseConfig();
  config.num_loops = 2;  // SO_REUSEPORT spreads connections.
  config.bridge.num_executors = 2;
  ServeServer server(config);
  START_OR_SKIP(server);
  EXPECT_EQ(server.num_loops(), 2);

  LoadGenConfig load;
  load.port = server.port();
  load.mode = LoadMode::kClosed;
  load.connections = 8;
  load.duration_ms = 400;
  LoadGenResult result;
  std::string error;
  ASSERT_TRUE(LoadGenerator(load).Run(&result, &error)) << error;
  EXPECT_GT(result.ok, 0);
  EXPECT_EQ(result.replies, result.sent);

  server.Stop();
  const ServeStats stats = server.Snapshot();
  EXPECT_EQ(stats.bridge.served(), result.ok);
  EXPECT_EQ(stats.connections_accepted, 8);
}

// --- Chaos / self-healing coverage -----------------------------------------

// Dials the server with a blocking loopback socket; returns -1 on failure.
int DialRaw(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

ServeChaosPlan MustParsePlan(const std::string& spec) {
  std::string error;
  auto plan = ServeChaosPlan::Parse(spec, &error);
  EXPECT_TRUE(plan.has_value()) << error;
  return plan.value_or(ServeChaosPlan{});
}

TEST(ServeLoopbackTest, PlainRunLeavesRecoveryLedgerEmpty) {
  // The zero-cost invariant at the stats level: with every chaos /
  // watchdog / degrade / dedupe knob off, a normal serving run must not
  // touch a single recovery counter.
  ServeConfig config = BaseConfig();
  config.bridge.num_executors = 2;
  config.bridge.service_time_us = 100;
  ServeServer server(config);
  START_OR_SKIP(server);

  LoadGenConfig load;
  load.port = server.port();
  load.mode = LoadMode::kClosed;
  load.connections = 4;
  load.duration_ms = 300;
  LoadGenResult result;
  std::string error;
  ASSERT_TRUE(LoadGenerator(load).Run(&result, &error)) << error;
  EXPECT_GT(result.ok, 0);

  server.Stop();
  const ServeStats stats = server.Snapshot();
  EXPECT_TRUE(stats.recovery.Empty())
      << "recovery book must stay all-zero when the resilience plane is off";
  EXPECT_EQ(result.failed, 0);
  EXPECT_EQ(result.shed_degraded, 0);
}

TEST(ServeLoopbackTest, HalfFrameDisconnectsDoNotWedgeTheServer) {
  // Regression for the EINTR/EPIPE audit: a peer that sends half a frame
  // and then vanishes — cleanly (FIN) or abruptly (RST via SO_LINGER{1,0})
  // — must not wedge its event-loop slot or poison later connections.
  ServeConfig config = BaseConfig();
  config.bridge.num_executors = 2;
  config.bridge.service_time_us = 100;
  ServeServer server(config);
  START_OR_SKIP(server);

  RequestFrame frame;
  frame.request_id = 99;
  frame.function_id = 1;
  std::vector<uint8_t> encoded;
  EncodeRequest(frame, encoded);
  ASSERT_GE(encoded.size(), kWireHeaderSize);

  // Half a frame, then FIN.
  int fd = DialRaw(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::send(fd, encoded.data(), kWireHeaderSize / 2, MSG_NOSIGNAL),
            static_cast<ssize_t>(kWireHeaderSize / 2));
  ::close(fd);

  // Half a frame, then RST.
  fd = DialRaw(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::send(fd, encoded.data(), kWireHeaderSize / 2, MSG_NOSIGNAL),
            static_cast<ssize_t>(kWireHeaderSize / 2));
  const struct linger hard_close = {1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard_close, sizeof(hard_close));
  ::close(fd);

  // A clean client afterwards must be served completely.
  LoadGenConfig load;
  load.port = server.port();
  load.mode = LoadMode::kClosed;
  load.connections = 2;
  load.duration_ms = 300;
  LoadGenResult result;
  std::string error;
  ASSERT_TRUE(LoadGenerator(load).Run(&result, &error)) << error;
  EXPECT_GT(result.ok, 0);
  EXPECT_EQ(result.ok, result.sent);

  server.Stop();
  const ServeStats stats = server.Snapshot();
  EXPECT_GE(stats.connections_accepted, 4);
  EXPECT_EQ(stats.connections_closed, stats.connections_accepted);
  EXPECT_EQ(stats.bridge.served(), result.ok)
      << "the aborted half-frames must not have reached the bridge";
}

TEST(ServeLoopbackTest, CrashHealBooksRecoveryMttrAndQuarantine) {
  // A scheduled crash mid-load must book exactly one crash restart and one
  // recovery whose MTTR is at least the configured downtime (timers never
  // fire early), and quarantine the idle warm containers the crashed shard
  // had built up.
  ServeConfig config = BaseConfig();
  config.bridge.num_executors = 2;
  config.bridge.service_time_us = 200;
  config.bridge.chaos =
      MustParsePlan("crash:executor=0,at=250ms,down=200ms");
  ServeServer server(config);
  START_OR_SKIP(server);

  // Light closed-loop traffic: containers sit idle between touches, so the
  // crashed shard has warm state to quarantine.
  LoadGenConfig load;
  load.port = server.port();
  load.mode = LoadMode::kClosed;
  load.connections = 4;
  load.duration_ms = 600;
  load.drain_ms = 1'500;
  load.num_functions = 8;
  LoadGenResult result;
  std::string error;
  ASSERT_TRUE(LoadGenerator(load).Run(&result, &error)) << error;
  server.Stop();

  const ServeStats stats = server.Snapshot();
  EXPECT_EQ(stats.recovery.crash_restarts, 1);
  EXPECT_EQ(stats.recovery.watchdog_restarts, 0);
  EXPECT_EQ(stats.recovery.recoveries, 1);
  EXPECT_GT(stats.recovery.max_mttr_ms, 0.0);
  EXPECT_GE(stats.recovery.MeanMttrMs(), 150.0)
      << "healed after ~200ms of downtime";
  EXPECT_GT(stats.recovery.warm_quarantined, 0)
      << "the crashed shard's idle warm containers are quarantined";
  // Without retries, in-flight work failed at the crash surfaces to the
  // client as kFailed, one for one.
  EXPECT_EQ(result.failed, stats.recovery.inflight_failed);
  EXPECT_EQ(result.replies, result.sent);
}

TEST(ServeLoopbackTest, WatchdogRescuesStalledShardAndRetryKeepsGoodput) {
  // The full self-healing loop: a shard stalls mid-load, the watchdog
  // detects the overdue completions, restarts the shard (failing its
  // frozen in-flight work and quarantining its warm pool), and the
  // client's idempotent retries re-execute everything to 100% goodput.
  // The dedupe identity must hold exactly:
  //   client_sends - retries_deduped - dupes_inflight == executions.
  ServeConfig config = BaseConfig();
  config.bridge.num_executors = 2;
  config.bridge.service_time_us = 5'000;
  // New work is routed around a stalled shard, so only a stall that begins
  // while executor 0 has work in flight freezes anything.  The plan is
  // anchored at server start, not at the client's first request, so a
  // 300 ms stall every 500 ms for 30 s puts at least one onset inside the
  // 700 ms load however late the client starts.
  for (int i = 0; i < 60; ++i) {
    config.bridge.chaos.stalls.push_back(
        {/*executor=*/0, Duration::Millis(200 + 500 * i),
         Duration::Millis(300)});
  }
  config.bridge.watchdog.enabled = true;
  config.bridge.watchdog.interval = Duration::Millis(25);
  config.bridge.watchdog.stall_threshold = Duration::Millis(80);
  serve::IdempotencyIndex dedupe(/*ttl_ns=*/int64_t{10'000'000'000});
  config.bridge.dedupe = &dedupe;
  ServeServer server(config);
  START_OR_SKIP(server);

  LoadGenConfig load;
  load.port = server.port();
  load.mode = LoadMode::kClosed;
  load.connections = 8;
  load.duration_ms = 700;
  load.drain_ms = 3'000;
  load.num_functions = 8;
  load.retry.enabled = true;
  load.retry.timeout_us = 40'000;
  load.retry.backoff_base_us = 5'000;
  load.retry.max_attempts = 10;
  LoadGenResult result;
  std::string error;
  ASSERT_TRUE(LoadGenerator(load).Run(&result, &error)) << error;

  server.Stop();
  const ServeStats stats = server.Snapshot();
  EXPECT_GE(stats.recovery.watchdog_restarts, 1)
      << "the watchdog must have caught the stalled shard";
  EXPECT_GE(stats.recovery.inflight_failed, 1)
      << "work frozen on the stalled shard is failed on restart";
  EXPECT_GE(stats.recovery.recoveries, 1);
  EXPECT_GT(stats.recovery.max_mttr_ms, 0.0);

  // Idempotency identity, exact.
  EXPECT_EQ(result.sent - stats.recovery.retries_deduped -
                stats.recovery.dupes_inflight,
            stats.recovery.executions);

  // Every unique request eventually succeeded: retries rescued the fault.
  EXPECT_EQ(result.gave_up, 0);
  EXPECT_EQ(result.ok, result.unique_sends());
  EXPECT_DOUBLE_EQ(result.goodput(), 1.0);
}

TEST(ServeLoopbackTest, DrainDuringStallRepliesToEveryAcceptedRequest) {
  // SIGTERM-equivalent while a shard is stalled: Stop() must fail the
  // frozen in-flight work with kFailed and still deliver exactly one
  // reply (served, shed, or failed) per accepted request.
  ServeConfig config = BaseConfig();
  config.bridge.num_executors = 2;
  config.bridge.service_time_us = 50'000;
  config.bridge.chaos = MustParsePlan("stall:executor=0,at=150ms,for=30s");
  ServeServer server(config);
  START_OR_SKIP(server);

  LoadGenConfig load;
  load.port = server.port();
  load.mode = LoadMode::kOpen;
  load.target_rps = 300;
  load.connections = 4;
  load.duration_ms = 300;
  load.drain_ms = 2'500;
  LoadGenResult result;
  std::string error;
  std::atomic<bool> done{false};
  std::thread stopper([&server, &done]() {
    while (!done.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(450));
      server.Stop();
      return;
    }
  });
  const bool ran = LoadGenerator(load).Run(&result, &error);
  done.store(true);
  stopper.join();
  ASSERT_TRUE(ran) << error;
  server.Stop();

  const ServeStats stats = server.Snapshot();
  EXPECT_GT(stats.recovery.inflight_failed, 0)
      << "requests frozen on the stalled shard must be failed at drain";
  EXPECT_EQ(stats.bridge.served() + stats.ledger.shed_queue_full +
                stats.ledger.shed_deadline + stats.ledger.shed_at_shutdown +
                stats.bridge.rejected + stats.recovery.inflight_failed +
                stats.recovery.shed_degraded,
            stats.bridge.requests)
      << "every accepted request resolves exactly once";
  EXPECT_EQ(stats.replies_out, stats.bridge.requests);
  EXPECT_EQ(result.failed, stats.recovery.inflight_failed);
}

TEST(ServeLoopbackTest, DegradeTiersEscalateUnderPressureAndShedFresh) {
  // Sustained overload walks the degradation ladder: tier >= 2 sheds
  // fresh cold-start traffic with kShedDegraded, and the dwell clock
  // records time spent per tier.  Client and server shed books agree.
  ServeConfig config = BaseConfig();
  config.bridge.num_executors = 1;
  config.bridge.service_time_us = 10'000;
  config.bridge.overload.invoker_concurrency_cap = 1;
  config.bridge.overload.admission.capacity = 8;
  config.bridge.overload.admission.discipline = AdmissionDiscipline::kFifo;
  config.bridge.degrade.enabled = true;
  config.bridge.degrade.enter_pressure = 0.5;
  config.bridge.degrade.exit_pressure = 0.2;
  config.bridge.degrade.min_dwell = Duration::Millis(50);
  ServeServer server(config);
  START_OR_SKIP(server);

  LoadGenConfig load;
  load.port = server.port();
  load.mode = LoadMode::kOpen;
  load.target_rps = 1'500;
  load.connections = 2;
  load.duration_ms = 600;
  load.drain_ms = 2'000;
  LoadGenResult result;
  std::string error;
  ASSERT_TRUE(LoadGenerator(load).Run(&result, &error)) << error;

  server.Stop();
  const ServeStats stats = server.Snapshot();
  EXPECT_GE(stats.recovery.degrade_escalations, 1);
  EXPECT_GE(stats.recovery.degrade_max_tier, 1);
  EXPECT_GT(stats.recovery.shed_degraded, 0)
      << "tier >= 2 under saturation must shed fresh traffic";
  double dwell = 0.0;
  for (double tier_ms : stats.recovery.tier_dwell_ms) {
    dwell += tier_ms;
  }
  EXPECT_GT(dwell, 0.0);
  EXPECT_EQ(result.shed_degraded, stats.recovery.shed_degraded);
  EXPECT_EQ(result.replies, result.sent);
}

TEST(ServeLoopbackTest, ConnResetWindowInjectsResetsAndClientSurvives) {
  // Every connection accepted during the window is reset (p=1).  The
  // retry-enabled client reconnects until the window passes and must
  // still finish a clean run; the server books the injected resets.
  ServeConfig config = BaseConfig();
  config.bridge.num_executors = 2;
  config.bridge.service_time_us = 200;
  config.bridge.chaos = MustParsePlan("connreset:at=0ms,for=400ms,p=1");
  config.bridge.chaos_seed = 7;
  ServeServer server(config);
  START_OR_SKIP(server);

  LoadGenConfig load;
  load.port = server.port();
  load.mode = LoadMode::kClosed;
  load.connections = 2;
  load.duration_ms = 300;
  load.drain_ms = 2'000;
  load.retry.enabled = true;
  load.retry.timeout_us = 60'000;
  load.retry.backoff_base_us = 20'000;
  load.retry.max_attempts = 12;
  load.retry.reconnect_delay_us = 2'000;

  // The initial connect itself may be caught by the reset window; retry
  // the whole run until one gets through (the window is only 400ms).
  LoadGenResult result;
  bool ran = false;
  std::string error;
  for (int attempt = 0; attempt < 100 && !ran; ++attempt) {
    result = LoadGenResult{};
    ran = LoadGenerator(load).Run(&result, &error);
    if (!ran) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ASSERT_TRUE(ran) << error;
  EXPECT_GT(result.ok, 0);

  server.Stop();
  const ServeStats stats = server.Snapshot();
  EXPECT_GT(stats.recovery.conn_resets_injected, 0)
      << "at least the first accepts land inside the reset window";
}

TEST(ServeLoopbackTest, StartupFailureReportsCleanly) {
  ServeConfig config = BaseConfig();
  config.host = "0.0.0.256";  // Not an address.
  ServeServer server(config);
  std::string error;
  EXPECT_FALSE(server.Start(&error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(server.running());
}

}  // namespace
}  // namespace faas
