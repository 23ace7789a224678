// serve_loopback: in-process ServeServers (one event loop each) on
// loopback, driven by a single-threaded client in the same process over 4
// connections.  The only wall-clock path: the simulator, generator and
// policy code do not run here, so this workload is the no-change control
// for sweep and cluster changes.
//
//   set-up   start both servers and connect (repeated; the median is
//            reported), then warm each with a short burst, untimed;
//   phase A  open loop against the cold-start server: seeded Poisson
//            arrivals at a fixed rate below capacity over a Zipf
//            popularity of more functions than the warm pools keep within
//            the keep-alive.  Every request is timed from when it was DUE,
//            not when it was sent, so a client stall shows as latency
//            instead of hiding in a catch-up burst; the client's lateness
//            is reported separately (client.lag_*);
//   phase B  closed loop against the path server: 4 connections with 16
//            requests in flight each, zero think time, over the always-warm
//            head of the popularity, so ok replies per second measure the
//            request path itself.
//
// Phase A's server executes for a fixed 200 us and adds 10 ms on a cold
// start.  The reported latencies leave that configured execution out
// (PathMsAtPercentile).  About 2% of requests are cold, so the p50 request
// is warm and the p99 request cold, each well inside its mode rather than
// on the 1% boundary between them, where it flipped between runs.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sched.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "pb/common.h"
#include "pb/oracles.h"
#include "pb/probe.h"
#include "src/common/rng.h"
#include "src/serve/bridge.h"
#include "src/serve/clock.h"
#include "src/serve/server.h"
#include "src/serve/timer_wheel.h"
#include "src/serve/wire.h"

namespace perfbench {

namespace {

constexpr int kConnections = 4;
constexpr int kSetupRepeats = 25;
constexpr uint32_t kFunctions = 2000;
constexpr double kZipfExponent = 1.0;
constexpr uint32_t kHotFunctions = 64;
constexpr double kOpenLoopRps = 20000.0;
constexpr int kWarmupRequests = 1000;
// Phase B keeps this many requests in flight per connection, so the server
// loop always has work and throughput measures its request path rather than
// how fast an idle thread wakes up.
constexpr int kClosedLoopWindow = 16;
// Requests per timed phase B chunk (about 0.3-0.6 s on the baseline VM).
constexpr int64_t kClosedLoopChunk = 1'000'000;
// Phase A's execution: a fixed service time and a cold-start penalty.
constexpr uint32_t kServiceUs = 200;
constexpr uint32_t kColdStartUs = 10'000;

// Phase A's server: a fixed execution time and a cold-start penalty,
// both well above loopback jitter.
faas::ServeConfig OpenLoopConfig() {
  faas::ServeConfig config;
  config.host = "127.0.0.1";
  config.num_loops = 1;
  config.bridge.num_executors = 2;
  config.bridge.service_time_us = kServiceUs;
  config.bridge.cold_start_us = kColdStartUs;
  config.bridge.keep_alive_ms = 1400;
  config.bridge.num_functions_hint = kFunctions;
  return config;
}

// What phase A's server was configured to spend executing a request.  The
// reported latency leaves it out: it is the time the server and the client
// path added.
int64_t ExecutionNs(bool cold) {
  return 1000 * static_cast<int64_t>(kServiceUs + (cold ? kColdStartUs : 0));
}

// One phase A request as the client saw it.  A request that failed or got
// no reply counts as infinitely late.
struct PhaseALatency {
  double total_ms = std::numeric_limits<double>::infinity();  // Due to reply.
  double execution_ms = 0.0;  // ExecutionNs of the reply's class.
};

// Ranks phase A's requests by due-to-reply latency and returns, for the
// request at percentile p (nearest rank), the part of its latency beyond
// its configured execution: the time the request path added.  The p50
// request is warm and the p99 request cold (the cold share stays well above
// 1%), so each value is measured inside one mode of the latency.
double PathMsAtPercentile(std::vector<PhaseALatency> latency, double p) {
  std::sort(latency.begin(), latency.end(),
            [](const PhaseALatency& x, const PhaseALatency& y) {
              return x.total_ms < y.total_ms;
            });
  const double rank = p / 100.0 * static_cast<double>(latency.size());
  size_t index = rank <= 1.0 ? 0 : static_cast<size_t>(std::ceil(rank)) - 1;
  index = std::min(index, latency.size() - 1);
  return latency[index].total_ms - latency[index].execution_ms;
}

// Phase B's server: warm requests complete inline, so the closed loop
// measures decode, admission, encode and the socket round trip.
faas::ServeConfig ClosedLoopConfig() {
  faas::ServeConfig config = OpenLoopConfig();
  config.bridge.service_time_us = 0;
  return config;
}

// Zipf(kZipfExponent) popularity over kFunctions ids.
class Popularity {
 public:
  Popularity() {
    double total = 0.0;
    for (uint32_t f = 1; f <= kFunctions; ++f) {
      total += 1.0 / std::pow(static_cast<double>(f), kZipfExponent);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) {
      c /= total;
    }
  }
  uint32_t Sample(faas::Rng& rng) const { return SampleBelow(rng, 1.0); }
  // The same popularity restricted to the kHotFunctions most popular ids.
  uint32_t SampleHot(faas::Rng& rng) const {
    return SampleBelow(rng, cdf_[kHotFunctions - 1]);
  }

 private:
  uint32_t SampleBelow(faas::Rng& rng, double mass) const {
    const double u = rng.NextDouble() * mass;
    return static_cast<uint32_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }


  std::vector<double> cdf_;
};

// One client connection: nonblocking socket, reply decoder, pending bytes.
struct Connection {
  int fd = -1;
  faas::FrameDecoder decoder;
  std::vector<uint8_t> out;
  size_t out_sent = 0;
  int outstanding = 0;
};

// Single-threaded loopback client.  Owns its sockets and epoll instance.
class Client {
 public:
  Client() = default;
  ~Client() { Close(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool Connect(uint16_t port, std::string* error) {
    epoll_fd_ = epoll_create1(0);
    if (epoll_fd_ < 0) {
      *error = "epoll_create1 failed";
      return false;
    }
    conns_.resize(kConnections);
    for (int i = 0; i < kConnections; ++i) {
      Connection& c = conns_[static_cast<size_t>(i)];
      c.fd = socket(AF_INET, SOCK_STREAM, 0);
      if (c.fd < 0) {
        *error = "socket failed";
        return false;
      }
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (connect(c.fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
        *error = std::string("connect failed: ") + std::strerror(errno);
        return false;
      }
      const int one = 1;
      setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      const int flags = fcntl(c.fd, F_GETFL, 0);
      fcntl(c.fd, F_SETFL, flags | O_NONBLOCK);
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u32 = static_cast<uint32_t>(i);
      epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, c.fd, &ev);
    }
    return true;
  }

  void Close() {
    for (Connection& c : conns_) {
      if (c.fd >= 0) {
        close(c.fd);
        c.fd = -1;
      }
    }
    if (epoll_fd_ >= 0) {
      close(epoll_fd_);
      epoll_fd_ = -1;
    }
  }

  // Queues one request on connection `conn` (flushed by Flush()).
  void Queue(int conn, uint64_t id, uint32_t function_id) {
    Connection& c = conns_[static_cast<size_t>(conn)];
    faas::RequestFrame frame;
    frame.request_id = id;
    frame.function_id = function_id;
    const size_t at = c.out.size();
    c.out.resize(at + faas::kWireHeaderSize);
    faas::EncodeRequestTo(frame, c.out.data() + at);
    ++c.outstanding;
    ++books_.sent;
    ids_end_ = std::max(ids_end_, id + 1);
    if (id / 64 >= answered_.size()) {
      answered_.resize(id / 64 + 1 + answered_.size(), 0);
    }
  }

  // Writes as much pending output as the sockets take.
  bool Flush() {
    for (Connection& c : conns_) {
      while (c.out_sent < c.out.size()) {
        const ssize_t n = send(c.fd, c.out.data() + c.out_sent,
                               c.out.size() - c.out_sent, MSG_NOSIGNAL);
        if (n < 0) {
          if (errno == EAGAIN || errno == EWOULDBLOCK) {
            break;
          }
          if (errno == EINTR) {
            continue;
          }
          return false;
        }
        c.out_sent += static_cast<size_t>(n);
      }
      if (c.out_sent == c.out.size()) {
        c.out.clear();
        c.out_sent = 0;
      }
    }
    return true;
  }

  // Reads every available reply, calling on_reply(conn, reply, now_ns).
  // Waits up to timeout_ms for the first readable socket (0 = poll).
  template <class OnReply>
  bool Poll(int timeout_ms, OnReply on_reply) {
    epoll_event events[kConnections];
    const int ready = epoll_wait(epoll_fd_, events, kConnections, timeout_ms);
    if (ready < 0) {
      return errno == EINTR;
    }
    for (int e = 0; e < ready; ++e) {
      const int conn = static_cast<int>(events[e].data.u32);
      Connection& c = conns_[static_cast<size_t>(conn)];
      for (;;) {
        const ssize_t n = recv(c.fd, buffer_, sizeof(buffer_), 0);
        if (n < 0) {
          if (errno == EINTR) {
            continue;
          }
          if (errno == EAGAIN || errno == EWOULDBLOCK) {
            break;
          }
          return false;
        }
        if (n == 0) {
          return false;  // The server closed a connection mid-run.
        }
        const int64_t now = faas::MonotonicNowNs();
        c.decoder.Push(buffer_, static_cast<size_t>(n));
        faas::DecodedFrame frame;
        for (;;) {
          const faas::FrameDecoder::Result r = c.decoder.Next(&frame);
          if (r == faas::FrameDecoder::Result::kNeedMore) {
            break;
          }
          if (r == faas::FrameDecoder::Result::kError ||
              frame.type != faas::FrameType::kReply) {
            return false;
          }
          Account(c, frame.reply);
          on_reply(conn, frame.reply, now);
        }
        if (static_cast<size_t>(n) < sizeof(buffer_)) {
          break;
        }
      }
    }
    return true;
  }

  int64_t outstanding() const {
    int64_t total = 0;
    for (const Connection& c : conns_) {
      total += c.outstanding;
    }
    return total;
  }
  const ClientBooks& books() const { return books_; }

 private:
  void Account(Connection& c, const faas::ReplyFrame& reply) {
    ++books_.replies;
    --c.outstanding;
    if (reply.request_id >= ids_end_) {
      ++books_.unknown_replies;
      return;
    }
    uint64_t& word = answered_[reply.request_id / 64];
    const uint64_t bit = uint64_t{1} << (reply.request_id % 64);
    if ((word & bit) != 0) {
      ++books_.duplicate_replies;
      return;
    }
    word |= bit;
    if (reply.status == faas::ReplyStatus::kOk) {
      ++books_.ok;
      books_.ok_cold += reply.latency_class == faas::LatencyClass::kCold;
    } else {
      ++books_.not_ok;
    }
  }

  int epoll_fd_ = -1;
  std::vector<Connection> conns_;
  // Callers issue ids 0, 1, 2, ... in order, so every id below ids_end_
  // was sent; one bit per id records whether it was answered.
  uint64_t ids_end_ = 0;
  std::vector<uint64_t> answered_;
  ClientBooks books_;
  uint8_t buffer_[64 * 1024];
};

// Per-function cold / total counts as the client saw them.
struct FunctionTally {
  std::vector<int64_t> requests = std::vector<int64_t>(kFunctions, 0);
  std::vector<int64_t> cold = std::vector<int64_t>(kFunctions, 0);

  double ColdPercentile(double p) const {
    std::vector<double> pct;
    for (uint32_t f = 0; f < kFunctions; ++f) {
      if (requests[f] > 0) {
        pct.push_back(100.0 * static_cast<double>(cold[f]) /
                      static_cast<double>(requests[f]));
      }
    }
    return Percentile(pct, p);
  }
};

// Closed loop over every connection until `deadline_ns` (or until `limit`
// requests were sent, if positive), keeping `window` requests in flight per
// connection; returns ok replies.  `hot_only` draws from the always-warm
// head of the popularity; `spin` polls instead of sleeping between replies.
int64_t ClosedLoop(Client& client, faas::Rng& rng, const Popularity& pop,
                   bool hot_only, bool spin, int window, uint64_t& next_id,
                   int64_t deadline_ns, int64_t limit, bool* ok) {
  int64_t sent = 0;
  int64_t ok_replies = 0;
  const auto send_one = [&](int conn) {
    client.Queue(conn, next_id++,
                 hot_only ? pop.SampleHot(rng) : pop.Sample(rng));
    ++sent;
  };
  for (int w = 0; w < window; ++w) {
    for (int c = 0; c < kConnections; ++c) {
      send_one(c);
    }
  }
  *ok = client.Flush();
  while (*ok && client.outstanding() > 0) {
    const auto on_reply = [&](int conn, const faas::ReplyFrame& reply,
                              int64_t now) {
      ok_replies += reply.status == faas::ReplyStatus::kOk;
      if (now < deadline_ns && (limit <= 0 || sent < limit)) {
        send_one(conn);
      }
    };
    *ok = client.Poll(spin ? 0 : 1, on_reply);
    *ok = *ok && client.Flush();
  }
  return ok_replies;
}

// A server and the client connected to it.  The client is declared last so
// its sockets close before the server stops.
struct Endpoint {
  std::unique_ptr<faas::ServeServer> server;
  std::unique_ptr<Client> client;
  uint64_t next_id = 0;

  bool Start(const faas::ServeConfig& config, std::string* error) {
    client.reset();
    server = std::make_unique<faas::ServeServer>(config);
    client = std::make_unique<Client>();
    next_id = 0;
    return server->Start(error) && client->Connect(server->port(), error);
  }
  // Closes the client, drains and stops the server; returns final stats.
  faas::ServeStats Stop() {
    client->Close();
    server->Stop();
    return server->Snapshot();
  }
};

// Percentile (ms) of the samples a cumulative recorder gained between two
// snapshots, bucket midpoints as LatencyRecorder::PercentileNs reports.
double PercentileBetweenMs(const faas::LatencyRecorder& before,
                           const faas::LatencyRecorder& after, double p,
                           int64_t* samples) {
  std::map<int64_t, std::pair<int64_t, int64_t>> diff;  // lo -> (hi, count)
  for (const auto& b : after.NonZeroBuckets()) {
    diff[b.lo_ns] = {b.hi_ns, b.count};
  }
  for (const auto& b : before.NonZeroBuckets()) {
    diff[b.lo_ns].second -= b.count;
  }
  int64_t total = 0;
  for (const auto& [lo, hc] : diff) {
    total += hc.second;
  }
  *samples = total;
  const auto rank = static_cast<int64_t>(std::ceil(p / 100.0 *
                                                   static_cast<double>(total)));
  int64_t seen = 0;
  for (const auto& [lo, hc] : diff) {
    seen += hc.second;
    if (seen >= std::max<int64_t>(rank, 1)) {
      return static_cast<double>(lo + hc.first) / 2.0 / 1e6;
    }
  }
  return 0.0;
}

// Puts the client and each server's event loop on CPUs of their own.  The
// client spins, and the scheduler prefers to wake a thread on its waker's
// CPU: a server loop woken there waited for the client's time slice to
// end, and 10% of phase A's requests came back 1-5 ms late on the baseline
// VM (p99 4 ms instead of 0.1 ms).  A thread inherits the affinity of the
// thread that creates it, so a server started under Pin(kOpenServer) runs
// its loop on that CPU.  With fewer than three CPUs nothing is pinned.
class CpuPinning {
 public:
  enum Role { kOpenServer = 0, kClosedServer = 1, kClient = 2 };

  // Restores the process's original affinity when it goes out of scope.
  class Scope {
   public:
    Scope(const cpu_set_t* restore, int cpu) : restore_(restore) {
      if (cpu >= 0) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        sched_setaffinity(0, sizeof(one), &one);
      } else {
        restore_ = nullptr;
      }
    }
    ~Scope() { Release(); }
    void Release() {
      if (restore_ != nullptr) {
        sched_setaffinity(0, sizeof(*restore_), restore_);
        restore_ = nullptr;
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    const cpu_set_t* restore_;
  };

  CpuPinning() {
    CPU_ZERO(&all_);
    sched_getaffinity(0, sizeof(all_), &all_);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &all_)) {
        cpus_.push_back(cpu);
      }
    }
  }

  // The CPUs of `roles`, for a probe that runs where they run; empty when
  // nothing is pinned.
  std::vector<int> Cpus(std::initializer_list<Role> roles) const {
    std::vector<int> out;
    for (Role role : roles) {
      if (Cpu(role) >= 0) {
        out.push_back(Cpu(role));
      }
    }
    return out;
  }

  // Pins the calling thread to `role`'s CPU for the returned scope.
  Scope Pin(Role role) const { return Scope(&all_, Cpu(role)); }

  // The CPU of each role, for the configuration record.
  std::string Describe() const {
    if (Cpu(kClient) < 0) {
      return "none (fewer than 3 CPUs)";
    }
    return "open-loop server cpu " + std::to_string(Cpu(kOpenServer)) +
           ", closed-loop server cpu " + std::to_string(Cpu(kClosedServer)) +
           ", client cpu " + std::to_string(Cpu(kClient));
  }

 private:
  int Cpu(Role role) const {
    if (cpus_.size() < 3) {
      return -1;
    }
    return role == kClient ? cpus_.back() : cpus_[static_cast<size_t>(role)];
  }

  cpu_set_t all_;
  std::vector<int> cpus_;
};

// Socketless replay of phase A's frames through the serving stages, once
// plain and once with a clock around every stage; returns ns per request.
struct StageCosts {
  double decode_ns = 0.0;
  double admit_ns = 0.0;
  double wheel_ns = 0.0;
  double encode_ns = 0.0;
  double plain_ns = 0.0;   // Whole replay without stage clocks, per request.
  double traced_ns = 0.0;  // Whole replay with stage clocks, per request.
};

struct ReplyCollector {
  std::vector<faas::ReplyFrame> replies;
  static void OnReply(void* ctx, uint64_t, const faas::ReplyFrame& reply) {
    static_cast<ReplyCollector*>(ctx)->replies.push_back(reply);
  }
};

StageCosts ReplayStages(const faas::AdmissionBridgeConfig& bridge_config,
                        const std::vector<uint8_t>& wire,
                        const std::vector<int64_t>& due_ns, int rounds) {
  StageCosts costs;
  const size_t n = due_ns.size();
  std::vector<double> plain;
  std::vector<double> traced;
  std::vector<double> decode;
  std::vector<double> admit;
  std::vector<double> wheel;
  std::vector<double> encode;
  std::vector<faas::RequestFrame> frames(n);
  std::vector<uint8_t> out(n * faas::kWireHeaderSize);
  for (int round = 0; round < rounds; ++round) {
    // Plain: decode, admit, advance and encode interleaved, no clocks.
    {
      faas::TimerWheel timers;
      ReplyCollector collector;
      collector.replies.reserve(n);
      faas::AdmissionBridge bridge(bridge_config, &timers,
                                   &ReplyCollector::OnReply, &collector);
      bridge.StartClock(due_ns.front());
      faas::FrameDecoder decoder;
      const int64_t t0 = NowNs();
      decoder.Push(wire.data(), wire.size());
      faas::DecodedFrame frame;
      size_t i = 0;
      size_t encoded = 0;
      while (decoder.Next(&frame) == faas::FrameDecoder::Result::kFrame) {
        bridge.OnRequest(1, frame.request, due_ns[i]);
        timers.Advance(due_ns[i]);
        for (; encoded < collector.replies.size(); ++encoded) {
          faas::EncodeReplyTo(collector.replies[encoded],
                              out.data() + (encoded % n) *
                                               faas::kWireHeaderSize);
        }
        ++i;
      }
      plain.push_back(static_cast<double>(NowNs() - t0) /
                      static_cast<double>(n));
    }
    // Traced: the same work, stage by stage.  Decode and encode are timed
    // as blocks; admission and the wheel are interleaved, so each call is
    // timed (clock reads included).
    {
      faas::TimerWheel timers;
      ReplyCollector collector;
      collector.replies.reserve(n);
      faas::AdmissionBridge bridge(bridge_config, &timers,
                                   &ReplyCollector::OnReply, &collector);
      bridge.StartClock(due_ns.front());
      faas::FrameDecoder decoder;
      const int64_t t0 = NowNs();
      decoder.Push(wire.data(), wire.size());
      faas::DecodedFrame frame;
      size_t i = 0;
      while (decoder.Next(&frame) == faas::FrameDecoder::Result::kFrame) {
        frames[i++] = frame.request;
      }
      const int64_t t1 = NowNs();
      int64_t admit_total = 0;
      int64_t wheel_total = 0;
      for (size_t k = 0; k < n; ++k) {
        const int64_t a = NowNs();
        bridge.OnRequest(1, frames[k], due_ns[k]);
        const int64_t b = NowNs();
        timers.Advance(due_ns[k]);
        const int64_t c = NowNs();
        admit_total += b - a;
        wheel_total += c - b;
      }
      const int64_t t2 = NowNs();
      for (size_t k = 0; k < collector.replies.size(); ++k) {
        faas::EncodeReplyTo(collector.replies[k],
                            out.data() + (k % n) * faas::kWireHeaderSize);
      }
      const int64_t t3 = NowNs();
      const double dn = static_cast<double>(n);
      decode.push_back(static_cast<double>(t1 - t0) / dn);
      admit.push_back(static_cast<double>(admit_total) / dn);
      wheel.push_back(static_cast<double>(wheel_total) / dn);
      encode.push_back(static_cast<double>(t3 - t2) /
                       static_cast<double>(std::max<size_t>(
                           1, collector.replies.size())));
      traced.push_back(static_cast<double>(t3 - t0) / dn);
    }
  }
  costs.decode_ns = Median(decode);
  costs.admit_ns = Median(admit);
  costs.wheel_ns = Median(wheel);
  costs.encode_ns = Median(encode);
  costs.plain_ns = Median(plain);
  costs.traced_ns = Median(traced);
  return costs;
}

}  // namespace

Report RunServeLoopback(const RunParams& params) {
  Report report;
  const faas::ServeConfig open_config = OpenLoopConfig();
  const faas::ServeConfig closed_config = ClosedLoopConfig();
  const Popularity popularity;
  report.Note("loops", "1 per server, 2 servers");
  report.Note("connections", std::to_string(kConnections));
  report.Note("client",
              "1 thread; open loop 20000 req/s, then closed loop with 16 in "
              "flight per connection");
  report.Note("functions", "2000, Zipf 1.0, hot set 64; keep-alive 1400 ms; "
                           "service 200 us (phase A) / 0 (phase B); cold "
                           "+10 ms");

  faas::Rng rng(MixSeed(params.seed, 21));
  // Set-up: start both servers and connect the client, repeated; the
  // median is reported, scaled to the reference host (pb/probe.h).  The
  // warm-up that follows fills the warm pools with configured cold starts
  // (sleeps, not the program's own work), so it is not part of the set-up
  // time.
  const CpuPinning pinning;
  report.Note("pinning", pinning.Describe());
  // The loops sleep in epoll until their next timer tick.  With the
  // default 50 us timer slack the kernel woke them up to 50 us late, which
  // added ~20 us to phase A's median; the loops inherit this thread's
  // slack, so set it to 1 ns for the servers started below.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  Endpoint a;
  Endpoint b;
  std::string setup_error;
  const ScaledTimes setup =
      RepeatScaled(HostProbe(1), 0.0, kSetupRepeats, [&] {
        const int64_t t0 = NowNs();
        std::string error;
        bool started = false;
        {
          const CpuPinning::Scope pinned =
              pinning.Pin(CpuPinning::kOpenServer);
          started = a.Start(open_config, &error);
        }
        if (started) {
          const CpuPinning::Scope pinned =
              pinning.Pin(CpuPinning::kClosedServer);
          started = b.Start(closed_config, &error);
        }
        if (!started) {
          setup_error = "serve set-up failed: " + error;
        }
        return static_cast<double>(NowNs() - t0) / 1e6;
      });
  if (!setup_error.empty()) {
    report.Fail(setup_error);
    return report;
  }
  CpuPinning::Scope client_cpu = pinning.Pin(CpuPinning::kClient);
  bool ok = true;
  ClosedLoop(*a.client, rng, popularity, /*hot_only=*/false, /*spin=*/false,
             /*window=*/1, a.next_id, std::numeric_limits<int64_t>::max(),
             kWarmupRequests, &ok);
  ClosedLoop(*b.client, rng, popularity, /*hot_only=*/true, /*spin=*/true,
             kClosedLoopWindow, b.next_id,
             std::numeric_limits<int64_t>::max(), kWarmupRequests, &ok);

  // Phase A: seeded Poisson schedule, timed from each request's due time.
  const double phase_seconds = params.seconds * 0.45;
  const auto count_a =
      static_cast<size_t>(std::max(1000.0, kOpenLoopRps * phase_seconds));
  std::vector<int64_t> offset_ns(count_a);
  std::vector<uint32_t> fn_a(count_a);
  {
    double t = 0.0;
    for (size_t i = 0; i < count_a; ++i) {
      t += rng.NextExponential(kOpenLoopRps);
      offset_ns[i] = static_cast<int64_t>(t * 1e9);
      fn_a[i] = popularity.Sample(rng);
    }
  }
  Client& client_a = *a.client;
  const uint64_t first_a = a.next_id;
  std::vector<int64_t> due(count_a);
  std::vector<PhaseALatency> latency(count_a);
  std::vector<double> lag_ms(count_a);
  FunctionTally tally;
  const faas::ServeStats before_a = a.server->Snapshot();
  const int64_t start = faas::MonotonicNowNs() + 1'000'000;
  const auto on_reply_a = [&](int, const faas::ReplyFrame& reply,
                              int64_t now) {
    const size_t i = reply.request_id - first_a;
    const uint32_t f = fn_a[i];
    ++tally.requests[f];
    if (reply.status == faas::ReplyStatus::kOk) {
      const bool cold = reply.latency_class == faas::LatencyClass::kCold;
      latency[i].total_ms = static_cast<double>(now - due[i]) / 1e6;
      latency[i].execution_ms = static_cast<double>(ExecutionNs(cold)) / 1e6;
      tally.cold[f] += cold;
    }
  };
  size_t next = 0;
  while (ok && next < count_a) {
    const int64_t now = faas::MonotonicNowNs();
    bool queued = false;
    while (next < count_a && start + offset_ns[next] <= now) {
      due[next] = start + offset_ns[next];
      lag_ms[next] = static_cast<double>(now - due[next]) / 1e6;
      client_a.Queue(static_cast<int>(next % kConnections), a.next_id++,
                     fn_a[next]);
      ++next;
      queued = true;
    }
    if (queued) {
      ok = client_a.Flush();
    }
    ok = ok && client_a.Poll(0, on_reply_a);
  }
  const int64_t drain_deadline = faas::MonotonicNowNs() + 5'000'000'000;
  while (ok && client_a.outstanding() > 0 &&
         faas::MonotonicNowNs() < drain_deadline) {
    ok = client_a.Flush() && client_a.Poll(1, on_reply_a);
  }
  const faas::ServeStats after_a = a.server->Snapshot();

  // Phase B: closed loop at kConnections, zero think time, in chunks of
  // a fixed number of requests with the host probe between them
  // (pb/probe.h), which runs on the client's and the server's CPUs.
  client_cpu.Release();
  std::vector<int64_t> ok_per_chunk;
  const ScaledTimes chunks = RepeatScaled(
      HostProbe(2, pinning.Cpus({CpuPinning::kClient,
                                 CpuPinning::kClosedServer})),
      phase_seconds, 3, [&] {
        const CpuPinning::Scope pinned = pinning.Pin(CpuPinning::kClient);
        const int64_t b0 = NowNs();
        ok_per_chunk.push_back(ClosedLoop(
            *b.client, rng, popularity, /*hot_only=*/true, /*spin=*/true,
            kClosedLoopWindow, b.next_id, std::numeric_limits<int64_t>::max(),
            kClosedLoopChunk, &ok));
        return static_cast<double>(NowNs() - b0) / 1e6;
      });
  std::vector<double> closed_rps;
  int64_t ok_b = 0;
  for (size_t i = 0; i < ok_per_chunk.size(); ++i) {
    closed_rps.push_back(static_cast<double>(ok_per_chunk[i]) /
                         (chunks.scaled_ms[i] / 1e3));
    ok_b += ok_per_chunk[i];
  }

  const ClientBooks books_a = a.client->books();
  const ClientBooks books_b = b.client->books();
  const faas::ServeStats final_a = a.Stop();
  const faas::ServeStats final_b = b.Stop();
  if (!ok) {
    report.Fail("client connection failed during the run");
  }
  for (std::string& v : CheckServeBooks(books_a, final_a)) {
    report.Fail("open-loop server: " + v);
  }
  for (std::string& v : CheckServeBooks(books_b, final_b)) {
    report.Fail("closed-loop server: " + v);
  }
  report.attempted = books_a.sent + books_b.sent;
  report.failed = report.attempted - books_a.ok - books_b.ok;

  const auto n_a = static_cast<int64_t>(count_a);
  const int64_t served_a = after_a.bridge.served() - before_a.bridge.served();
  const int64_t cold_a =
      after_a.bridge.served_cold - before_a.bridge.served_cold;
  const double cold_pct_a = 100.0 * static_cast<double>(cold_a) /
                            static_cast<double>(std::max<int64_t>(1, served_a));
  std::printf("phase A: %zu requests at %.0f req/s, %.2f%% cold; phase B: "
              "%lld ok in %zu chunks\n",
              count_a, kOpenLoopRps, cold_pct_a,
              static_cast<long long>(ok_b), chunks.raw_ms.size());
  setup.Print("set-up");
  chunks.Print("phase B chunk");

  if (!params.trace) {
    report.Add("setup_s", Median(setup.scaled_ms) / 1e3, "s", kSetupRepeats);
    report.Add("peak_rss_mb", PeakRssMb(), "MB", 1);
    report.Add("invocations_per_s", Median(closed_rps), "1/s",
               static_cast<int64_t>(closed_rps.size()));
    report.Add("cold_start_p75_pct", tally.ColdPercentile(75.0), "%",
               static_cast<int64_t>(kFunctions));
    report.Add("p50_ms", PathMsAtPercentile(latency, 50.0), "ms", n_a);
    report.Add("p99_ms", PathMsAtPercentile(latency, 99.0), "ms", n_a);
    return report;
  }

  // Server-side view of phase A: the recorder is cumulative, so phase A is
  // the difference of the snapshots around it.
  int64_t server_samples = 0;
  const double server_p50 = PercentileBetweenMs(
      before_a.latency, after_a.latency, 50.0, &server_samples);
  const double server_p99 = PercentileBetweenMs(
      before_a.latency, after_a.latency, 99.0, &server_samples);
  report.Add("serve.server_p50_ms", server_p50, "ms", server_samples);
  report.Add("serve.server_p99_ms", server_p99, "ms", server_samples);
  report.Add("serve.queue_wait_mean_ms", final_a.ledger.MeanQueueWaitMs(),
             "ms", final_a.ledger.drained);
  report.Add("serve.cold_pct", cold_pct_a, "%", served_a);
  report.Add("client.lag_p50_ms", Percentile(lag_ms, 50.0), "ms", n_a);
  report.Add("client.lag_p99_ms", Percentile(lag_ms, 99.0), "ms", n_a);

  // Socketless replay of phase A's frames on phase B's (inline) path.
  std::vector<uint8_t> wire(count_a * faas::kWireHeaderSize);
  std::vector<int64_t> virtual_due(count_a);
  for (size_t i = 0; i < count_a; ++i) {
    faas::RequestFrame frame;
    frame.request_id = i;
    frame.function_id = fn_a[i];
    faas::EncodeRequestTo(frame, wire.data() + i * faas::kWireHeaderSize);
    virtual_due[i] = offset_ns[i] + 1'000'000'000;
  }
  const StageCosts stages =
      ReplayStages(closed_config.bridge, wire, virtual_due, 5);
  report.Add("serve.decode_ns", stages.decode_ns, "ns", n_a);
  report.Add("serve.admit_ns", stages.admit_ns, "ns", n_a);
  report.Add("serve.wheel_ns", stages.wheel_ns, "ns", n_a);
  report.Add("serve.encode_ns", stages.encode_ns, "ns", n_a);
  report.Add("trace.overhead_pct",
             100.0 * (stages.traced_ns - stages.plain_ns) / stages.plain_ns,
             "%", 5);
  std::printf("account: socketless path %.1f ns/request untraced; traced "
              "%.1f = decode %.1f + admit %.1f + wheel %.1f + encode %.1f + "
              "remainder %.1f\n",
              stages.plain_ns, stages.traced_ns, stages.decode_ns,
              stages.admit_ns, stages.wheel_ns, stages.encode_ns,
              stages.traced_ns - stages.decode_ns - stages.admit_ns -
                  stages.wheel_ns - stages.encode_ns);
  return report;
}

}  // namespace perfbench
