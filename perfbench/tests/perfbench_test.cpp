// Tests of the benchmark's own logic: the percentile rule, self time over
// overlapping child spans, the open-loop generator's latency-from-due-time
// and miss accounting, and the digest gate.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "gate.h"
#include "loadgen.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

TEST(PercentileRule, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(highest_supported_percentile(0), 0.0);
  EXPECT_EQ(highest_supported_percentile(19), 0.0);
  EXPECT_EQ(highest_supported_percentile(20), 50.0);
  EXPECT_EQ(highest_supported_percentile(99), 50.0);
  EXPECT_EQ(highest_supported_percentile(100), 90.0);
  EXPECT_EQ(highest_supported_percentile(999), 90.0);
  EXPECT_EQ(highest_supported_percentile(1000), 99.0);
  EXPECT_EQ(highest_supported_percentile(9999), 99.0);
  EXPECT_EQ(highest_supported_percentile(10000), 99.9);
  EXPECT_EQ(samples_beyond(1000, 99.0), 10U);
  EXPECT_EQ(samples_beyond(999, 99.0), 9U);
}

TEST(PercentileRule, SummaryReportsCountAndNearestRank) {
  std::vector<double> samples;
  for (int i = 1; i <= 1000; ++i) samples.push_back(i);
  const Summary summary = summarize(samples);
  EXPECT_EQ(summary.n, 1000U);
  EXPECT_EQ(summary.p50, 500.0);
  EXPECT_EQ(summary.p99, 990.0);
  EXPECT_TRUE(summary.p99_supported);
  EXPECT_EQ(summary.top_percentile, 99.0);
  EXPECT_EQ(summary.top_value, 990.0);
  EXPECT_EQ(percentile_label(summary.top_percentile), "p99");

  samples.pop_back();
  EXPECT_FALSE(summarize(samples).p99_supported);
  EXPECT_EQ(summarize(samples).top_percentile, 90.0);
}

TEST(PercentileRule, MedianUsesBothMiddleValues) {
  EXPECT_EQ(median({}), 0.0);
  EXPECT_EQ(median({3.0}), 3.0);
  EXPECT_EQ(median({4.0, 1.0}), 2.5);
  EXPECT_EQ(median({5.0, 1.0, 3.0}), 3.0);
}

SpanRecord span(std::uint64_t id, std::uint64_t parent, std::int64_t start, std::int64_t end,
                std::uint64_t thread, std::string name = "child") {
  SpanRecord record;
  record.id = id;
  record.parent = parent;
  record.name = std::move(name);
  record.start_ns = start;
  record.end_ns = end;
  record.thread = thread;
  return record;
}

TEST(SelfTime, SubtractsUnionOfOverlappingChildrenOnSeveralThreads) {
  const SpanRecord parent = span(1, 0, 0, 100, 1, "parent");
  // Two workers overlap on [30, 40]; a third child runs past the parent's
  // end and only its covered part counts.
  const std::vector<SpanRecord> children = {span(2, 1, 10, 40, 2), span(3, 1, 30, 60, 3),
                                            span(4, 1, 90, 120, 4)};
  EXPECT_EQ(self_time_ns(parent, children), 100 - (50 + 10));
  EXPECT_EQ(self_time_ns(parent, {}), 100);
  // Nested duplicates cover nothing twice.
  EXPECT_EQ(self_time_ns(parent, {span(5, 1, 0, 100, 2), span(6, 1, 20, 30, 3)}), 0);
}

TEST(SelfTime, TotalsByNameFollowParentLinks) {
  const std::vector<SpanRecord> spans = {span(1, 0, 0, 100, 1, "run"), span(2, 1, 0, 60, 2, "work"),
                                         span(3, 1, 40, 80, 3, "work")};
  const auto totals = totals_by_name(spans);
  EXPECT_EQ(totals.at("run").total_ns, 100);
  EXPECT_EQ(totals.at("run").self_ns, 20);
  EXPECT_EQ(totals.at("work").count, 2U);
  EXPECT_EQ(totals.at("work").total_ns, 100);
  EXPECT_EQ(totals.at("work").self_ns, 100);
}

TEST(SelfTime, TracerRecordsOnlyWhenEnabled) {
  Tracer off(false);
  { Span s(off, "x"); }
  EXPECT_TRUE(off.spans().empty());
  Tracer on(true);
  std::uint64_t parent = 0;
  {
    Span outer(on, "outer");
    parent = outer.id();
    std::thread worker([&on, parent] { Span inner(on, "inner", parent); });
    worker.join();
  }
  const auto spans = on.spans();
  ASSERT_EQ(spans.size(), 2U);
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[0].parent, parent);
  EXPECT_NE(spans[0].thread, spans[1].thread);
}

// A one-connection HTTP server that answers every request with a fixed
// status, after holding each connection's first request for `stall`.
class StubServer {
 public:
  StubServer(int status, std::chrono::milliseconds stall) : status_(status), stall_(stall) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
    ::listen(listen_fd_, 8);
    socklen_t length = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &length);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { serve(); });
  }
  ~StubServer() {
    stop_ = true;
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    thread_.join();
  }
  StubServer(const StubServer&) = delete;
  StubServer& operator=(const StubServer&) = delete;
  [[nodiscard]] std::uint16_t port() const { return port_; }

 private:
  void serve() {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    std::this_thread::sleep_for(stall_);
    std::string buffer;
    char chunk[4096];
    const std::string body = "ok";
    const std::string response = "HTTP/1.1 " + std::to_string(status_) +
                                 " X\r\nContent-Length: " + std::to_string(body.size()) +
                                 "\r\n\r\n" + body;
    timeval timeout{0, 100000};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    while (!stop_) {
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n == 0) break;
      if (n < 0) continue;
      buffer.append(chunk, static_cast<std::size_t>(n));
      for (std::size_t end; (end = buffer.find("\r\n\r\n")) != std::string::npos;) {
        buffer.erase(0, end + 4);
        ::send(fd, response.data(), response.size(), MSG_NOSIGNAL);
      }
    }
    ::close(fd);
  }

  int status_;
  std::chrono::milliseconds stall_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

LoadPhase fixed_phase(double rate, std::size_t count) {
  LoadPhase phase;
  phase.rate_per_s = rate;
  phase.max_requests = count;
  phase.target = [](std::uint64_t) { return std::string("/x"); };
  return phase;
}

TEST(OpenLoop, LatencyRunsFromDueTimeUnderAStalledServer) {
  StubServer server(200, std::chrono::milliseconds(60));
  Tracer tracer(true);
  OpenLoopGenerator generator(server.port(), 1, tracer);
  generator.run(fixed_phase(1000.0, 20), 0, Clock::now());
  const auto& samples = generator.samples();
  ASSERT_EQ(samples.size(), 20U);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    // Pipelined onto the stalled connection: sent on time, answered after
    // the stall, so each latency covers the wait since its due time.
    EXPECT_EQ(samples[i].status, 200);
    EXPECT_LT(samples[i].sent_ms - samples[i].due_ms, 5.0);
    EXPECT_GE(samples[i].latency_ms(), 60.0 - 1.0 * i - 2.0) << i;
    EXPECT_DOUBLE_EQ(samples[i].latency_ms(), samples[i].done_ms - samples[i].due_ms);
  }
  const PhaseReport report = report_phase(samples, 0, 1.0);
  EXPECT_EQ(report.attempted, 20U);
  EXPECT_EQ(report.misses, 20U);
  EXPECT_EQ(report.errors, 0U);
  EXPECT_EQ(tracer.spans().size(), 20U);
  EXPECT_EQ(tracer.spans().front().name, "http.request");
}

TEST(OpenLoop, LateScheduleCountsAsLagAndLatency) {
  StubServer server(200, std::chrono::milliseconds(0));
  Tracer tracer(false);
  OpenLoopGenerator generator(server.port(), 1, tracer);
  // The schedule started 50 ms ago: every request is already overdue.
  generator.run(fixed_phase(1000.0, 10), 0, Clock::now() - std::chrono::milliseconds(50));
  EXPECT_GE(generator.lag_ms_max(), 49.0);
  ASSERT_EQ(generator.samples().size(), 10U);
  for (const RequestSample& sample : generator.samples()) {
    EXPECT_EQ(sample.status, 200);
    EXPECT_GE(sample.latency_ms(), 40.0);
  }
}

TEST(MissAccounting, ErrorsRefusalsAndSlowResponsesAllMiss) {
  auto sample = [](int status, bool error, double latency) {
    RequestSample s;
    s.due_ms = 10.0;
    s.sent_ms = 10.0;
    s.done_ms = 10.0 + latency;
    s.status = status;
    s.error = error;
    return s;
  };
  const std::vector<RequestSample> samples = {
      sample(200, false, 0.5),  // hit
      sample(200, false, 1.0),  // exactly at the limit: hit
      sample(200, false, 1.5),  // slow
      sample(503, false, 0.1),  // refused
      sample(404, false, 0.1),  // wrong answer
      sample(0, true, 0.1),     // connection failed
  };
  EXPECT_FALSE(is_miss(samples[0], 1.0));
  EXPECT_FALSE(is_miss(samples[1], 1.0));
  EXPECT_TRUE(is_miss(samples[2], 1.0));
  EXPECT_TRUE(is_miss(samples[3], 1.0));
  EXPECT_TRUE(is_miss(samples[4], 1.0));
  EXPECT_TRUE(is_miss(samples[5], 1.0));
  const PhaseReport report = report_phase(samples, 0, 1.0);
  EXPECT_EQ(report.attempted, 6U);
  EXPECT_EQ(report.misses, 4U);
  EXPECT_EQ(report.rejected, 1U);
  EXPECT_EQ(report.errors, 2U);
  EXPECT_EQ(report.latency.n, 5U);  // the failed connection has no latency
  EXPECT_EQ(report_phase(samples, 1, 1.0).attempted, 0U);
}

TEST(MissAccounting, RefusedConnectionIsAnError) {
  // Bind a port, then close it: nothing listens there.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  socklen_t length = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &length);
  ::close(fd);
  Tracer tracer(false);
  OpenLoopGenerator generator(ntohs(addr.sin_port), 1, tracer);
  generator.run(fixed_phase(1000.0, 3), 0, Clock::now());
  const PhaseReport report = report_phase(generator.samples(), 0, 1.0);
  EXPECT_EQ(report.attempted, 3U);
  EXPECT_EQ(report.errors, 3U);
  EXPECT_EQ(report.misses, 3U);
}

TEST(DigestGate, Md5MatchesReferenceVectors) {
  EXPECT_EQ(md5_hex(""), "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(md5_hex("abc"), "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(md5_hex("The quick brown fox jumps over the lazy dog"),
            "9e107d9d372bb6826bd81d3542a419d6");
  // Lengths around the 56- and 64-byte padding boundaries.
  EXPECT_EQ(md5_hex(std::string(55, 'a')), "ef1772b6dff9a122358552954ad0df65");
  EXPECT_EQ(md5_hex(std::string(56, 'a')), "3b0c8ac703f828b04c6c197006d17218");
  EXPECT_EQ(md5_hex(std::string(64, 'a')), "014842d480b571495a4a0363793f7367");
}

TEST(DigestGate, RejectsAReportWithOneChangedByte) {
  const std::string report = "== report ==\n| a | b |\n|---|---|\n| 1 | 2 |\n";
  const std::string golden = md5_hex(report);
  Gate accepts;
  accepts.expect_digest(report, golden, "report");
  accepts.expect_same(report, report, "report");
  EXPECT_TRUE(accepts.passed());

  for (std::size_t at = 0; at < report.size(); ++at) {
    std::string changed = report;
    changed[at] = static_cast<char>(changed[at] ^ 0x01);
    Gate gate;
    gate.expect_digest(changed, golden, "report");
    gate.expect_same(report, changed, "report");
    ASSERT_FALSE(gate.passed()) << at;
    ASSERT_EQ(gate.failures().size(), 2U);
    EXPECT_NE(gate.failures()[1].find("byte " + std::to_string(at)), std::string::npos);
  }
}

TEST(DigestGate, OutputPinChecksGoldenAtSeedZeroAndRepeatsPerSeed) {
  const std::string report = "report at seed 0";
  OutputPin pin("report", md5_hex(report));
  Gate gate;
  pin.check(gate, 0, report);
  pin.check(gate, 1, "report at seed 1");  // no golden for other seeds
  pin.check(gate, 0, report);
  pin.check(gate, 1, "report at seed 1");
  EXPECT_TRUE(gate.passed());

  pin.check(gate, 1, "report at seed 1!");  // a repeat that differs
  ASSERT_EQ(gate.failures().size(), 1U);
  EXPECT_NE(gate.failures()[0].find("data seed 1"), std::string::npos);

  OutputPin wrong("report", md5_hex("something else"));
  Gate rejects;
  wrong.check(rejects, 0, report);
  EXPECT_FALSE(rejects.passed());
}

}  // namespace
}  // namespace perfbench
