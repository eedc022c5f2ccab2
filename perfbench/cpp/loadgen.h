// An open-loop HTTP/1.1 load generator: independent readers, modelled as one
// schedule of requests due at fixed intervals, sent whether or not earlier
// requests have been answered.
//
// One thread drives up to N keep-alive connections through non-blocking
// sockets. A request that falls due goes out on an idle connection if there
// is one, and is pipelined onto the least busy connection otherwise, so a
// slow response never delays the schedule. Each request's latency runs from
// its due time, not its send time: when the generator itself runs late, or
// a stalled server holds a connection, the wait counts against every
// request it delayed. How late the schedule ran is recorded as lag.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace perfbench {

struct RequestSample {
  int phase = 0;
  double due_ms = 0.0;   // relative to the generator's origin
  double sent_ms = 0.0;  // when the request was handed to its connection
  double done_ms = 0.0;  // when the whole response had arrived
  int status = 0;        // HTTP status; 0 when no response arrived
  bool error = false;    // connection failed or closed before the response
  [[nodiscard]] double latency_ms() const noexcept { return done_ms - due_ms; }
};

// A request misses the latency limit when it failed, was refused (any
// status but 200, 503 included) or completed after the limit.
[[nodiscard]] bool is_miss(const RequestSample& sample, double limit_ms) noexcept;

struct PhaseReport {
  std::size_t attempted = 0;
  std::size_t errors = 0;    // no response, or a status other than 200 and 503
  std::size_t rejected = 0;  // 503
  std::size_t misses = 0;    // is_miss()
  Summary latency;           // over requests that got a response, from due time
};

[[nodiscard]] PhaseReport report_phase(const std::vector<RequestSample>& samples, int phase,
                                       double limit_ms);

struct LoadPhase {
  double rate_per_s = 1000.0;
  // Requests to schedule at most; scheduling also stops at the first due
  // time at which keep_going (if set) returns false.
  std::size_t max_requests = static_cast<std::size_t>(-1);
  std::function<bool()> keep_going;
  // Path of the phase's i-th request.
  std::function<std::string(std::uint64_t)> target;
};

class OpenLoopGenerator {
 public:
  // `parent_span` is the span request spans are recorded under.
  OpenLoopGenerator(std::uint16_t port, unsigned connections, Tracer& tracer,
                    std::uint64_t parent_span = 0);
  ~OpenLoopGenerator();
  OpenLoopGenerator(const OpenLoopGenerator&) = delete;
  OpenLoopGenerator& operator=(const OpenLoopGenerator&) = delete;

  // Runs one phase on the calling thread, request i due at
  // start + i / rate. Returns when every request it sent has been answered
  // or has failed; requests still unanswered 10 s after the last was due
  // fail.
  void run(const LoadPhase& phase, int phase_index, Clock::time_point start);

  [[nodiscard]] const std::vector<RequestSample>& samples() const noexcept { return samples_; }
  [[nodiscard]] double lag_ms_max() const noexcept { return lag_ms_max_; }

 private:
  struct Connection {
    int fd = -1;
    std::string out;
    std::size_t out_sent = 0;
    std::string in;
    std::vector<std::size_t> pending;  // sample indices, oldest first
    std::size_t pending_head = 0;
    [[nodiscard]] std::size_t in_flight() const noexcept { return pending.size() - pending_head; }
  };

  bool ensure_connected(Connection& conn);
  void fail_pending(Connection& conn, Clock::time_point now);
  void flush(Connection& conn, Clock::time_point now);
  void receive(Connection& conn, Clock::time_point now);
  void complete(std::size_t index, int status, bool error, Clock::time_point now);
  [[nodiscard]] double rel_ms(Clock::time_point t) const { return ms_between(origin_, t); }

  std::uint16_t port_;
  std::vector<Connection> connections_;
  std::size_t next_connection_ = 0;
  Tracer& tracer_;
  std::uint64_t parent_span_;
  Clock::time_point origin_;
  std::vector<RequestSample> samples_;
  double lag_ms_max_ = 0.0;
};

}  // namespace perfbench
