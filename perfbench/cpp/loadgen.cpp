#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <fcntl.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <ctime>
#include <string_view>

namespace perfbench {
namespace {

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  return fd;
}

// Parses the response at the front of `buffer`. Returns its total length
// (head + Content-Length body) and sets `status`, or 0 while incomplete.
// A head the generator cannot parse yields status 0 and consumes the buffer.
std::size_t parse_response(std::string_view buffer, int& status) {
  const std::size_t head_end = buffer.find("\r\n\r\n");
  if (head_end == std::string_view::npos) return 0;
  status = 0;
  const std::size_t space = buffer.find(' ');
  if (buffer.substr(0, 5) == "HTTP/" && space < head_end) {
    std::from_chars(buffer.data() + space + 1, buffer.data() + head_end, status);
  }
  std::size_t body = 0;
  constexpr std::string_view kLength = "content-length:";
  for (std::size_t line = buffer.find("\r\n"); line < head_end;) {
    const std::size_t next = buffer.find("\r\n", line + 2);
    const std::string_view header = buffer.substr(line + 2, next - line - 2);
    if (header.size() > kLength.size() &&
        std::equal(kLength.begin(), kLength.end(), header.begin(), [](char a, char b) {
          return a == std::tolower(static_cast<unsigned char>(b));
        })) {
      std::string_view value = header.substr(kLength.size());
      while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
      std::from_chars(value.data(), value.data() + value.size(), body);
    }
    line = next;
  }
  if (status == 0) return buffer.size();
  const std::size_t total = head_end + 4 + body;
  return buffer.size() >= total ? total : 0;
}

timespec until(Clock::time_point now, Clock::time_point deadline) {
  const auto ns = std::max<std::int64_t>(
      0, std::chrono::duration_cast<std::chrono::nanoseconds>(deadline - now).count());
  return timespec{static_cast<time_t>(ns / 1000000000), static_cast<long>(ns % 1000000000)};
}

}  // namespace

bool is_miss(const RequestSample& sample, double limit_ms) noexcept {
  return sample.error || sample.status != 200 || sample.latency_ms() > limit_ms;
}

PhaseReport report_phase(const std::vector<RequestSample>& samples, int phase, double limit_ms) {
  PhaseReport report;
  std::vector<double> latencies;
  for (const RequestSample& sample : samples) {
    if (sample.phase != phase) continue;
    ++report.attempted;
    if (sample.status == 503) {
      ++report.rejected;
    } else if (sample.error || sample.status != 200) {
      ++report.errors;
    }
    if (is_miss(sample, limit_ms)) ++report.misses;
    if (!sample.error) latencies.push_back(sample.latency_ms());
  }
  report.latency = summarize(latencies);
  return report;
}

OpenLoopGenerator::OpenLoopGenerator(std::uint16_t port, unsigned connections, Tracer& tracer,
                                     std::uint64_t parent_span)
    : port_(port), connections_(std::max(1U, connections)), tracer_(tracer),
      parent_span_(parent_span), origin_(Clock::now()) {}

OpenLoopGenerator::~OpenLoopGenerator() {
  for (Connection& conn : connections_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
}

bool OpenLoopGenerator::ensure_connected(Connection& conn) {
  if (conn.fd < 0) conn.fd = connect_loopback(port_);
  return conn.fd >= 0;
}

void OpenLoopGenerator::complete(std::size_t index, int status, bool error, Clock::time_point now) {
  RequestSample& sample = samples_[index];
  sample.status = status;
  sample.error = error;
  sample.done_ms = rel_ms(now);
  const auto due = origin_ + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double, std::milli>(sample.due_ms));
  tracer_.record(tracer_.open(), "http.request", due, now, parent_span_, index + 1);
}

void OpenLoopGenerator::fail_pending(Connection& conn, Clock::time_point now) {
  for (std::size_t i = conn.pending_head; i < conn.pending.size(); ++i) {
    complete(conn.pending[i], 0, true, now);
  }
  conn.pending.clear();
  conn.pending_head = 0;
  conn.out.clear();
  conn.out_sent = 0;
  conn.in.clear();
  if (conn.fd >= 0) ::close(conn.fd);
  conn.fd = -1;
}

void OpenLoopGenerator::flush(Connection& conn, Clock::time_point now) {
  while (conn.out_sent < conn.out.size()) {
    const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_sent,
                             conn.out.size() - conn.out_sent, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_sent += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      fail_pending(conn, now);
      return;
    }
  }
  conn.out.clear();
  conn.out_sent = 0;
}

void OpenLoopGenerator::receive(Connection& conn, Clock::time_point now) {
  char buffer[64 * 1024];
  bool closed = false;
  for (;;) {
    const ssize_t n = ::recv(conn.fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      conn.in.append(buffer, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    closed = n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK);
    break;
  }
  std::size_t consumed = 0;
  for (;;) {
    int status = 0;
    const std::size_t length =
        parse_response(std::string_view(conn.in).substr(consumed), status);
    if (length == 0) break;
    consumed += length;
    if (conn.pending_head < conn.pending.size()) {
      complete(conn.pending[conn.pending_head++], status, status == 0, now);
    }
    if (consumed >= conn.in.size()) break;
  }
  conn.in.erase(0, consumed);
  if (conn.pending_head == conn.pending.size()) {
    conn.pending.clear();
    conn.pending_head = 0;
  }
  if (closed) fail_pending(conn, now);
}

void OpenLoopGenerator::run(const LoadPhase& phase, int phase_index, Clock::time_point start) {
  constexpr auto kDrainTimeout = std::chrono::seconds(10);
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / phase.rate_per_s));
  auto due_at = [start, interval](std::uint64_t i) {
    return start + interval * static_cast<std::int64_t>(i);
  };
  std::uint64_t scheduled = 0;
  bool scheduling = phase.max_requests > 0;
  Clock::time_point last_due = start;
  std::vector<pollfd> fds(connections_.size());
  for (;;) {
    Clock::time_point now = Clock::now();
    while (scheduling) {
      const Clock::time_point due = due_at(scheduled);
      if (due > now) break;
      if (scheduled >= phase.max_requests || (phase.keep_going && !phase.keep_going())) {
        scheduling = false;
        break;
      }
      last_due = due;
      RequestSample sample;
      sample.phase = phase_index;
      sample.due_ms = rel_ms(due);
      sample.sent_ms = rel_ms(now);
      lag_ms_max_ = std::max(lag_ms_max_, sample.sent_ms - sample.due_ms);
      const std::size_t index = samples_.size();
      samples_.push_back(sample);

      // An idle connection if there is one (round robin), else the least
      // busy: the schedule never waits for a response.
      std::size_t chosen = next_connection_ % connections_.size();
      for (std::size_t k = 0; k < connections_.size(); ++k) {
        const std::size_t c = (next_connection_ + k) % connections_.size();
        if (connections_[c].in_flight() < connections_[chosen].in_flight()) chosen = c;
        if (connections_[chosen].in_flight() == 0) break;
      }
      next_connection_ = chosen + 1;
      Connection& conn = connections_[chosen];
      if (!ensure_connected(conn)) {
        complete(index, 0, true, now);
      } else {
        conn.out += "GET " + phase.target(scheduled) + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
        conn.pending.push_back(index);
        flush(conn, now);
      }
      ++scheduled;
    }

    bool outstanding = false;
    for (const Connection& conn : connections_) outstanding |= conn.in_flight() > 0;
    if (!scheduling && !outstanding) return;
    const Clock::time_point drain_deadline = last_due + kDrainTimeout;
    if (!scheduling && now >= drain_deadline) {
      for (Connection& conn : connections_) fail_pending(conn, now);
      return;
    }

    for (std::size_t c = 0; c < connections_.size(); ++c) {
      const Connection& conn = connections_[c];
      fds[c].fd = conn.fd;
      fds[c].events = static_cast<short>(POLLIN | (conn.out_sent < conn.out.size() ? POLLOUT : 0));
      fds[c].revents = 0;
    }
    const timespec wait = until(now, scheduling ? due_at(scheduled) : drain_deadline);
    const int ready = ::ppoll(fds.data(), fds.size(), &wait, nullptr);
    if (ready <= 0) continue;
    now = Clock::now();
    for (std::size_t c = 0; c < connections_.size(); ++c) {
      Connection& conn = connections_[c];
      if (conn.fd < 0 || fds[c].revents == 0) continue;
      if ((fds[c].revents & POLLOUT) != 0) flush(conn, now);
      if (conn.fd >= 0 && (fds[c].revents & (POLLIN | POLLHUP | POLLERR)) != 0) receive(conn, now);
    }
  }
}

}  // namespace perfbench
