// live_serve: the `cloudwatch_cli serve` path at scale 0.3 / t24 16, 8
// epochs, spilled with no hot segments, jobs 2, findings extracted. Every
// epoch is published to a ReportServer while an open-loop generator reads
// over real sockets: a mixed phase while epochs seal, then a cached phase
// after the final epoch. Writes (ingest, seal, spill) run beside reads, and
// rendering repeats over a growing corpus — the only workload where the
// stream, the cumulative replica, spill/map and serve show, and the bypass
// for batch-only frame-build changes.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "loadgen.h"
#include "serve/publisher.h"
#include "serve/server.h"
#include "stream/live_report.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr double kScale = 0.3;
constexpr int kT24 = 16;
constexpr std::size_t kEpochs = 8;
constexpr unsigned kJobs = 2;
constexpr unsigned kServeWorkers = 4;  // cloudwatch_cli serve's default
// Each keep-alive connection holds one handler for its whole life, so the
// generator opens at most kServeWorkers - 1: one handler stays free for
// other readers, among them the gate's fetch of the final report.
unsigned connections(unsigned nproc) { return std::min(nproc, kServeWorkers - 1); }
constexpr double kMixedRate = 2000.0;
constexpr double kCachedRate = 20000.0;
constexpr std::size_t kCachedRequests = 10000;
constexpr double kLimitMs = 1.0;
// md5 of /epoch/8/report (== full_report stdout) at scale 0.3 / t24 16.
constexpr std::string_view kGoldenMd5 = "06bc684b63b54af2709cec936ccc1153";

enum Phase { kMixed = 0, kCached = 1 };

cw::stream::ReportServerConfig server_config() {
  cw::stream::ReportServerConfig config;
  config.workers = kServeWorkers;
  return config;
}

// One blocking GET on a fresh connection; the body, or "" on any failure.
std::string fetch(std::uint16_t port, const std::string& path, int* status) {
  *status = 0;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string response;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0) {
    const std::string request =
        "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n";
    if (::send(fd, request.data(), request.size(), MSG_NOSIGNAL) ==
        static_cast<ssize_t>(request.size())) {
      char buffer[64 * 1024];
      for (ssize_t n; (n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0;) {
        response.append(buffer, static_cast<std::size_t>(n));
      }
    }
  }
  ::close(fd);
  const std::size_t head_end = response.find("\r\n\r\n");
  if (head_end == std::string::npos || response.rfind("HTTP/1.1 ", 0) != 0) return {};
  *status = std::atoi(response.c_str() + 9);
  return response.substr(head_end + 4);
}

struct Iteration {
  double wall_ms = 0, first_epoch_ms = 0, live_ms = 0;
  double render_ms = 0, publish_ms = 0, ingest_ms = 0;
  std::vector<double> epoch_ms;
  std::uint64_t records_new = 0, pipelines = 0, failed_pipelines = 0;
  std::size_t segments_spilled = 0;
  std::uintmax_t spill_bytes = 0;
  cw::stream::ReportServer::Stats server{};
  std::vector<RequestSample> requests;
  double lag_ms_max = 0;
  std::string served_final;
  std::string rendered_final;
  int served_status = 0;
};

Iteration run_once(const RunContext& ctx, const cw::stream::LiveReportConfig& base,
                   std::uint64_t seed, std::size_t index, Tracer& tracer) {
  Iteration it;
  Span root(tracer, "live.iteration");
  cw::stream::LiveReportConfig config = base;
  config.experiment.seed += seed;
  config.spill_dir = ctx.out_dir + "/spill-" + std::to_string(index);
  std::filesystem::remove_all(config.spill_dir);
  std::filesystem::create_directories(config.spill_dir);

  const Clock::time_point start = Clock::now();
  Span setup(tracer, "core.setup", root.id());
  auto publisher = std::make_unique<cw::stream::ReportPublisher>();
  auto server = std::make_unique<cw::stream::ReportServer>(*publisher, server_config());
  std::string error;
  const bool started = server->start(&error);
  setup.close();
  if (!started) {
    std::fprintf(stderr, "perfbench: report server failed to start: %s\n", error.c_str());
    return it;
  }
  const std::uint16_t port = server->port();

  // The generator: one thread, open loop, ≤ nproc keep-alive connections.
  // The mixed phase runs until live_done; the cached phase starts at
  // cached_go, once the live run is torn down and only serving remains.
  std::atomic<bool> live_done{false};
  std::atomic<bool> cached_go{false};
  OpenLoopGenerator generator(port, connections(ctx.nproc), tracer, root.id());
  cw::util::Rng rng(seed ^ 0x7065726662656e63ULL);
  const std::uint64_t epoch_offset = rng.next_below(kEpochs);
  const std::uint64_t slug_offset = rng.next_below(64);
  auto target = [&publisher, epoch_offset, slug_offset](std::uint64_t i) {
    // Rotate published epochs x table slugs; every 4th request is a report.
    const std::uint64_t latest = publisher->latest_epoch();
    const std::uint64_t k = 1 + (i + epoch_offset) % latest;
    if (i % 4 == 3) return "/epoch/" + std::to_string(k) + "/report";
    const auto epoch = publisher->epoch(k);
    const std::string& slug =
        epoch->table_slugs[(i / latest + slug_offset) % epoch->table_slugs.size()];
    return "/epoch/" + std::to_string(k) + "/table/" + slug;
  };
  std::thread reader([&] {
    while (publisher->latest_epoch() == 0 && !live_done.load()) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    if (publisher->latest_epoch() == 0) return;
    LoadPhase mixed;
    mixed.rate_per_s = kMixedRate;
    mixed.keep_going = [&live_done] { return !live_done.load(); };
    mixed.target = target;
    {
      Span span(tracer, "gen.mixed", root.id());
      generator.run(mixed, kMixed, Clock::now());
    }
    while (!cached_go.load()) std::this_thread::sleep_for(std::chrono::microseconds(200));
    LoadPhase cached;
    cached.rate_per_s = kCachedRate;
    cached.max_requests = kCachedRequests;
    cached.target = target;
    Span span(tracer, "gen.cached", root.id());
    generator.run(cached, kCached, Clock::now());
  });
  // Joins the reader on every exit path, releasing it first if the live
  // run never finished.
  struct Joiner {
    std::thread& thread;
    std::atomic<bool>& done;
    std::atomic<bool>& go;
    ~Joiner() {
      done = true;
      go = true;
      if (thread.joinable()) thread.join();
    }
  } joiner{reader, live_done, cached_go};

  Clock::time_point epoch_start = Clock::now();
  {
    Span live_span(tracer, "stream.run", root.id());
    cw::stream::LiveReport live(config);
    auto on_epoch = [&](const cw::stream::EpochReport& report) {
      it.pipelines += report.names.size();
      for (const auto& metrics : report.run_report.pipelines) {
        it.failed_pipelines += metrics.failed;
      }
      it.records_new += report.records_new;
      double publish_ms = 0.0;
      if (report.rendered) {
        Span publish(tracer, "serve.publish", live_span.id());
        publisher->publish(cw::stream::PublishedEpoch::from_report(report, kScale));
        publish_ms = publish.close();
      }
      const Clock::time_point now = Clock::now();
      const double epoch_ms = ms_between(epoch_start, now);
      tracer.record(tracer.open(), "stream.epoch", epoch_start, now, live_span.id());
      if (report.epoch == 1) it.first_epoch_ms = ms_between(start, now);
      it.epoch_ms.push_back(epoch_ms);
      it.render_ms += report.run_report.total_wall_ms;
      it.publish_ms += publish_ms;
      it.ingest_ms += epoch_ms - report.run_report.total_wall_ms - publish_ms;
      epoch_start = now;
    };
    const cw::stream::EpochReport final_report = live.run(on_epoch);
    it.live_ms = live_span.close();
    live_done = true;
    it.rendered_final =
        cw::stream::PublishedEpoch::from_report(final_report, kScale).render_full_report();
  }
  {
    Span verify(tracer, "gate.fetch_final", root.id());
    const std::string path = "/epoch/" + std::to_string(kEpochs) + "/report";
    it.served_final = fetch(port, path, &it.served_status);
  }
  it.wall_ms = ms_between(start, Clock::now());

  cached_go = true;
  reader.join();
  server->stop();
  it.server = server->stats();
  it.requests = generator.samples();
  it.lag_ms_max = generator.lag_ms_max();
  root.close();
  for (const auto& entry : std::filesystem::directory_iterator(config.spill_dir)) {
    ++it.segments_spilled;
    it.spill_bytes += entry.file_size();
  }
  std::filesystem::remove_all(config.spill_dir);
  return it;
}

}  // namespace

double live_serve_setup_ms(const RunContext& /*ctx*/, std::size_t /*sample*/) {
  const Clock::time_point start = Clock::now();
  cw::stream::ReportPublisher publisher;
  cw::stream::ReportServer server(publisher, server_config());
  const bool started = server.start();
  const double ms = ms_between(start, Clock::now());
  return started ? ms : -1.0;
}

WorkloadResult run_live_serve(const RunContext& ctx) {
  WorkloadResult out;
  // run_once adds each iteration's data seed to the default experiment seed.
  cw::stream::LiveReportConfig config;
  config.experiment.scale = kScale;
  config.experiment.telescope_slash24s = kT24;
  config.epochs = kEpochs;
  config.jobs = kJobs;
  config.hot_segments = 0;
  config.extract_findings = true;
  out.config = {{"scale", "0.3"},
                {"t24", std::to_string(kT24)},
                {"jobs", std::to_string(kJobs)},
                {"epochs", std::to_string(kEpochs)},
                {"shards", std::to_string(config.shards)},
                {"hot_segments", "0"},
                {"serve_workers", std::to_string(kServeWorkers)},
                {"connections", std::to_string(connections(ctx.nproc))},
                {"mixed_rate_per_s", "2000"},
                {"cached_rate_per_s", "20000"},
                {"latency_limit_ms", "1"},
                {"experiment_seed", std::to_string(config.experiment.seed) + " + data seed"},
                {"data_seeds", ctx.data_seeds()}};

  Tracer untraced(false);
  std::vector<RequestSample> requests;
  OutputPin pin("served final report", std::string(kGoldenMd5));
  auto check = [&](const Iteration& it, std::uint64_t seed) {
    out.attempted += it.pipelines + it.requests.size();
    out.failed += it.failed_pipelines;
    for (const RequestSample& sample : it.requests) {
      out.failed += sample.error || sample.status != 200;
    }
    out.gate.expect(it.failed_pipelines == 0, "live run: pipelines failed");
    out.gate.expect(it.epoch_ms.size() == kEpochs, "live run: expected 8 epochs");
    out.gate.expect(it.served_status == 200, "served final report: HTTP status " +
                                                 std::to_string(it.served_status));
    out.gate.expect_same(it.served_final, it.rendered_final,
                         "served final report vs the live run's own render");
    pin.check(out.gate, seed, it.served_final);
    requests.insert(requests.end(), it.requests.begin(), it.requests.end());
  };
  auto record = [&](const Iteration& it) {
    out.add("wall_s", "s", it.wall_ms / 1000.0, true);
    out.add("first_epoch_s", "s", it.first_epoch_ms / 1000.0, true);
    out.add("epoch_ms_p50", "ms", median(it.epoch_ms), true);
    out.add("epoch_ms_last", "ms", it.epoch_ms.empty() ? 0.0 : it.epoch_ms.back(), true);
    out.add("stream.epoch_ms", "ms", it.live_ms);
    out.add("runner.render_ms", "ms", it.render_ms);
    out.add("stream.ingest_ms", "ms", it.ingest_ms);
    out.add("stream.records_new", "count", static_cast<double>(it.records_new));
    out.add("stream.segments_spilled", "count", static_cast<double>(it.segments_spilled));
    out.add("stream.spill_bytes", "bytes", static_cast<double>(it.spill_bytes));
    out.add("serve.publish_ms", "ms", it.publish_ms);
    out.add("serve.requests", "count", static_cast<double>(it.server.requests));
    const double requests = static_cast<double>(it.server.requests);
    out.add("serve.cache_hit_ratio", "ratio",
            requests == 0 ? 0.0 : static_cast<double>(it.server.cache_hits) / requests);
    out.add("serve.rejected", "count", static_cast<double>(it.server.rejected));
    out.add("gen.sent", "count", static_cast<double>(it.requests.size()));
    out.add("gen.lag_ms_max", "ms", it.lag_ms_max);
  };

  const Budget budget(ctx.seconds);
  double last_s = 0.0;
  std::size_t index = 0;
  for (std::size_t done = 0; budget.another(last_s, done); ++done) {
    const Clock::time_point cycle_start = Clock::now();
    const std::uint64_t seed = ctx.data_seed(done);
    const Iteration plain = run_once(ctx, config, seed, index++, untraced);
    check(plain, seed);
    if (!ctx.traced) {
      record(plain);
    } else {
      const Iteration traced = run_once(ctx, config, seed, index++, *ctx.tracer);
      check(traced, seed);
      record(traced);
      out.add("trace.overhead_s", "s", (traced.wall_ms - plain.wall_ms) / 1000.0);
    }
    last_s = ms_between(cycle_start, Clock::now()) / 1000.0;
  }

  // Latency percentiles pool every request of the run, per phase.
  for (const auto& [phase, name] : {std::pair{kMixed, "mixed"}, std::pair{kCached, "cached"}}) {
    const PhaseReport report = report_phase(requests, phase, kLimitMs);
    out.gate.expect(report.latency.p99_supported,
                    std::string(name) + " phase: too few samples for p99 (" +
                        std::to_string(report.latency.n) + ")");
    const std::string prefix = std::string("http_") + name;
    out.set(prefix + "_p50_ms", "ms", report.latency.p50, report.latency.n, true);
    out.set(prefix + "_p99_ms", "ms", report.latency.p99, report.latency.n, true);
    out.set("gen." + std::string(name) + "_n", "count", static_cast<double>(report.attempted),
            report.attempted);
    char label[64];
    std::snprintf(label, sizeof(label), "%s_%s_ms", prefix.c_str(),
                  percentile_label(report.latency.top_percentile).c_str());
    out.set(label, "ms", report.latency.top_value, report.latency.n, true);
  }
  std::size_t misses = 0;
  for (const RequestSample& sample : requests) misses += is_miss(sample, kLimitMs);
  out.set("http_miss_frac", "ratio",
          requests.empty() ? 0.0 : static_cast<double>(misses) / requests.size(), requests.size(),
          true);

  return out;
}

}  // namespace perfbench
