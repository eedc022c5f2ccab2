// Benchmarks the out-of-core segment store (DESIGN.md 5f): spill-file write
// latency (the serialize + CWDS v3 write a Segment::spill pays), cold open +
// map latency, analysis-kernel throughput over an mmapped frame vs the
// resident one, and — measured in forked children so each run's high-water
// is isolated — the ru_maxrss payoff of demoting cold segments by
// hot-segment count.
#include "bench_common.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>

#include "analysis/table_cache.h"
#include "capture/dataset.h"
#include "capture/frame_io.h"
#include "stream/ingest.h"
#include "stream/live_report.h"
#include "stream/snapshot.h"

namespace cw::bench {
namespace {

std::string scratch_path(const char* name) {
  return std::filesystem::temp_directory_path().string() + "/cw_bench_coldstore_" + name;
}

// The whole shared corpus sealed as one stream segment: the frame carries
// verdicts, protocols, and codes exactly as a LiveReport seal produces them,
// so spill and scan numbers are representative of production segments.
const stream::EpochSnapshot& shared_snapshot() {
  static const stream::EpochSnapshot snapshot = [] {
    core::LiveExperiment live(bench_config());
    stream::IngestShards ingest(4);
    live.collector().set_store_sink(
        [&ingest](const capture::SessionRecord& record, std::string_view payload,
                  const std::optional<proto::Credential>& credential) {
          ingest.append(ingest.shard_of(record), record, payload, credential);
        });
    const analysis::MaliciousClassifier& classifier = live.result().classifier();
    const stream::VerdictFactory verdict = [&classifier](const capture::EventStore& store) {
      return analysis::frame_verdict(classifier, store);
    };
    live.advance_to(bench_config().duration);
    stream::EpochSnapshot out =
        ingest.seal_epoch(live.result().deployment(), verdict, nullptr, /*verdict_pure=*/true);
    live.collector().set_store_sink({});
    return out;
  }();
  return snapshot;
}

const stream::Segment& shared_segment() { return *shared_snapshot().segments().back(); }

// A spill file for the shared segment, written once (map/scan benchmarks
// read it; the segment itself stays resident).
const std::string& shared_spill_file() {
  static const std::string path = [] {
    const std::string out = scratch_path("segment.cwds");
    std::ofstream file(out, std::ios::binary | std::ios::trunc);
    capture::write_dataset(shared_segment().store(), &shared_segment().frame(), file);
    return out;
  }();
  return path;
}

// A frame permanently mapped from the spill file (cold-restart options, own
// dictionaries), scanned against the resident original below.
const capture::SessionFrame& mapped_frame() {
  static capture::FrameView view;
  static const capture::SessionFrame& frame = [&]() -> const capture::SessionFrame& {
    static capture::SessionFrame target;
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
    std::string error;
    if (!capture::probe_frame_section(shared_spill_file(), offset, length, &error)) {
      std::fprintf(stderr, "probe failed: %s\n", error.c_str());
      std::abort();
    }
    capture::FrameView::Options options;
    options.load_dicts = true;
    const auto& deployment = shared_segment().frame().deployment();
    if (!view.open(shared_spill_file(), offset, length, deployment, options, &error) ||
        !view.map(target, &error)) {
      std::fprintf(stderr, "map failed: %s\n", error.c_str());
      std::abort();
    }
    return target;
  }();
  return frame;
}

// Memory high-water by hot-segment count: each configuration runs a full
// spilling LiveReport in a forked child and the parent reads the child's
// ru_maxrss out of wait4 — the only way to measure a per-configuration
// high-water inside one benchmark binary (ru_maxrss never decreases within
// a process). Arg: number of hot segments; kResidentArg disables spilling.
constexpr std::int64_t kResidentArg = 99;

void bm_live_report_maxrss(benchmark::State& state) {
  const std::int64_t hot = state.range(0);
  const std::string dir = scratch_path("rss");
  double maxrss_mb = 0;
  for (auto _ : state) {
    const pid_t pid = fork();
    if (pid == 0) {
      stream::LiveReportConfig config;
      config.experiment = bench_config();
      config.epochs = 4;
      config.shards = 4;
      config.jobs = env_jobs();
      config.render_intermediate = false;
      config.report.include_leak = false;
      if (hot != kResidentArg) {
        config.spill_dir = dir;
        config.hot_segments = static_cast<std::size_t>(hot);
      }
      stream::LiveReport live(config);
      const stream::EpochReport report = live.run();
      _exit(report.failed ? 1 : 0);
    }
    int status = 0;
    struct rusage usage {};
    wait4(pid, &status, 0, &usage);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      state.SkipWithError("child live report failed");
      break;
    }
    maxrss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  }
  state.counters["maxrss_mb"] = maxrss_mb;
  std::filesystem::remove_all(dir);
}
BENCHMARK(bm_live_report_maxrss)
    ->Arg(kResidentArg)  // no spilling: the resident baseline
    ->Arg(2)
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// Spill-file write: FrameView::serialize of every column + posting list plus
// the CWDS v3 record/payload tables and CRC — the disk half of
// Segment::spill.
void bm_spill_write(benchmark::State& state) {
  const stream::Segment& segment = shared_segment();
  const std::string path = scratch_path("write.cwds");
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    benchmark::DoNotOptimize(capture::write_dataset(segment.store(), &segment.frame(), out));
    out.flush();
    bytes = static_cast<std::uint64_t>(out.tellp());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes * state.iterations()));
  state.counters["records"] = static_cast<double>(segment.size());
  std::filesystem::remove(path);
}
BENCHMARK(bm_spill_write)->Unit(benchmark::kMillisecond);

// Cold open + map: probe the frame section, parse the directory (with
// dictionary reload), and bind a frame — the latency a pager pays to bring
// one cold segment back, excluding page-cache misses.
void bm_spill_open_map(benchmark::State& state) {
  const std::string& path = shared_spill_file();
  const auto& deployment = shared_segment().frame().deployment();
  for (auto _ : state) {
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
    std::string error;
    capture::probe_frame_section(path, offset, length, &error);
    capture::FrameView view;
    capture::FrameView::Options options;
    options.load_dicts = true;
    capture::SessionFrame target;
    if (!view.open(path, offset, length, deployment, options, &error) ||
        !view.map(target, &error)) {
      std::fprintf(stderr, "open/map failed: %s\n", error.c_str());
      std::abort();
    }
    benchmark::DoNotOptimize(target.size());
    view.unmap(target);
  }
  state.counters["records"] = static_cast<double>(shared_segment().size());
}
BENCHMARK(bm_spill_open_map)->Unit(benchmark::kMillisecond);

// The heavy analysis kernel — a characteristic-table cache build (postings,
// code columns, verdict column) — over the resident frame vs the mmapped
// one. The gap is the out-of-core scan overhead the tiering policy trades
// for the resident footprint.
void table_build(benchmark::State& state, const capture::SessionFrame& frame) {
  const analysis::MaliciousClassifier& classifier = shared_experiment().classifier();
  constexpr analysis::TrafficScope kScopes[] = {analysis::TrafficScope::kSsh22,
                                                analysis::TrafficScope::kAnyAll};
  for (auto _ : state) {
    analysis::CharacteristicTableCache cache(frame, classifier);
    std::uint64_t total = 0;
    for (const topology::VantagePoint& vp : frame.deployment().vantage_points()) {
      for (const analysis::TrafficScope scope : kScopes) {
        total += cache.record_count(vp.id, scope);
        total += cache.table(vp.id, scope, analysis::Characteristic::kTopAs).total();
        total += cache.malicious(vp.id, scope).first;
      }
    }
    benchmark::DoNotOptimize(total);
  }
  state.counters["records"] = static_cast<double>(frame.size());
}
void bm_table_build_resident(benchmark::State& state) {
  table_build(state, shared_segment().frame());
}
void bm_table_build_mapped(benchmark::State& state) { table_build(state, mapped_frame()); }
BENCHMARK(bm_table_build_resident)->Unit(benchmark::kMillisecond);
BENCHMARK(bm_table_build_mapped)->Unit(benchmark::kMillisecond);

// Posting iteration over the serialized container directory vs the packed
// in-memory lists.
void posting_scan(benchmark::State& state, const capture::SessionFrame& frame) {
  for (auto _ : state) {
    std::uint64_t sum = 0;
    for (const net::Port port : {net::Port{22}, net::Port{23}, net::Port{80}, net::Port{445}}) {
      frame.for_port(port).for_each([&sum](std::uint32_t v) { sum += v; });
    }
    benchmark::DoNotOptimize(sum);
  }
}
void bm_posting_scan_resident(benchmark::State& state) {
  posting_scan(state, shared_segment().frame());
}
void bm_posting_scan_mapped(benchmark::State& state) { posting_scan(state, mapped_frame()); }
BENCHMARK(bm_posting_scan_resident)->Unit(benchmark::kMillisecond);
BENCHMARK(bm_posting_scan_mapped)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace cw::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  std::filesystem::remove(cw::bench::scratch_path("segment.cwds"));
  return 0;
}
