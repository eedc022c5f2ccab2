// perfbench: runs one benchmark workload through the program's real paths,
// checks its output, and reports what it measured.
//
//   perfbench --workload batch_paper|live_serve|sweep_calibration
//             --seed N --seconds S --trace 0|1 --out-dir DIR
//             [--git-sha SHA] [--source-digest MD5]
//
// Set-up is timed first, in fresh child processes (this binary re-executed
// with --setup-probe K, which prints its samples one per line). Then the
// workload runs. Prints a human-readable report on stdout and writes
// DIR/<workload>-seed<N>-trace<T>.json (every metric with unit and sample
// count, the gate's verdict and the run's provenance) and, when traced,
// DIR/<workload>-seed<N>.spans.jsonl. perfbench/run.py turns the result
// file into the benchmark's one-line verdict. Exit status: 0 when the
// gate passed, 1 when it failed, 2 on bad arguments.
#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "workloads.h"

extern char** environ;

namespace {

using perfbench::Metric;
using perfbench::WorkloadResult;

// Set-up takes milliseconds or less, and its time depends on the process
// that runs it (where the scheduler places it) more than on anything within
// one process, so a run times it kSetupSamples times in each of
// kSetupProcesses fresh processes and reports the median of all samples.
constexpr int kSetupProcesses = 10;
constexpr std::size_t kSetupSamples = 5;

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  int setup_probe = -1;  // >= 0: only time set-up, as probe process K
};

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, &end);
    } else if (key == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
      if (!args.trace && std::strcmp(value, "0") != 0) return false;
    } else if (key == "--out-dir") {
      args.out_dir = value;
    } else if (key == "--git-sha") {
      args.git_sha = value;
    } else if (key == "--source-digest") {
      args.source_digest = value;
    } else if (key == "--setup-probe") {
      args.setup_probe = static_cast<int>(std::strtol(value, &end, 10));
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !args.workload.empty() && !args.out_dir.empty() && args.seconds > 0;
}

// Times set-up in kSetupProcesses fresh processes; false (with `error`)
// when a probe could not run or set-up failed.
bool probe_setup(const Args& args, std::vector<double>& samples, std::string& error) {
  for (int probe = 0; probe < kSetupProcesses; ++probe) {
    const std::vector<std::string> words = {"perfbench",     "--workload", args.workload,
                                            "--seed",        std::to_string(args.seed),
                                            "--seconds",     "1",
                                            "--trace",       "0",
                                            "--out-dir",     args.out_dir,
                                            "--setup-probe", std::to_string(probe)};
    std::vector<char*> argv;
    for (const std::string& word : words) argv.push_back(const_cast<char*>(word.c_str()));
    argv.push_back(nullptr);
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) {
      error = "pipe failed";
      return false;
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    pid_t pid = 0;
    const int spawned =
        posix_spawn(&pid, "/proc/self/exe", &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    std::string output;
    if (spawned == 0) {
      char buffer[4096];
      for (ssize_t n; (n = ::read(fds[0], buffer, sizeof(buffer))) != 0;) {
        if (n > 0) output.append(buffer, static_cast<std::size_t>(n));
        if (n < 0 && errno != EINTR) break;
      }
    }
    ::close(fds[0]);
    int status = 0;
    if (spawned != 0 || ::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      error = "set-up probe process " + std::to_string(probe) + " failed";
      return false;
    }
    for (const char* at = output.c_str(); *at != '\0';) {
      char* end = nullptr;
      const double ms = std::strtod(at, &end);
      if (end == at) break;
      if (ms < 0) {
        error = "set-up failed in probe process " + std::to_string(probe);
        return false;
      }
      samples.push_back(ms);
      at = end;
    }
  }
  if (samples.size() != kSetupProcesses * kSetupSamples) {
    error = "set-up probes returned " + std::to_string(samples.size()) + " samples";
    return false;
  }
  return true;
}

void print_metrics(const WorkloadResult& result, bool end_to_end) {
  for (const auto& [name, metric] : result.metrics) {
    if (metric.end_to_end != end_to_end) continue;
    std::printf("  %-28s %16.6f %-6s n=%zu", name.c_str(), metric.value(), metric.unit.c_str(),
                metric.count());
    // Per-iteration samples, so a reader can see the spread behind a median.
    if (metric.samples.size() > 1 && metric.samples.size() <= 32) {
      for (const double sample : metric.samples) std::printf(" %.4g", sample);
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 --out-dir DIR"
                 " [--git-sha SHA] [--source-digest MD5]\n");
    return 2;
  }
  const perfbench::Workload* workload = nullptr;
  for (const perfbench::Workload& candidate : perfbench::kWorkloads) {
    if (args.workload == candidate.name) workload = &candidate;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  std::filesystem::create_directories(args.out_dir);
  perfbench::Tracer tracer(args.trace);
  perfbench::RunContext ctx;
  ctx.seed = args.seed;
  ctx.seconds = args.seconds;
  ctx.traced = args.trace;
  ctx.out_dir = args.out_dir;
  ctx.nproc = std::max(1U, std::thread::hardware_concurrency());
  ctx.tracer = &tracer;

  if (args.setup_probe >= 0) {
    for (std::size_t i = 0; i < kSetupSamples; ++i) {
      const std::size_t sample = static_cast<std::size_t>(args.setup_probe) * kSetupSamples + i;
      std::printf("%.9g\n", workload->setup_ms(ctx, sample));
    }
    return 0;
  }

  std::vector<double> setup_ms;
  std::string setup_error;
  const bool probed = probe_setup(args, setup_ms, setup_error);
  WorkloadResult result;
  try {
    result = workload->run(ctx);
  } catch (const std::exception& error) {
    result.gate.expect(false, std::string("workload threw: ") + error.what());
  }
  result.gate.expect(probed, setup_error);
  for (const double ms : setup_ms) {
    result.add("setup_s", "s", ms / 1000.0, true);
    if (args.trace) result.add("core.setup_ms", "ms", ms);
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  result.set("maxrss_mb", "MB", static_cast<double>(usage.ru_maxrss) / 1024.0, 1, true);
  result.set("fail_frac", "ratio",
             result.attempted == 0 ? 0.0 : static_cast<double>(result.failed) / result.attempted,
             result.attempted, true);

  const std::vector<std::pair<std::string, std::string>> provenance = [&] {
    std::vector<std::pair<std::string, std::string>> out = {
        {"git_sha", args.git_sha},
        {"source_digest", args.source_digest},
        {"nproc", std::to_string(ctx.nproc)},
        {"build_type", PERFBENCH_BUILD_TYPE},
        {"compiler", PERFBENCH_COMPILER},
        {"workload", args.workload},
        {"seed", std::to_string(args.seed)},
        {"seconds", json_number(args.seconds)},
        {"trace", args.trace ? "1" : "0"}};
    out.insert(out.end(), result.config.begin(), result.config.end());
    return out;
  }();

  const bool correct = result.gate.passed();
  std::printf("perfbench %s (%s)\n", args.workload.c_str(), args.trace ? "traced" : "untraced");
  for (const auto& [key, value] : provenance) {
    std::printf("  %-20s %s\n", key.c_str(), value.c_str());
  }
  std::printf("gate: %s\n", correct ? "passed" : "FAILED");
  for (const std::string& failure : result.gate.failures()) {
    std::printf("  - %s\n", failure.c_str());
  }
  std::printf("attempted %llu, failed %llu\n", static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  if (correct) {
    std::printf("end-to-end metrics (median, unit, samples):\n");
    print_metrics(result, true);
    if (args.trace) {
      std::printf("per-layer metrics (median, unit, samples):\n");
      print_metrics(result, false);
      std::printf("span totals (count, total ms, self ms):\n");
      for (const auto& [name, totals] : perfbench::totals_by_name(tracer.spans())) {
        std::printf("  %-28s %8zu %14.3f %14.3f\n", name.c_str(), totals.count,
                    static_cast<double>(totals.total_ns) / 1e6,
                    static_cast<double>(totals.self_ns) / 1e6);
      }
    }
  }

  const std::string stem = args.out_dir + "/" + args.workload + "-seed" + std::to_string(args.seed);
  if (args.trace && !tracer.write_jsonl(stem + ".spans.jsonl")) {
    std::fprintf(stderr, "perfbench: failed to write %s.spans.jsonl\n", stem.c_str());
    return 1;
  }
  std::string json = "{\"workload\":" + json_string(args.workload) +
                     ",\"correct\":" + (correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(result.attempted) +
                     ",\"failed\":" + std::to_string(result.failed) + ",\"failures\":[";
  for (std::size_t i = 0; i < result.gate.failures().size(); ++i) {
    json += (i == 0 ? "" : ",") + json_string(result.gate.failures()[i]);
  }
  json += "],\"provenance\":{";
  for (std::size_t i = 0; i < provenance.size(); ++i) {
    json += (i == 0 ? "" : ",") + json_string(provenance[i].first) + ":" +
            json_string(provenance[i].second);
  }
  json += "},\"metrics\":{";
  bool first = true;
  // A failed gate publishes no metric.
  for (const auto& [name, metric] : correct ? result.metrics : std::map<std::string, Metric>{}) {
    json += (first ? "" : ",") + json_string(name) + ":{\"value\":" + json_number(metric.value()) +
            ",\"unit\":" + json_string(metric.unit) + ",\"n\":" + std::to_string(metric.count()) +
            ",\"end_to_end\":" + (metric.end_to_end ? "true" : "false") + "}";
    first = false;
  }
  json += "}}\n";
  const std::string result_path = stem + "-trace" + (args.trace ? "1" : "0") + ".json";
  std::ofstream file(result_path);
  file << json;
  file.flush();
  if (!file) {
    std::fprintf(stderr, "perfbench: failed to write %s\n", result_path.c_str());
    return 1;
  }
  std::fflush(stdout);
  return correct ? 0 : 1;
}
