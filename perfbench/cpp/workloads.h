// The benchmark's three workloads. Each drives one real path of the program
// through its public entry points, checks the output, and returns every
// metric it measured; main.cpp prints them and writes the result file.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "gate.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

// A run's iterations cycle through this many data seeds, so one run's
// median covers several corpora rather than one draw of the simulator.
inline constexpr std::uint64_t kDataSeeds = 4;

struct RunContext {
  std::uint64_t seed = 0;  // the run's seed (--seed)
  double seconds = 10.0;   // measuring budget for the run
  bool traced = false;
  std::string out_dir;  // scratch space inside the checkout
  unsigned nproc = 1;
  Tracer* tracer = nullptr;  // enabled iff traced

  // The data seed of a run's iteration-th iteration, added to the program's
  // own default seeds: seed s covers data seeds s*kDataSeeds ... +3, so run
  // seed 0 starts with the defaults the goldens were recorded at.
  [[nodiscard]] std::uint64_t data_seed(std::size_t iteration) const {
    return seed * kDataSeeds + iteration % kDataSeeds;
  }
  [[nodiscard]] std::string data_seeds() const {
    return std::to_string(data_seed(0)) + "-" + std::to_string(data_seed(kDataSeeds - 1));
  }
};

struct Metric {
  std::string unit;
  bool end_to_end = false;
  std::vector<double> samples;  // one per iteration, or one pooled value
  std::size_t n = 0;            // sample count behind the value; 0 = samples.size()
  [[nodiscard]] double value() const { return median(samples); }
  [[nodiscard]] std::size_t count() const { return n != 0 ? n : samples.size(); }
};

struct WorkloadResult {
  Gate gate;
  std::uint64_t attempted = 0;  // pipelines, cells and requests
  std::uint64_t failed = 0;     // of those, failed (errors and 503s)
  std::map<std::string, Metric> metrics;
  // Provenance of the workload's shape: scale, t24, jobs, epochs, seeds.
  std::vector<std::pair<std::string, std::string>> config;

  // Adds one sample to a metric reported as the median of its samples.
  void add(const std::string& name, const std::string& unit, double value,
           bool end_to_end = false) {
    Metric& metric = metrics[name];
    metric.unit = unit;
    metric.end_to_end = end_to_end;
    metric.samples.push_back(value);
  }
  // Sets a metric computed over `n` pooled samples (a percentile, a ratio).
  void set(const std::string& name, const std::string& unit, double value, std::size_t n,
           bool end_to_end = false) {
    metrics[name] = Metric{unit, end_to_end, {value}, n};
  }
};

// Decides whether another iteration fits in the run's budget: one always
// runs; another starts only if one more of the last length would still end
// inside the budget.
class Budget {
 public:
  explicit Budget(double seconds) : seconds_(seconds), start_(Clock::now()) {}
  [[nodiscard]] bool another(double last_iteration_s, std::size_t done) const {
    return done == 0 || ms_between(start_, Clock::now()) / 1000.0 + last_iteration_s <= seconds_;
  }

 private:
  double seconds_;
  Clock::time_point start_;
};

struct Workload {
  const char* name;
  // The measured iterations: every metric but set-up.
  WorkloadResult (*run)(const RunContext& ctx);
  // One set-up as a user's run meets it, timed in milliseconds with its
  // teardown outside the timed part; negative when set-up failed. `sample`
  // picks the data seed, so set-up samples cover the run's corpora.
  double (*setup_ms)(const RunContext& ctx, std::size_t sample);
};

WorkloadResult run_batch_paper(const RunContext& ctx);
double batch_paper_setup_ms(const RunContext& ctx, std::size_t sample);
WorkloadResult run_live_serve(const RunContext& ctx);
double live_serve_setup_ms(const RunContext& ctx, std::size_t sample);
WorkloadResult run_sweep_calibration(const RunContext& ctx);
double sweep_calibration_setup_ms(const RunContext& ctx, std::size_t sample);

inline constexpr Workload kWorkloads[] = {
    {"batch_paper", run_batch_paper, batch_paper_setup_ms},
    {"live_serve", run_live_serve, live_serve_setup_ms},
    {"sweep_calibration", run_sweep_calibration, sweep_calibration_setup_ms},
};

}  // namespace perfbench
