// The correctness gate every benchmark run passes before it may publish a
// metric: output digests against the repository's goldens, byte identity
// between runs that must agree, and plain invariants. A run whose gate
// fails reports every failed check and no metric.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// RFC 1321 MD5 of `bytes` as 32 lowercase hex digits: the form the
// repository records its golden report digests in.
[[nodiscard]] std::string md5_hex(std::string_view bytes);

class Gate {
 public:
  // Records a failure described by `what` unless `ok`.
  void expect(bool ok, std::string what);
  // Fails unless md5(bytes) equals `golden_md5`.
  void expect_digest(std::string_view bytes, std::string_view golden_md5, std::string what);
  // Fails unless the two byte strings are identical.
  void expect_same(std::string_view a, std::string_view b, std::string what);

  [[nodiscard]] bool passed() const noexcept { return failures_.empty(); }
  [[nodiscard]] const std::vector<std::string>& failures() const noexcept { return failures_; }

 private:
  std::vector<std::string> failures_;
};

// Pins a workload's output per data seed: the first output of data seed 0
// must match the golden digest, and every later output of a seed must equal
// that seed's first.
class OutputPin {
 public:
  OutputPin(std::string what, std::string golden_md5)
      : what_(std::move(what)), golden_md5_(std::move(golden_md5)) {}
  void check(Gate& gate, std::uint64_t data_seed, const std::string& output);

 private:
  std::string what_;
  std::string golden_md5_;
  std::map<std::uint64_t, std::string> first_;
};

}  // namespace perfbench
