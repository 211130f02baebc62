// Shared helpers of the benchmark binary: clock, command-line flags,
// percentiles, peak RSS and a minimal JSON object writer.
#ifndef KGBENCH_COMMON_H_
#define KGBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace kgb {

/// Monotonic nanoseconds (CLOCK_MONOTONIC).
int64_t NowNs();

inline double NsToS(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Busy-waits for `ns` nanoseconds (the self-test's injected slowdown).
void SpinNs(int64_t ns);

/// Peak resident set of this process, MiB.
double PeakRssMib();

/// `--name value` flags after the subcommand.
class Flags {
 public:
  Flags(int argc, char** argv, int first);
  std::string Str(const std::string& name, const std::string& def) const;
  int64_t Int(const std::string& name, int64_t def) const;
  double Double(const std::string& name, double def) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
double Quantile(std::vector<double> v, double q);
double Median(const std::vector<double>& v);

/// A flat JSON object built in insertion order.
class JsonObject {
 public:
  void Num(const std::string& key, double value);
  void Int(const std::string& key, int64_t value);
  void Bool(const std::string& key, bool value);
  void Str(const std::string& key, const std::string& value);
  void Raw(const std::string& key, const std::string& json);
  std::string Dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string JsonEscape(const std::string& s);

/// One reported metric: name, value, unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Tallies of checked outcomes. A failed check is recorded with a
/// message (printed to stderr) and counted; `correct` is false as soon as
/// one check fails.
class CheckLog {
 public:
  void Expect(bool ok, const std::string& what);
  /// Records `ops` attempted operations of which `failed` failed (e.g.
  /// requests answered with ERR, or whose answer did not verify).
  void Ops(int64_t ops, int64_t failed) {
    attempted_ += ops;
    failed_ += failed;
  }
  bool correct() const { return check_failures_ == 0; }
  int64_t checks() const { return checks_; }
  int64_t check_failures() const { return check_failures_; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

 private:
  int64_t checks_ = 0;
  int64_t check_failures_ = 0;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

}  // namespace kgb

#endif  // KGBENCH_COMMON_H_
