// Shared plumbing for the benchmark: parameters, clocks, robust
// statistics, process probes, the cold set-up harness, the span recorder and
// the result record every workload fills in.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Workload parameters, passed as key=value arguments by run.py from
/// perfbench/design.json. A missing key is a configuration error, never a
/// silent default, so the design file stays the single source of truth.
class Params {
 public:
  void Set(const std::string& key, const std::string& value) {
    values_[key] = value;
  }
  double Num(const std::string& key) const;
  int64_t Int(const std::string& key) const;
  const std::string& Str(const std::string& key) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 when empty.
double Quantile(std::vector<double> v, double q);

/// Peak resident set of this process (getrusage ru_maxrss), in MiB.
double PeakRssMb();

/// Milliseconds a fixed single-threaded integer kernel takes right now. Run
/// before and after a workload, it shows in the run's health how fast the
/// machine itself was, apart from the code under test.
double CalibrationMs();

/// CPU seconds this process has used, all threads.
double ProcessCpuSeconds();

/// FNV-1a over bytes, chained so a digest can absorb many strings.
struct Digest {
  uint64_t h = 0xcbf29ce484222325ULL;
  void Add(const std::string& bytes);
  std::string Hex() const;
};

/// Runs `setup` in `n` fresh forked children, one after another, and appends
/// each child's wall time in seconds to `seconds`. No other thread of the
/// caller may be running. Every allocation a child makes touches new pages,
/// so each sample pays the cold page-fault cost a fresh process pays.
/// Throws std::runtime_error when a child fails.
void ColdSetups(int n, const std::function<void()>& setup,
                std::vector<double>* seconds);

/// One buffered span: name "<layer>.<call>", start/end on the steady clock,
/// the parent span (or -1) and the request id it belongs to.
struct Span {
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  int64_t parent = -1;
  uint64_t request = 0;
};

/// In-memory span buffer. Safe to call from several threads; nothing is
/// written until Dump() at the end of the run.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Records a finished span and returns its id (-1 when disabled).
  int64_t Add(const std::string& name, Clock::time_point start,
              Clock::time_point end, int64_t parent, uint64_t request);

  /// Per span name: total self time (duration minus the union of its
  /// children's intervals), total duration and span count.
  struct Totals {
    double self_ms = 0.0;
    double total_ms = 0.0;
    size_t count = 0;
  };
  std::map<std::string, Totals> Aggregate() const;

  /// Writes every span as one JSON line to `path`.
  bool Dump(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;  // Guards spans_.
  std::vector<Span> spans_;
};

/// A measured value with its unit and the number of samples behind it.
struct Metric {
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
};

/// Everything one workload run reports. The end-to-end map is filled by
/// untraced runs, the per-layer map by traced runs; `health` holds raw JSON
/// fragments (run health, grid stages, answer-check tallies).
struct Report {
  std::map<std::string, Metric> metrics;
  std::map<std::string, Metric> layers;
  std::map<std::string, std::string> health;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> mismatches;

  void Put(const std::string& name, double value, const char* unit,
           size_t samples) {
    metrics[name] = Metric{value, unit, samples};
  }
  void Layer(const std::string& name, double value, const char* unit,
             size_t samples) {
    layers[name] = Metric{value, unit, samples};
  }
  void Mismatch(const std::string& what) {
    ++failed;
    if (mismatches.size() < 8) mismatches.push_back(what);
  }
  std::string ToJson(const std::string& workload) const;
};

/// JSON string literal for `s` (quotes and control characters escaped).
std::string JsonString(const std::string& s);

/// Shortest round-tripping rendering of a double for JSON.
std::string JsonNumber(double v);

/// Renders a list of numbers as a JSON array.
std::string JsonArray(const std::vector<double>& v);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
