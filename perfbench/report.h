// Shared plumbing of the benchmark: arguments, timing statistics, the
// result object printed as the last line of stdout, and the benchmark's own
// span log (the traced run's per-layer ledger).
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  /// Measurement budget of the time-driven phases (repeated tunes, answer
  /// rounds); fixed-work phases (update streams) run to their length.
  double seconds = 10;
  bool trace = false;
  /// Self-test scale: every workload and check in a few seconds.
  bool tiny = false;
  /// Where the traced run writes its spans (empty: not written).
  std::string trace_out;
  /// Scratch directory for the daemon socket (a short relative path keeps
  /// it within the AF_UNIX limit).
  std::string work_dir = ".";
};

/// Nearest-rank percentile, p in [0, 100]; 0 for an empty sample.
double Percentile(std::vector<double> v, double p);
inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 50);
}

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// Repeats `fn` at least `min_reps` times and until `budget_sec` has
/// passed; returns each repetition's wall seconds.
template <typename Fn>
std::vector<double> Repeat(double budget_sec, int min_reps, Fn&& fn) {
  std::vector<double> out;
  const Clock::time_point start = Clock::now();
  while (static_cast<int>(out.size()) < min_reps ||
         SecondsSince(start) < budget_sec) {
    const Clock::time_point t0 = Clock::now();
    fn();
    out.push_back(SecondsSince(t0));
  }
  return out;
}

/// Builds an environment `reps` times and keeps the last; each build is
/// timed with the previous one already torn down, and `median_s` receives
/// the median build time (setup_s).
template <typename T, typename Make>
std::unique_ptr<T> SetUp(int reps, double* median_s, Make&& make) {
  std::unique_ptr<T> env;
  std::vector<double> seconds;
  for (int i = 0; i < reps; ++i) {
    env.reset();
    const Clock::time_point t0 = Clock::now();
    env = make();
    seconds.push_back(SecondsSince(t0));
  }
  *median_s = Median(seconds);
  return env;
}

/// One run's result: metrics in emission order, failed correctness checks,
/// operation counts, and the machine-independent outputs that must repeat
/// exactly for a seed.
class Report {
 public:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };

  void Metric(const std::string& name, double value, const std::string& unit);
  void Fixed(const std::string& name, const std::string& value);
  void Fixed(const std::string& name, double value);
  /// A failed check makes the run incorrect (exit code 1).
  void Check(bool ok, const std::string& what);
  /// Counts one attempted operation (an update, a verb, a partition).
  void Op(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  bool correct() const { return failures_.empty(); }
  /// Prints the fixed outputs, then the result object as the last line.
  void Print() const;

 private:
  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> fixed_;
  std::vector<std::string> failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// The per-layer figures of a traced run, in the order first set. A
/// workload sets only the figures it measures.
class Layers {
 public:
  /// Sets (or overwrites) one figure.
  void Set(const std::string& name, double value, const std::string& unit);
  /// Adds every figure to the report's metrics.
  void EmitTo(Report* report) const;

 private:
  std::vector<Report::Entry> entries_;
};

/// The benchmark's spans: name, start, end, parent and tune id, recorded
/// around calls into the system from the single caller thread. Kept in
/// memory and written when the run ends.
class SpanLog {
 public:
  /// Starts the next tune; spans opened from now on carry its id.
  void BeginTune() { ++tune_; }
  size_t Open(const char* name);
  void Close(size_t index);

  /// Self time (duration minus the time its children cover) summed per
  /// span name, over the trees rooted at spans named `root`, divided by the
  /// number of such roots; `root_s` receives the roots' mean duration.
  std::vector<std::pair<std::string, double>> SelfTimes(
      const std::string& root, double* root_s) const;

  /// Writes every span as a JSON array.
  bool Write(const std::string& path) const;

 private:
  struct Rec {
    std::string name;
    uint64_t tune;
    int64_t parent;
    int64_t start_ns;
    int64_t end_ns;
  };
  int64_t NowNs() const;

  std::vector<Rec> spans_;
  int64_t current_ = -1;
  uint64_t tune_ = 0;
  Clock::time_point origin_ = Clock::now();
};

/// RAII span; a null log records nothing (the untraced run).
class Span {
 public:
  Span(SpanLog* log, const char* name)
      : log_(log), index_(log != nullptr ? log->Open(name) : 0) {}
  ~Span() {
    if (log_ != nullptr) log_->Close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
  size_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
