#pragma once
// Shared plumbing of the repo benchmark: the run's arguments and
// result, timing and statistics helpers, process figures, response-row
// field readers, and self-time attribution over nested spans.
//
// Every timing uses shc::obs::trace_now_ns — the library's own steady
// clock — so spans the benchmark records around library calls and the
// flight recorder's phase scopes share one time base.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "shc/api/serve.hpp"
#include "shc/obs/recorder.hpp"

namespace perfbench {

/// Command line of one run (see main.cpp for the flags).
struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;  ///< self-test sizes (selftest.py only)
  std::map<std::string, std::uint64_t> expect;  ///< exact counters
};

/// One printed metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run reports: the correctness tally and its metrics.
class Report {
 public:
  /// Counts one operation; `ok == false` counts it failed and logs why.
  void op(bool ok, const std::string& what);
  void metric(const std::string& name, double value, const std::string& unit);
  /// The single JSON object the run prints as its last stdout line.
  [[nodiscard]] std::string json() const;

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
};

/// One metric table: name -> value, printed in a fixed order with a
/// fixed unit per name.  Every workload prints the whole table; a layer
/// the workload does not exercise reads 0.
class MetricTable {
 public:
  explicit MetricTable(const std::vector<std::pair<std::string, std::string>>& names_units);
  /// Sets a known metric (throws on an unknown name).
  void set(const std::string& name, double value);
  void emit(Report* report) const;

 private:
  std::vector<std::pair<std::string, std::string>> order_;
  std::map<std::string, double> values_;
};

/// The end-to-end table (`--trace 0`) and the per-layer table
/// (`--trace 1`), name -> unit, in print order.  BENCHMARK.json lists
/// the same names; selftest.py checks that they agree.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// Flight-recorder phase scope -> per-layer metric name.  Scope names
/// absent here land in sim.other_scopes_s.
[[nodiscard]] std::string layer_of_scope(const std::string& scope);

/// splitmix64: the benchmark's only source of randomness, so one seed
/// gives the same inputs on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n), n >= 1.
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_;
};

/// Request lines the server must answer with an error row (bad JSON,
/// unknown workload or field, missing n, a spec the designer rejects,
/// a negative source).
[[nodiscard]] const std::vector<std::string>& malformed_lines();
/// True iff `row` is a structured error row (not a refusal).
[[nodiscard]] bool is_error_row(const std::string& row);

inline double now_s() { return static_cast<double>(shc::obs::trace_now_ns()) * 1e-9; }

[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank percentile (q in (0, 1)).  Returns -1 when fewer than
/// `min_beyond` samples lie above the chosen rank, so no tail figure is
/// ever read off too few samples.
[[nodiscard]] double percentile(std::vector<double> v, double q, std::size_t min_beyond = 10);

/// Median of 101 timed set-ups after 5 discarded ones: set-up is
/// µs-scale and led by thread creation, so one sample never repeats.
template <class SetupOnce>
double median_setup(SetupOnce once) {
  std::vector<double> v;
  for (int i = 0; i < 106; ++i) {
    const double s = once();
    if (i >= 5) v.push_back(s);
  }
  return median(std::move(v));
}

/// getrusage(RUSAGE_SELF) figures.
struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  double minor_faults = 0.0;
};
[[nodiscard]] Usage usage_now();
[[nodiscard]] Usage operator-(const Usage& a, const Usage& b);

/// min(4, hardware threads): client threads and pool workers.
[[nodiscard]] int bench_threads();

/// Reads `"key":<integer>` from a response row; false when absent.
bool row_u64(const std::string& row, const std::string& key, std::uint64_t* out);
/// True iff the row carries `"key":true`.
[[nodiscard]] bool row_true(const std::string& row, const std::string& key);
/// Reads `"seconds":<double>` (the engine time a row reports).
[[nodiscard]] double row_seconds(const std::string& row);
/// Drops the service envelope (`,"id":N,"cache_hit":B` before the
/// closing brace) so a hit row can be compared with its cold row.
[[nodiscard]] std::string strip_envelope(const std::string& row);

/// Responses of one closed-loop serving pass.
struct Served {
  std::vector<std::string> rows;  ///< response per request line
  std::vector<double> latency_s;  ///< handle_line wall per request
  std::vector<std::uint64_t> t0_ns;  ///< start of each handle_line
  std::uint64_t start_ns = 0;     ///< first dispatch
  double wall_s = 0.0;            ///< first dispatch to last response
};

/// Drives `eng` closed-loop: `clients` threads take the next line in
/// stream order as soon as their previous answer is back.  Threads are
/// started before the clock and joined after it.
[[nodiscard]] Served serve_closed_loop(shc::ServeEngine& eng,
                                       const std::vector<std::string>& lines, int clients);

/// One timed interval on the engine thread.
struct Span {
  std::string name;
  std::uint64_t t0 = 0;
  std::uint64_t dur = 0;
};

/// Self time per span name: each span's duration minus the part its
/// direct children cover, nesting inferred from containment on one
/// thread.  `root` names the outermost span; its self time is the dark
/// time no layer accounts for.
struct SelfTimes {
  std::map<std::string, double> self_s;  ///< per name, summed
  double wall_s = 0.0;                   ///< summed root durations
  double dark_s = 0.0;                   ///< summed root self times
  [[nodiscard]] double coverage() const { return wall_s > 0 ? 1.0 - dark_s / wall_s : 0.0; }
};
[[nodiscard]] SelfTimes self_times(std::vector<Span> spans, const std::string& root);

/// The no-dark-time check of a traced run: the layers' self times must
/// cover at least 95 % of the traced wall, or the attribution is
/// missing a layer and the run counts one failed operation.
void check_coverage(double coverage, Report* report);

/// Appends the recorder's phase scopes as spans.
void append_scopes(const shc::obs::TraceRecorder& rec, std::vector<Span>* spans);

}  // namespace perfbench
