#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

void Report::op(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "perfbench: FAILED " << what << '\n';
  }
}

void Report::metric(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

std::string Report::json() const {
  std::ostringstream os;
  os.precision(10);
  os << "{\"correct\": " << (failed_ == 0 && attempted_ > 0 ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    const double v = std::isfinite(m.value) ? m.value : -1.0;
    os << (i ? ", " : "") << '"' << m.name << "\": {\"value\": " << v
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

MetricTable::MetricTable(const std::vector<std::pair<std::string, std::string>>& names_units)
    : order_(names_units) {
  for (const auto& [name, unit] : order_) values_[name] = 0.0;
}

void MetricTable::set(const std::string& name, double value) {
  const auto it = values_.find(name);
  if (it == values_.end()) throw std::logic_error("perfbench: unknown metric " + name);
  it->second = value;
}

void MetricTable::emit(Report* report) const {
  for (const auto& [name, unit] : order_) report->metric(name, values_.at(name), unit);
}

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> table{
      {"certify_s", "s"},        {"certify_par_s", "s"},     {"serve_qps", "1/s"},
      {"serve_hit_p50_ms", "ms"}, {"serve_miss_p50_ms", "ms"}, {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return table;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> table{
      // producer (mlbg)
      {"mlbg.produce_s", "s"},
      {"mlbg.produce_self_s", "s"},
      {"mlbg.groups_emitted", "count"},
      {"mlbg.peak_frontier_subcubes", "count"},
      {"mlbg.design_us", "us"},
      // validators (sim): sink-call and recorder-phase self times
      {"sim.group_check_s", "s"},
      {"sim.round_close_s", "s"},
      {"sim.finish_s", "s"},
      {"sim.caller_tiling_s", "s"},
      {"sim.collision_check_s", "s"},
      {"sim.ledger_check_s", "s"},
      {"sim.sampled_replay_s", "s"},
      {"sim.frontier_insert_s", "s"},
      {"sim.endgame_s", "s"},
      {"sim.endpoint_check_s", "s"},
      {"sim.apply_round_s", "s"},
      {"sim.kc_union_s", "s"},
      {"sim.kc_merge_s", "s"},
      {"sim.kc_refine_s", "s"},
      {"sim.reduce_tree_s", "s"},
      {"sim.other_scopes_s", "s"},
      {"sim.stream_validate_ms", "ms"},
      {"sim.congestion_ms", "ms"},
      {"sim.groups", "count"},
      {"sim.occupancy_claims", "count"},
      {"sim.sampled_calls", "count"},
      {"sim.rounds", "count"},
      // gossip
      {"gossip.emit_s", "s"},
      {"gossip.schedule_s", "s"},
      {"gossip.unions", "count"},
      {"gossip.union_cache_hit_ratio", "ratio"},
      {"gossip.peak_classes", "count"},
      // service (api)
      {"api.self_s", "s"},
      {"api.hit_us", "us"},
      {"api.error_us", "us"},
      {"api.miss_overhead_ms", "ms"},
      {"api.miss_p90_ms", "ms"},
      {"api.miss_samples", "count"},
      {"api.cache_hit_ratio", "ratio"},
      {"api.cache_misses", "count"},
      {"api.refused", "count"},
      {"api.errors", "count"},
      // process and recorder
      {"proc.user_s", "s"},
      {"proc.sys_s", "s"},
      {"proc.minor_faults", "count"},
      {"obs.overhead", "ratio"},
      {"obs.coverage", "ratio"},
  };
  return table;
}

std::string layer_of_scope(const std::string& scope) {
  static const std::map<std::string, std::string> map{
      {"produce_round", "mlbg.produce_self_s"},
      {"caller_tiling", "sim.caller_tiling_s"},
      {"collision_check", "sim.collision_check_s"},
      {"ledger_check", "sim.ledger_check_s"},
      {"sampled_replay", "sim.sampled_replay_s"},
      {"frontier_insert", "sim.frontier_insert_s"},
      {"endgame", "sim.endgame_s"},
      {"endpoint_check", "sim.endpoint_check_s"},
      {"apply_round", "sim.apply_round_s"},
      {"kc_union", "sim.kc_union_s"},
      {"kc_merge", "sim.kc_merge_s"},
      {"kc_refine", "sim.kc_refine_s"},
      {"reduce_tree", "sim.reduce_tree_s"},
  };
  const auto it = map.find(scope);
  return it == map.end() ? "sim.other_scopes_s" : it->second;
}

const std::vector<std::string>& malformed_lines() {
  static const std::vector<std::string> lines{
      R"({"workload":"broadcast-symbolic","n":20)",
      R"(not json)",
      R"([1,2,3])",
      R"({"workload":"teleport","n":10})",
      R"({"workload":"broadcast-symbolic"})",
      R"({"workload":"broadcast-symbolic","n":12,"colour":1})",
      R"({"workload":"broadcast-symbolic","n":12,"cuts":[50]})",
      R"({"workload":"gossip-symbolic","n":16,"source":-3})",
  };
  return lines;
}

bool is_error_row(const std::string& row) {
  return !row_true(row, "ok") && row.find("\"error\":") != std::string::npos &&
         !row_true(row, "refused");
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q, std::size_t min_beyond) {
  if (v.empty()) return -1.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  if (v.size() - 1 - idx < min_beyond) return -1.0;
  return v[idx];
}

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) + 1e-6 * static_cast<double>(ru.ru_utime.tv_usec);
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) + 1e-6 * static_cast<double>(ru.ru_stime.tv_usec);
  u.minor_faults = static_cast<double>(ru.ru_minflt);
  return u;
}

Usage operator-(const Usage& a, const Usage& b) {
  return {a.user_s - b.user_s, a.sys_s - b.sys_s, a.minor_faults - b.minor_faults};
}

int bench_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw == 0 ? 1U : hw, 1U, 4U));
}

Served serve_closed_loop(shc::ServeEngine& eng, const std::vector<std::string>& lines,
                         int clients) {
  Served out;
  out.rows.resize(lines.size());
  out.latency_s.resize(lines.size());
  out.t0_ns.resize(lines.size());
  std::atomic<std::size_t> next{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    pool.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::size_t i = next.fetch_add(1); i < lines.size(); i = next.fetch_add(1)) {
        const std::uint64_t t0 = shc::obs::trace_now_ns();
        out.rows[i] = eng.handle_line(lines[i]);
        out.t0_ns[i] = t0;
        out.latency_s[i] = static_cast<double>(shc::obs::trace_now_ns() - t0) * 1e-9;
      }
    });
  }
  out.start_ns = shc::obs::trace_now_ns();
  go.store(true, std::memory_order_release);
  for (std::thread& t : pool) t.join();
  out.wall_s = static_cast<double>(shc::obs::trace_now_ns() - out.start_ns) * 1e-9;
  return out;
}

namespace {

/// Position just past `"key":`, or npos.
std::size_t value_pos(const std::string& row, const std::string& key) {
  const std::string pat = "\"" + key + "\":";
  const std::size_t at = row.find(pat);
  return at == std::string::npos ? at : at + pat.size();
}

}  // namespace

bool row_u64(const std::string& row, const std::string& key, std::uint64_t* out) {
  const std::size_t at = value_pos(row, key);
  if (at == std::string::npos || at >= row.size() || row[at] < '0' || row[at] > '9') return false;
  *out = std::strtoull(row.c_str() + at, nullptr, 10);
  return true;
}

bool row_true(const std::string& row, const std::string& key) {
  const std::size_t at = value_pos(row, key);
  return at != std::string::npos && row.compare(at, 4, "true") == 0;
}

double row_seconds(const std::string& row) {
  const std::size_t at = value_pos(row, "seconds");
  return at == std::string::npos ? 0.0 : std::strtod(row.c_str() + at, nullptr);
}

std::string strip_envelope(const std::string& row) {
  const std::size_t hit = row.rfind(",\"cache_hit\":");
  std::size_t cut = hit;
  if (const std::size_t id = row.rfind(",\"id\":"); id != std::string::npos && id < cut) cut = id;
  return cut == std::string::npos ? row : row.substr(0, cut) + "}";
}

SelfTimes self_times(std::vector<Span> spans, const std::string& root) {
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.t0 != b.t0 ? a.t0 < b.t0 : a.dur > b.dur;
  });
  std::vector<double> self(spans.size());
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    self[i] = static_cast<double>(s.dur);
    while (!stack.empty() && spans[stack.back()].t0 + spans[stack.back()].dur <= s.t0) {
      stack.pop_back();
    }
    if (!stack.empty()) {
      const Span& p = spans[stack.back()];
      const std::uint64_t end = std::min(s.t0 + s.dur, p.t0 + p.dur);
      self[stack.back()] -= static_cast<double>(end - s.t0);
    }
    stack.push_back(i);
  }
  SelfTimes out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double sec = std::max(self[i], 0.0) * 1e-9;
    out.self_s[spans[i].name] += sec;
    if (spans[i].name == root) {
      out.wall_s += static_cast<double>(spans[i].dur) * 1e-9;
      out.dark_s += sec;
    }
  }
  return out;
}

void check_coverage(double coverage, Report* report) {
  report->op(coverage >= 0.95, "dark time: the layers cover only " +
                                   std::to_string(coverage * 100.0) + " % of the traced wall");
}

void append_scopes(const shc::obs::TraceRecorder& rec, std::vector<Span>* spans) {
  for (const shc::obs::TraceEvent& e : rec.merged_events()) {
    if (e.kind == shc::obs::EventKind::kScope) {
      spans->push_back({e.name, e.ts_ns, e.dur_ns});
    }
  }
}

}  // namespace perfbench
