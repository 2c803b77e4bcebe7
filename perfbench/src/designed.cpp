// designed-broadcast and designed-gossip: back-to-back certifications of
// one designed sparse hypercube, plus that query served by a
// ServeEngine (one cold request, then a closed loop of cache hits).
//
// The spec is the paper's designed k = 2 construction from vertex 0 and
// does not depend on the seed: its exact counters are constants
// (expected.json).  The seed drives only the served stream (request
// ids, positions of the malformed lines).

#include <iostream>
#include <map>
#include <memory>
#include <span>

#include "common.hpp"
#include "shc/api/certify.hpp"
#include "shc/api/serve.hpp"
#include "shc/gossip/symbolic_gossip.hpp"
#include "shc/mlbg/params.hpp"
#include "shc/mlbg/symbolic_broadcast.hpp"
#include "shc/sim/worker_pool.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kMinReps = 3;
constexpr std::size_t kMalformed = 16;
constexpr std::size_t kHitChunks = 8;
/// One client: these phases measure the hit path of one huge spec (the
/// per-request design_sparse_hypercube), and a closed loop of four
/// clients halved its throughput whenever the host took vCPUs away.
/// serve-mix measures the hit path under concurrency.
constexpr int kHitClients = 1;

struct Designed {
  shc::Workload workload;
  int n;
  int k;
  [[nodiscard]] bool gossip() const { return workload == shc::Workload::kGossipSymbolic; }
};

Designed designed_for(const Args& a) {
  if (a.workload == "designed-gossip") {
    return {shc::Workload::kGossipSymbolic, a.tiny ? 12 : 33, 2};
  }
  return {shc::Workload::kBroadcastSymbolic, a.tiny ? 14 : 36, 2};
}

std::string request_line(const Designed& d, std::uint64_t id) {
  return "{\"id\":" + std::to_string(id) + ",\"workload\":\"" + shc::workload_name(d.workload) +
         "\",\"n\":" + std::to_string(d.n) + ",\"k\":" + std::to_string(d.k) + "}";
}

/// Verdict plus every expected exact counter, read off a result row
/// (the facade's to_json_row or a server response share one schema).
bool row_correct(const Designed& d, const Args& a, const std::string& row, std::string* why) {
  if (a.expect.empty()) {
    *why = "no expected counters given";
    return false;
  }
  if (!row_true(row, "ok") || !row_true(row, d.gossip() ? "complete" : "minimum_time")) {
    *why = "verdict: " + row;
    return false;
  }
  for (const auto& [key, want] : a.expect) {
    std::uint64_t got = 0;
    if (!row_u64(row, key, &got) || got != want) {
      *why = key + " = " + std::to_string(got) + ", expected " + std::to_string(want);
      return false;
    }
  }
  return true;
}

void check_row(const Designed& d, const Args& a, const std::string& row, const std::string& what,
               Report* r) {
  std::string why;
  const bool ok = row_correct(d, a, row, &why);
  r->op(ok, what + ": " + why);
}

shc::CertifyRequest certify_request(const Designed& d, shc::WorkerPool* pool) {
  shc::CertifyRequest req;
  req.workload = d.workload;
  req.n = d.n;
  req.k = d.k;
  req.checks.pool = pool;
  return req;
}

/// Wall seconds of one certification; its row is checked.
double timed_certify(const Designed& d, const Args& a, shc::WorkerPool* pool, Report* r) {
  const shc::CertifyRequest req = certify_request(d, pool);
  const double t0 = now_s();
  const shc::CertifyResult res = shc::certify(req);
  const double wall = now_s() - t0;
  check_row(d, a, shc::to_json_row(res), pool ? "certify (pool)" : "certify", r);
  return wall;
}

/// The seeded hit stream, cut into kHitChunks closed-loop phases: each
/// chunk holds `hits / kHitChunks` copies of the designed query with
/// fresh ids and kMalformed / kHitChunks malformed lines at seeded
/// positions.  Short phases are each hit by host hiccups; the median
/// over many of them is not.
std::vector<std::vector<std::string>> hit_stream(const Designed& d, std::uint64_t seed,
                                                 std::size_t hits) {
  Rng rng(seed);
  const auto& bad = malformed_lines();
  std::vector<std::vector<std::string>> chunks(kHitChunks);
  for (std::size_t c = 0; c < kHitChunks; ++c) {
    std::vector<std::string>& lines = chunks[c];
    for (std::size_t i = 0; i < hits / kHitChunks; ++i) {
      lines.push_back(request_line(d, rng.below(1U << 30)));
    }
    for (std::size_t i = 0; i < kMalformed / kHitChunks; ++i) {
      const std::size_t at = static_cast<std::size_t>(rng.below(lines.size() + 1));
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at), bad[(c + i) % bad.size()]);
    }
  }
  return chunks;
}

/// Throughput and latencies of one hit phase on an engine whose cache
/// already holds the designed row `cold`.
struct HitPhase {
  double qps = 0.0;
  double hit_p50_s = 0.0;
  double error_p50_s = 0.0;
};

HitPhase hit_phase(shc::ServeEngine& eng, const std::vector<std::string>& lines,
                   const std::string& cold, Report* r) {
  const shc::ServeStats before = eng.stats();
  const Served s = serve_closed_loop(eng, lines, kHitClients);
  const std::string want = strip_envelope(cold);
  std::vector<double> hit, err;
  std::size_t bad = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& row = s.rows[i];
    if (lines[i].rfind("{\"id\":", 0) != 0) {
      bad += is_error_row(row) ? 0 : 1;
      err.push_back(s.latency_s[i]);
    } else {
      bad += row_true(row, "cache_hit") && strip_envelope(row) == want ? 0 : 1;
      hit.push_back(s.latency_s[i]);
    }
  }
  r->op(bad == 0, "hit phase: " + std::to_string(bad) + " rows differ from the cold row");
  const shc::ServeStats after = eng.stats();
  r->op(after.cache_misses == before.cache_misses && after.refused == 0 &&
            after.errors - before.errors == err.size(),
        "hit phase: server counters (misses, refusals, errors)");
  return {static_cast<double>(lines.size()) / s.wall_s, median(hit), median(err)};
}

/// Spec design and engine construction: what a run builds before its
/// first timed operation.  The WorkerPool is left out: its construction
/// is OS thread creation, whose median doubled during a host load burst.
double setup_once(const Designed& d) {
  const double t0 = now_s();
  const shc::SparseHypercubeSpec spec = shc::design_sparse_hypercube(d.n, d.k);
  const shc::ServeEngine eng;
  return now_s() - t0;
}

// ---- traced attribution ---------------------------------------------------

/// Forwards a producer's rounds to a validator and times each sink call
/// from outside.  Per-group times are summed per round into one
/// sim.group_check span placed at the round's first group, which lies
/// inside the producer's produce_round scope.
template <class Inner>
class TimedSink {
 public:
  TimedSink(Inner& inner, std::vector<Span>* spans) : in_(inner), spans_(spans) {}

  void begin_round() {
    const std::uint64_t t0 = shc::obs::trace_now_ns();
    in_.begin_round();
    spans_->push_back({"sim.round_close", t0, shc::obs::trace_now_ns() - t0});
  }
  void end_call_group(const shc::CallGroup& g, std::span<const shc::Vertex> pattern) {
    const std::uint64_t t0 = shc::obs::trace_now_ns();
    in_.end_call_group(g, pattern);
    if (!grouped_) first_group_ = t0;
    grouped_ = true;
    group_ns_ += shc::obs::trace_now_ns() - t0;
  }
  void end_round() {
    if (grouped_) spans_->push_back({"sim.group_check", first_group_, group_ns_});
    grouped_ = false;
    group_ns_ = 0;
    const std::uint64_t t0 = shc::obs::trace_now_ns();
    in_.end_round();
    spans_->push_back({"sim.round_close", t0, shc::obs::trace_now_ns() - t0});
  }
  [[nodiscard]] bool aborted() const { return in_.aborted(); }

 private:
  Inner& in_;
  std::vector<Span>* spans_;
  bool grouped_ = false;
  std::uint64_t first_group_ = 0;
  std::uint64_t group_ns_ = 0;
};

/// Counts what the producer emits and checks nothing: the producer
/// alone.
struct NullSink {
  std::uint64_t groups = 0;
  void begin_round() {}
  void end_call_group(const shc::CallGroup&, std::span<const shc::Vertex>) { ++groups; }
  void end_round() {}
};

struct Traced {
  double wall_s = 0.0;
  std::map<std::string, double> layers;  ///< per-layer metric -> seconds
  double coverage = 0.0;
  std::string row;  ///< the traced certification's result row
};

/// certify_broadcast_symbolic / certify_gossip_symbolic rebuilt from
/// their public parts, with a TimedSink between producer and validator
/// and a flight-recorder session attached.
Traced traced_certify(const Designed& d, const shc::SparseHypercubeSpec& spec) {
  std::vector<Span> spans;
  shc::CertifyResult res;
  res.workload = d.workload;
  res.n = d.n;
  res.k = spec.k();
  res.cuts = spec.cuts();
  std::unique_ptr<shc::obs::TraceSession> session;
  const std::uint64_t t0 = shc::obs::trace_now_ns();
  if (!d.gossip()) {
    session = std::make_unique<shc::obs::TraceSession>(shc::obs::TraceOptions{});
    const shc::SpecView view(spec);
    shc::ValidationOptions opt;
    opt.k = spec.k();
    shc::SymbolicBroadcastValidator<shc::SpecView> v(view, 0, opt, {});
    TimedSink sink(v, &spans);
    res.producer = shc::emit_broadcast_rounds_symbolic(spec, 0, sink);
    const std::uint64_t f0 = shc::obs::trace_now_ns();
    res.report = v.finish();
    spans.push_back({"sim.finish", f0, shc::obs::trace_now_ns() - f0});
    res.checks = v.stats();
    res.ok = res.report.ok;
  } else {
    // The forward schedule is built before the recorder attaches, so
    // its produce_round scopes do not mix with the gossip emitter's.
    const std::uint64_t s0 = shc::obs::trace_now_ns();
    const shc::SymbolicSchedule forward = shc::make_symbolic_broadcast_schedule(spec, 0);
    spans.push_back({"gossip.schedule", s0, shc::obs::trace_now_ns() - s0});
    session = std::make_unique<shc::obs::TraceSession>(shc::obs::TraceOptions{});
    const shc::SpecView view(spec);
    shc::SymbolicGossipValidator<shc::SpecView> v(view, spec.k(), {});
    TimedSink sink(v, &spans);
    shc::emit_gather_broadcast_gossip_symbolic(forward, sink);
    const std::uint64_t f0 = shc::obs::trace_now_ns();
    res.gossip = v.finish();
    spans.push_back({"sim.finish", f0, shc::obs::trace_now_ns() - f0});
    res.gossip_checks = v.stats();
    res.ok = res.gossip.ok;
  }
  const std::uint64_t t1 = shc::obs::trace_now_ns();
  spans.push_back({"certify", t0, t1 - t0});
  append_scopes(session->recorder(), &spans);
  session.reset();

  Traced out;
  out.wall_s = static_cast<double>(t1 - t0) * 1e-9;
  const SelfTimes st = self_times(std::move(spans), "certify");
  out.coverage = st.coverage();
  for (const auto& [name, sec] : st.self_s) {
    if (name == "certify") continue;
    std::string metric;
    if (name == "sim.group_check" || name == "sim.round_close" || name == "sim.finish" ||
        name == "gossip.schedule") {
      metric = name + "_s";
    } else if (name == "produce_round" && d.gossip()) {
      metric = "gossip.emit_s";
    } else {
      metric = layer_of_scope(name);
    }
    out.layers[metric] += sec;
  }
  out.row = shc::to_json_row(res);
  return out;
}

void run_e2e(const Designed& d, const Args& a, Report* r) {
  const double start = now_s();
  const double setup = median_setup([&] { return setup_once(d); });
  shc::WorkerPool pool(bench_threads());
  const std::vector<std::vector<std::string>> stream = hit_stream(d, a.seed, a.tiny ? 400 : 40000);

  // Warm-up repetition, discarded: first-touch page faults and
  // allocator growth land here, not in a sample.
  (void)timed_certify(d, a, nullptr, r);
  (void)timed_certify(d, a, &pool, r);

  std::vector<double> cert, par, miss, qps, hit;
  double last = 0.0;
  for (int rep = 0; rep < kMinReps || now_s() - start + last <= a.seconds; ++rep) {
    const double t = now_s();
    cert.push_back(timed_certify(d, a, nullptr, r));
    par.push_back(timed_certify(d, a, &pool, r));

    shc::ServeEngine eng;
    const double c0 = now_s();
    const std::string cold = eng.handle_line(request_line(d, 0));
    miss.push_back(now_s() - c0);
    check_row(d, a, cold, "served cold row", r);
    r->op(!row_true(cold, "cache_hit"), "cold request reported a cache hit");
    for (const std::vector<std::string>& chunk : stream) {
      const HitPhase hp = hit_phase(eng, chunk, cold, r);
      qps.push_back(hp.qps);
      hit.push_back(hp.hit_p50_s);
    }
    last = now_s() - t;
    std::cerr << "perfbench: rep " << rep << " certify " << cert.back() << " s, pool "
              << par.back() << " s, cold " << miss.back() << " s, hit " << hit.back() * 1e6
              << " us, " << qps.back() << " lines/s\n";
  }
  std::cerr << "perfbench: " << a.workload << " " << cert.size() << " repetitions after warm-up\n";

  MetricTable m(end_to_end_metrics());
  m.set("certify_s", median(cert));
  m.set("certify_par_s", median(par));
  m.set("serve_qps", median(qps));
  m.set("serve_hit_p50_ms", median(hit) * 1e3);
  m.set("serve_miss_p50_ms", median(miss) * 1e3);
  m.set("setup_s", setup);
  m.set("peak_rss_mb", static_cast<double>(shc::obs::rss_high_water_kb()) / 1024.0);
  m.emit(r);
}

void run_traced(const Designed& d, const Args& a, Report* r) {
  const double start = now_s();
  const shc::SparseHypercubeSpec spec = shc::design_sparse_hypercube(d.n, d.k);
  const std::vector<std::vector<std::string>> stream = hit_stream(d, a.seed, a.tiny ? 400 : 40000);

  // Warm-up, discarded: the cold served request primes the engine the
  // hit phases below read.
  shc::ServeEngine eng;
  const std::string cold = eng.handle_line(request_line(d, 0));
  check_row(d, a, cold, "served cold row", r);

  std::vector<double> wall_u, wall_t, user, sys, faults, produce, coverage, hit_us, err_us;
  std::map<std::string, std::vector<double>> layers;
  shc::SymbolicProducerStats pstats;
  std::string row;
  double last = 0.0;
  for (int rep = 0; rep < 1 || now_s() - start + last <= a.seconds; ++rep) {
    const double t = now_s();
    const Usage u0 = usage_now();
    wall_u.push_back(timed_certify(d, a, nullptr, r));
    const Usage du = usage_now() - u0;
    user.push_back(du.user_s);
    sys.push_back(du.sys_s);
    faults.push_back(du.minor_faults);

    Traced tr = traced_certify(d, spec);
    check_row(d, a, tr.row, "traced certify", r);
    wall_t.push_back(tr.wall_s);
    coverage.push_back(tr.coverage);
    for (const auto& [name, sec] : tr.layers) layers[name].push_back(sec);
    row = tr.row;

    NullSink null;
    const double p0 = now_s();
    pstats = shc::emit_broadcast_rounds_symbolic(spec, 0, null);
    produce.push_back(now_s() - p0);
    std::uint64_t groups = 0;
    row_u64(row, "groups", &groups);
    r->op(pstats.groups_emitted == null.groups &&
              (d.gossip() ? 2 : 1) * pstats.groups_emitted == groups,
          "producer alone emitted a different group count");

    for (const std::vector<std::string>& chunk : stream) {
      const HitPhase hp = hit_phase(eng, chunk, cold, r);
      hit_us.push_back(hp.hit_p50_s * 1e6);
      err_us.push_back(hp.error_p50_s * 1e6);
    }
    last = now_s() - t;
  }

  // design_sparse_hypercube alone, as the hit path runs it.
  std::vector<double> design;
  for (int b = 0; b < 5; ++b) {
    const double t0 = now_s();
    for (int i = 0; i < 2000; ++i) (void)shc::design_sparse_hypercube(d.n, d.k);
    design.push_back((now_s() - t0) / 2000.0 * 1e6);
  }

  MetricTable m(per_layer_metrics());
  for (const auto& [name, v] : layers) m.set(name, median(v));
  m.set("mlbg.produce_s", median(produce));
  m.set("mlbg.groups_emitted", static_cast<double>(pstats.groups_emitted));
  m.set("mlbg.peak_frontier_subcubes", static_cast<double>(pstats.peak_frontier_subcubes));
  m.set("mlbg.design_us", median(design));
  std::uint64_t v = 0;
  for (const char* key : {"groups", "occupancy_claims", "sampled_calls", "rounds"}) {
    m.set(std::string("sim.") + key, row_u64(row, key, &v) ? static_cast<double>(v) : 0.0);
  }
  if (d.gossip()) {
    std::uint64_t hits = 0, misses = 0;
    row_u64(row, "union_cache_hits", &hits);
    row_u64(row, "union_cache_misses", &misses);
    m.set("gossip.unions", row_u64(row, "unions", &v) ? static_cast<double>(v) : 0.0);
    m.set("gossip.peak_classes", row_u64(row, "peak_classes", &v) ? static_cast<double>(v) : 0.0);
    m.set("gossip.union_cache_hit_ratio",
          hits + misses ? static_cast<double>(hits) / static_cast<double>(hits + misses) : 0.0);
  }
  const shc::ServeStats ss = eng.stats();
  m.set("api.hit_us", median(hit_us));
  m.set("api.error_us", median(err_us));
  m.set("api.cache_hit_ratio",
        static_cast<double>(ss.cache_hits) / static_cast<double>(ss.cache_hits + ss.cache_misses));
  m.set("api.cache_misses", static_cast<double>(ss.cache_misses));
  m.set("api.refused", static_cast<double>(ss.refused));
  m.set("api.errors", static_cast<double>(ss.errors));
  m.set("proc.user_s", median(user));
  m.set("proc.sys_s", median(sys));
  m.set("proc.minor_faults", median(faults));
  m.set("obs.overhead", median(wall_t) / median(wall_u));
  m.set("obs.coverage", median(coverage));
  check_coverage(median(coverage), r);
  m.emit(r);
}

}  // namespace

void run_designed(const Args& a, Report* r) {
  const Designed d = designed_for(a);
  if (a.trace) {
    run_traced(d, a, r);
  } else {
    run_e2e(d, a, r);
  }
}

}  // namespace perfbench
