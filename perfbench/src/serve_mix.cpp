// serve-mix: an in-process ServeEngine driven closed-loop by
// min(4, nproc) client threads over a seeded request stream.
//
// The key universe has a fixed composition (per pass: so many
// broadcast-streaming keys at each n, so many symbolic ones, ...); the
// seed draws each key's source vertex, the order of equally cheap keys
// in the popularity ranking, the hit sequence and where the malformed
// lines fall.  Total cold work per
// pass is therefore nearly the same for every seed, while the inputs
// the program sees differ.
//
// Stream layout per pass: every key's first request, heaviest first (so
// the pass's makespan is not set by one straggler dispatched last), then
// the Zipf-popular hits; the malformed lines are spread over the whole
// stream.  Every pass uses a fresh engine, so each pass has the same
// number of cold requests.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include "common.hpp"
#include "shc/api/certify.hpp"
#include "shc/api/serve.hpp"
#include "shc/mlbg/broadcast.hpp"
#include "shc/mlbg/params.hpp"
#include "shc/sim/congestion.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kMinReps = 3;

/// Default service options except the heavy-query line: streaming keys
/// at n >= 14 predict 2^n - 1 groups, over the default 2^13, and
/// concurrent heavy queries are refused.  2^21 keeps every key of the
/// mix (streaming n <= 20) a light query, so admission never refuses.
shc::ServeOptions serve_options() {
  shc::ServeOptions opt;
  opt.heavy_groups = std::uint64_t{1} << 21;
  return opt;
}

/// One distinct cache key of the mix.
struct Key {
  shc::Workload workload = shc::Workload::kBroadcastStreaming;
  int n = 0;
  shc::Vertex source = 0;
  bool vertex_disjoint = false;
  bool congestion = false;
  double est_ms = 0.0;  ///< rough cold cost, orders the cold requests
  std::string body;     ///< request fields after the id
};

struct Mix {
  std::vector<Key> keys;
  std::vector<std::string> lines;
  std::vector<int> key_of_line;  ///< -1 for a malformed line
  std::size_t malformed = 0;
};

/// Rough cold cost in ms on a 2 GHz core, from single measurements;
/// it only orders the cold requests.
double estimate_ms(const Key& k) {
  const double v = std::ldexp(1.0, k.n);
  switch (k.workload) {
    case shc::Workload::kBroadcastStreaming:
      return (k.congestion ? 8e-4 : 9e-5) * v;
    case shc::Workload::kBroadcastSymbolic:
      return 3.5 + 1.2e-6 * v;
    case shc::Workload::kGossipSymbolic:
      return 28.0 * std::pow(1.285, k.n - 16);
    case shc::Workload::kExchangeGossip:
      return 1.0;
  }
  return 1.0;
}

Mix make_mix(std::uint64_t seed, bool tiny) {
  using W = shc::Workload;
  struct Class {
    W workload;
    std::vector<int> ns;
    int per_n;
    bool vertex_disjoint;
    bool congestion;
  };
  // Full mix: 48 keys.  Twelve broadcast-symbolic n = 24 keys (dense
  // replay, ~19 ms cold) sit at ranks 19-30 of the cold-cost order, so
  // the cold-latency median lands inside one cluster of like keys
  // instead of on a gap between two key types; 18 keys are cheaper and
  // 18 dearer.
  const std::vector<Class> classes =
      tiny ? std::vector<Class>{{W::kGossipSymbolic, {8, 9}, 1, false, false},
                                {W::kBroadcastStreaming, {8, 9, 10}, 1, false, false},
                                {W::kBroadcastStreaming, {9}, 1, true, false},
                                {W::kBroadcastStreaming, {8}, 1, false, true},
                                {W::kBroadcastSymbolic, {9, 10}, 1, false, false},
                                {W::kExchangeGossip, {8, 12}, 1, false, false}}
           : std::vector<Class>{{W::kGossipSymbolic, {16, 17, 18, 19, 20, 21, 22, 23, 24}, 1, false, false},
                                {W::kBroadcastStreaming, {14, 15, 16, 17, 18, 19}, 2, false, false},
                                {W::kBroadcastStreaming, {20}, 1, false, false},
                                {W::kBroadcastStreaming, {16, 18, 20}, 1, true, false},
                                {W::kBroadcastStreaming, {14, 15, 16}, 1, false, true},
                                {W::kBroadcastSymbolic, {20, 21, 22, 23}, 1, false, false},
                                {W::kBroadcastSymbolic, {24}, 12, false, false},
                                {W::kExchangeGossip, {16, 24, 32, 40}, 1, false, false}};
  Rng rng(seed);
  Mix mix;
  for (const Class& c : classes) {
    std::set<std::string> seen;
    for (const int n : c.ns) {
      for (int i = 0; i < c.per_n; ++i) {
        Key k;
        k.workload = c.workload;
        k.n = n;
        k.vertex_disjoint = c.vertex_disjoint;
        k.congestion = c.congestion;
        k.body = std::string("\"workload\":\"") + shc::workload_name(c.workload) +
                 "\",\"n\":" + std::to_string(n);
        if (c.workload == W::kGossipSymbolic) {
          // Gossip cost swings with the root (n = 24: 35 ms from root
          // 123, 208 ms from root 0), and these keys are half the cold
          // work, so they keep root 0 for every seed.
          k.body += ",\"k\":2,\"source\":0";
        } else if (c.workload != W::kExchangeGossip) {
          // Redraw a source that would repeat a key of this class.
          do {
            k.source = rng.below(std::uint64_t{1} << n);
          } while (!seen.insert(k.body + ",\"k\":2,\"source\":" + std::to_string(k.source)).second);
          k.body += ",\"k\":2,\"source\":" + std::to_string(k.source);
        }
        if (c.vertex_disjoint) k.body += ",\"model\":\"vertex-disjoint\"";
        if (c.congestion) k.body += ",\"congestion\":true";
        k.est_ms = estimate_ms(k);
        mix.keys.push_back(std::move(k));
      }
    }
  }

  // Zipf popularity, cheapest keys most popular (ties in seeded order).
  // A popular key whose cold run is slow would park every client on its
  // single-flight slot, and a seed that made it popular would stall the
  // whole pass.
  std::vector<std::size_t> rank(mix.keys.size());
  for (std::size_t i = 0; i < rank.size(); ++i) rank[i] = i;
  for (std::size_t i = rank.size(); i > 1; --i) std::swap(rank[i - 1], rank[rng.below(i)]);
  std::stable_sort(rank.begin(), rank.end(), [&](std::size_t a, std::size_t b) {
    return mix.keys[a].est_ms < mix.keys[b].est_ms;
  });
  std::vector<double> cum(mix.keys.size());
  double total = 0.0;
  for (std::size_t r = 0; r < rank.size(); ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cum[r] = total;
  }

  std::vector<std::size_t> first(mix.keys.size());
  for (std::size_t i = 0; i < first.size(); ++i) first[i] = i;
  std::stable_sort(first.begin(), first.end(), [&](std::size_t a, std::size_t b) {
    return mix.keys[a].est_ms > mix.keys[b].est_ms;
  });
  std::vector<int> order(first.begin(), first.end());
  const std::size_t hits = tiny ? 300 : 6000;
  for (std::size_t h = 0; h < hits; ++h) {
    const double u = rng.unit() * total;
    const auto r = static_cast<std::size_t>(std::lower_bound(cum.begin(), cum.end(), u) - cum.begin());
    order.push_back(static_cast<int>(rank[std::min(r, rank.size() - 1)]));
  }
  mix.malformed = tiny ? 8 : 40;
  for (std::size_t i = 0; i < mix.malformed; ++i) {
    order.insert(order.begin() + static_cast<std::ptrdiff_t>(rng.below(order.size() + 1)), -1);
  }
  std::size_t bad = 0;
  for (const int k : order) {
    mix.key_of_line.push_back(k);
    if (k < 0) {
      mix.lines.push_back(malformed_lines()[bad++ % malformed_lines().size()]);
    } else {
      mix.lines.push_back("{\"id\":" + std::to_string(rng.below(1U << 30)) + "," +
                          mix.keys[static_cast<std::size_t>(k)].body + "}");
    }
  }
  return mix;
}

/// Verdict and the counters that follow from n alone.
bool row_correct(const Key& k, const std::string& row, std::string* why) {
  const std::uint64_t v = std::uint64_t{1} << k.n;
  const bool gossip = k.workload == shc::Workload::kGossipSymbolic ||
                      k.workload == shc::Workload::kExchangeGossip;
  std::uint64_t rounds = 0, count = 0;
  row_u64(row, "rounds", &rounds);
  row_u64(row, gossip ? "exchanges" : "calls", &count);
  bool ok = row_true(row, "ok") && row_true(row, gossip ? "complete" : "minimum_time");
  switch (k.workload) {
    case shc::Workload::kBroadcastStreaming:
    case shc::Workload::kBroadcastSymbolic:
      ok = ok && rounds == static_cast<std::uint64_t>(k.n) && count == v - 1;
      break;
    case shc::Workload::kGossipSymbolic:
      ok = ok && rounds == 2 * static_cast<std::uint64_t>(k.n) && count == 2 * (v - 1);
      break;
    case shc::Workload::kExchangeGossip:
      ok = ok && rounds == static_cast<std::uint64_t>(k.n) && count == v / 2 * static_cast<std::uint64_t>(k.n);
      break;
  }
  if (k.vertex_disjoint) ok = ok && row.find("\"model\":\"vertex-disjoint\"") != std::string::npos;
  if (k.congestion) ok = ok && row.find("\"required_edge_capacity\":") != std::string::npos;
  if (!ok) *why = k.body + " -> " + row;
  return ok;
}

/// One pass's figures, every response checked.
struct Pass {
  double wall_s = 0.0;
  std::vector<double> hit_s, miss_s, error_s;
  std::vector<double> miss_overhead_s;  ///< handle_line minus engine seconds
  std::vector<double> stream_s;         ///< engine seconds, streaming keys
  double engine_s = 0.0;                ///< summed engine seconds of cold rows
  std::map<std::string, double> counts; ///< summed cold-row counters
  Served served;
};

Pass run_pass(const Mix& mix, int clients, Report* r) {
  shc::ServeEngine eng(serve_options());
  Pass p;
  p.served = serve_closed_loop(eng, mix.lines, clients);
  const Served& s = p.served;
  p.wall_s = s.wall_s;
  std::vector<const std::string*> cold(mix.keys.size(), nullptr);
  std::vector<int> colds(mix.keys.size(), 0);
  for (std::size_t i = 0; i < mix.lines.size(); ++i) {
    const int k = mix.key_of_line[i];
    if (k >= 0 && !row_true(s.rows[i], "cache_hit") && row_true(s.rows[i], "ok")) {
      cold[static_cast<std::size_t>(k)] = &s.rows[i];
      ++colds[static_cast<std::size_t>(k)];
    }
  }
  for (std::size_t i = 0; i < mix.lines.size(); ++i) {
    const std::string& row = s.rows[i];
    const int k = mix.key_of_line[i];
    if (k < 0) {
      r->op(is_error_row(row), "malformed line answered " + row);
      p.error_s.push_back(s.latency_s[i]);
      continue;
    }
    const Key& key = mix.keys[static_cast<std::size_t>(k)];
    const std::string* c = cold[static_cast<std::size_t>(k)];
    std::string why = "no cold row for " + key.body;
    bool ok = c != nullptr && colds[static_cast<std::size_t>(k)] == 1;
    if (ok && row_true(row, "cache_hit")) {
      ok = strip_envelope(row) == strip_envelope(*c);
      why = "hit row differs from its cold row: " + row;
      p.hit_s.push_back(s.latency_s[i]);
    } else if (ok) {
      ok = row_correct(key, row, &why);
      const double sec = row_seconds(row);
      p.miss_s.push_back(s.latency_s[i]);
      p.engine_s += sec;
      if (!key.congestion) p.miss_overhead_s.push_back(s.latency_s[i] - sec);
      if (key.workload == shc::Workload::kBroadcastStreaming && !key.congestion) {
        p.stream_s.push_back(sec);
      }
      for (const char* f : {"groups", "occupancy_claims", "sampled_calls", "rounds", "unions",
                            "union_cache_hits", "union_cache_misses"}) {
        std::uint64_t v = 0;
        if (key.workload != shc::Workload::kBroadcastStreaming && row_u64(row, f, &v)) {
          p.counts[f] += static_cast<double>(v);
        }
      }
      std::uint64_t pc = 0;
      if (row_u64(row, "peak_classes", &pc)) {
        p.counts["peak_classes"] = std::max(p.counts["peak_classes"], static_cast<double>(pc));
      }
    }
    r->op(ok, why);
  }
  const shc::ServeStats st = eng.stats();
  r->op(st.cache_misses == mix.keys.size(),
        "single-flight: " + std::to_string(st.cache_misses) + " cold runs for " +
            std::to_string(mix.keys.size()) + " keys");
  r->op(st.errors == mix.malformed, "error rows: " + std::to_string(st.errors));
  r->op(st.refused == 0, "refusals: " + std::to_string(st.refused));
  p.counts["cache_hits"] = static_cast<double>(st.cache_hits);
  p.counts["cache_misses"] = static_cast<double>(st.cache_misses);
  p.counts["errors"] = static_cast<double>(st.errors);
  p.counts["refused"] = static_cast<double>(st.refused);
  return p;
}

shc::CertifyRequest request_of(const Key& k) {
  shc::CertifyRequest req;
  req.workload = k.workload;
  req.n = k.n;
  req.k = 2;
  req.source = k.source;
  req.vertex_disjoint = k.vertex_disjoint;
  req.with_congestion = k.congestion;
  return req;
}

/// Every key certified once through the facade at one engine thread,
/// by `threads` threads taking keys heaviest first; mean wall seconds
/// per key.  The keys are too small for a pool inside one query to pay
/// off (lending them one measured the pool's wake-ups, not the
/// engines), so the parallel figure runs whole queries side by side.
double batch_certify(const Mix& mix, int threads, Report* r) {
  std::vector<std::size_t> order(mix.keys.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return mix.keys[a].est_ms > mix.keys[b].est_ms;
  });
  std::vector<std::string> rows(mix.keys.size());
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i = next.fetch_add(1); i < order.size(); i = next.fetch_add(1)) {
      try {
        rows[order[i]] = shc::to_json_row(shc::certify(request_of(mix.keys[order[i]])));
      } catch (const std::exception& e) {
        rows[order[i]] = std::string("certify threw: ") + e.what();  // fails row_correct
      }
    }
  };
  const double t0 = now_s();
  std::vector<std::thread> helpers;
  for (int t = 1; t < threads; ++t) helpers.emplace_back(work);
  work();
  for (std::thread& h : helpers) h.join();
  const double wall = now_s() - t0;
  for (std::size_t i = 0; i < mix.keys.size(); ++i) {
    std::string why;
    r->op(row_correct(mix.keys[i], rows[i], &why), "batch certify: " + why);
  }
  return wall / static_cast<double>(mix.keys.size());
}

std::vector<int> mix_dims(const Mix& mix) {
  std::set<int> ns;
  for (const Key& k : mix.keys) {
    if (k.workload != shc::Workload::kExchangeGossip) ns.insert(k.n);
  }
  return {ns.begin(), ns.end()};
}

/// Designing every spec of the mix and constructing the engine.
double setup_once(const std::vector<int>& ns) {
  const double t0 = now_s();
  std::vector<shc::SparseHypercubeSpec> specs;
  for (const int n : ns) specs.push_back(shc::design_sparse_hypercube(n, 2));
  const shc::ServeEngine eng(serve_options());
  return now_s() - t0;
}

void run_e2e(const Mix& mix, const Args& a, Report* r) {
  const double start = now_s();
  const std::vector<int> ns = mix_dims(mix);
  const double setup = median_setup([&] { return setup_once(ns); });
  const int clients = bench_threads();

  // Warm-up repetition, discarded.
  (void)run_pass(mix, clients, r);
  (void)batch_certify(mix, 1, r);

  std::vector<double> qps, hit, miss, cert, par;
  double last = 0.0;
  for (int rep = 0; rep < kMinReps || now_s() - start + last <= a.seconds; ++rep) {
    const double t = now_s();
    const Pass p = run_pass(mix, clients, r);
    qps.push_back(static_cast<double>(mix.lines.size()) / p.wall_s);
    hit.push_back(median(p.hit_s));
    miss.insert(miss.end(), p.miss_s.begin(), p.miss_s.end());
    cert.push_back(batch_certify(mix, 1, r));
    par.push_back(batch_certify(mix, clients, r));
    last = now_s() - t;
    std::cerr << "perfbench: rep " << rep << " pass " << p.wall_s << " s, cold p50 "
              << median(p.miss_s) * 1e3 << " ms, hit p50 " << hit.back() * 1e6 << " us, batch "
              << cert.back() << " s/key, parallel batch " << par.back() << " s/key\n";
  }
  std::cerr << "perfbench: serve-mix " << qps.size() << " repetitions after warm-up, "
            << miss.size() << " cold samples; cold-latency deciles (ms):";
  for (int q = 1; q <= 9; ++q) std::cerr << ' ' << percentile(miss, q / 10.0, 0) * 1e3;
  std::cerr << '\n';

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

/// make_broadcast_schedule + analyze_congestion_parallel for each
/// congestion key, timed from outside (the row's seconds exclude it).
std::vector<double> congestion_ms(const Mix& mix, Report* r) {
  std::vector<double> out;
  for (const Key& k : mix.keys) {
    if (!k.congestion) continue;
    const shc::SparseHypercubeSpec spec = shc::design_sparse_hypercube(k.n, 2);
    const double t0 = now_s();
    const shc::FlatSchedule schedule = shc::make_broadcast_schedule(spec, k.source);
    const shc::CongestionStats cs = shc::analyze_congestion_parallel(schedule, 1);
    out.push_back((now_s() - t0) * 1e3);
    r->op(cs.max_edge_load_per_round == 1, "congestion: an edge carries two calls in one round");
  }
  return out;
}

void run_traced(const Mix& mix, const Args& a, Report* r) {
  // One client, so the recorder's phase scopes nest inside the
  // handle_line spans of the one thread that runs them.
  const double start = now_s();
  (void)run_pass(mix, 1, r);  // warm-up, discarded

  std::vector<double> wall_u, wall_t, user, sys, faults, coverage, hit_us, err_us, over_ms,
      stream_ms, cong_ms, misses;
  std::map<std::string, std::vector<double>> layers;
  std::map<std::string, double> counts;
  double last = 0.0;
  for (int rep = 0; rep < 1 || now_s() - start + last <= a.seconds; ++rep) {
    const double t = now_s();
    const Usage u0 = usage_now();
    const Pass p = run_pass(mix, 1, r);
    const Usage du = usage_now() - u0;
    wall_u.push_back(p.wall_s);
    user.push_back(du.user_s);
    sys.push_back(du.sys_s);
    faults.push_back(du.minor_faults);
    hit_us.push_back(median(p.hit_s) * 1e6);
    err_us.push_back(median(p.error_s) * 1e6);
    over_ms.push_back(median(p.miss_overhead_s) * 1e3);
    for (const double s : p.stream_s) stream_ms.push_back(s * 1e3);
    misses.insert(misses.end(), p.miss_s.begin(), p.miss_s.end());
    const std::vector<double> cm = congestion_ms(mix, r);
    cong_ms.insert(cong_ms.end(), cm.begin(), cm.end());

    auto session = std::make_unique<shc::obs::TraceSession>(shc::obs::TraceOptions{});
    const Pass tp = run_pass(mix, 1, r);
    std::vector<Span> spans;
    append_scopes(session->recorder(), &spans);
    session.reset();
    const Served& s = tp.served;
    spans.push_back({"serve.pass", s.start_ns, static_cast<std::uint64_t>(s.wall_s * 1e9)});
    for (std::size_t i = 0; i < s.rows.size(); ++i) {
      spans.push_back({"api.handle_line", s.t0_ns[i], static_cast<std::uint64_t>(s.latency_s[i] * 1e9)});
    }
    const SelfTimes st = self_times(std::move(spans), "serve.pass");
    wall_t.push_back(tp.wall_s);
    coverage.push_back(st.coverage());
    std::map<std::string, double> rep_layers;
    for (const auto& [name, sec] : st.self_s) {
      if (name != "serve.pass" && name != "api.handle_line") rep_layers[layer_of_scope(name)] += sec;
    }
    // handle_line time not spent in an engine run or a congestion analysis.
    double api = -tp.engine_s;
    for (const double l : s.latency_s) api += l;
    for (const double ms : cm) api -= ms * 1e-3;
    rep_layers["api.self_s"] = api;
    for (const auto& [name, sec] : rep_layers) layers[name].push_back(sec);
    counts = tp.counts;
    last = now_s() - t;
  }

  std::vector<double> design;
  const std::vector<int> ns = mix_dims(mix);
  for (int b = 0; b < 5; ++b) {
    const double t0 = now_s();
    for (int i = 0; i < 2000; ++i) {
      (void)shc::design_sparse_hypercube(ns[static_cast<std::size_t>(i) % ns.size()], 2);
    }
    design.push_back((now_s() - t0) / 2000.0 * 1e6);
  }

  MetricTable m(per_layer_metrics());
  for (const auto& [name, v] : layers) m.set(name, median(v));
  m.set("mlbg.design_us", median(design));
  for (const char* key : {"groups", "occupancy_claims", "sampled_calls", "rounds"}) {
    m.set(std::string("sim.") + key, counts[key]);
  }
  m.set("sim.stream_validate_ms", median(stream_ms));
  m.set("sim.congestion_ms", median(cong_ms));
  m.set("gossip.unions", counts["unions"]);
  m.set("gossip.peak_classes", counts["peak_classes"]);
  const double uh = counts["union_cache_hits"], um = counts["union_cache_misses"];
  m.set("gossip.union_cache_hit_ratio", uh + um > 0 ? uh / (uh + um) : 0.0);
  m.set("api.hit_us", median(hit_us));
  m.set("api.error_us", median(err_us));
  m.set("api.miss_overhead_ms", median(over_ms));
  const double p90 = percentile(misses, 0.9);
  m.set("api.miss_p90_ms", p90 < 0 ? -1.0 : p90 * 1e3);
  m.set("api.miss_samples", static_cast<double>(misses.size()));
  m.set("api.cache_hit_ratio",
        counts["cache_hits"] / (counts["cache_hits"] + counts["cache_misses"]));
  m.set("api.cache_misses", counts["cache_misses"]);
  m.set("api.refused", counts["refused"]);
  m.set("api.errors", counts["errors"]);
  m.set("proc.user_s", median(user));
  m.set("proc.sys_s", median(sys));
  m.set("proc.minor_faults", median(faults));
  m.set("obs.overhead", median(wall_t) / median(wall_u));
  m.set("obs.coverage", median(coverage));
  check_coverage(median(coverage), r);
  m.emit(r);
}

}  // namespace

void run_serve_mix(const Args& a, Report* r) {
  const Mix mix = make_mix(a.seed, a.tiny);
  if (a.trace) {
    run_traced(mix, a, r);
  } else {
    run_e2e(mix, a, r);
  }
}

}  // namespace perfbench
