#include "shc/mlbg/symbolic_broadcast.hpp"

#include <exception>
#include <stdexcept>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "shc/mlbg/params.hpp"
#include "shc/obs/recorder.hpp"
#include "shc/sim/symbolic_round_channel.hpp"
#include "shc/sim/worker_pool.hpp"

namespace shc {

SparseHypercubeSpec symbolic_showcase_spec(int n, int k) {
  return n <= 48 ? design_sparse_hypercube(n, k)
                 : SparseHypercubeSpec::construct_base(n, 6);
}

SymbolicSchedule make_symbolic_broadcast_schedule(const SparseHypercubeSpec& spec,
                                                  Vertex source) {
  SymbolicScheduleBuilder builder(source, spec.n());
  emit_broadcast_rounds_symbolic(spec, source, builder);
  return std::move(builder).take();
}

namespace {

/// Rejects what every path rejects before any work: threads <= 0, and a
/// source outside the cube (the other validators' report; guarded here
/// so the producer's explicit throw never preempts the sink's verdict).
bool precheck(const SparseHypercubeSpec& spec, Vertex source,
              const SymbolicCheckOptions& sopt, SymbolicCertification& cert) {
  if (sopt.threads <= 0) {
    throw std::invalid_argument(
        "certify_broadcast_symbolic: threads must be >= 1 (got " +
        std::to_string(sopt.threads) + ")");
  }
  if (source >= spec.num_vertices()) {
    cert.report.ok = false;
    cert.report.error = "source out of range";
    return false;
  }
  return true;
}

/// Settles a run the producer or the sink ended with an exception,
/// exactly as the turn-taking loop's catch does: the producer stats stay
/// zero; a sink that had already failed keeps its own report.  Returns
/// true when `cert` is final.
bool settle_exception(const std::exception& e,
                      const SymbolicBroadcastValidator<SpecView>& sink,
                      SymbolicCertification& cert) {
  cert.checks = sink.stats();
  if (sink.aborted()) return false;
  // Producer-side failure (caps, pathological splits): surface it as a
  // failed report rather than an escaped exception.
  cert.report.ok = false;
  cert.report.error = std::string("symbolic producer: ") + e.what();
  return true;
}

/// Returns the free pages of every malloc arena to the OS.  glibc serves
/// each thread from its own arena, and the pipelined run allocates on
/// two threads: memory freed in the engine thread's arena by earlier
/// turn-taking runs would stay resident beside the producer's live
/// frontier in the helper's arena, and the producer's freed frontier
/// would stay resident in the helper's arena through later turn-taking
/// runs.  Certifying designed (36, 2) both ways in turn, that held the
/// frontier twice and raised the process's peak RSS by ~35 MB (~30 %);
/// trimming before and after each pipelined run keeps it within a few
/// MB of the one-thread run's.
void release_free_heap_pages() noexcept {
#if defined(__GLIBC__)
  (void)malloc_trim(0);
#endif
}

/// The producer's end of the pipeline: forwards into the channel and
/// keeps the stats the turn-taking loop would return had it stopped
/// after each round (committed[r - 1]: after round r).
struct PipelineProducer {
  SymbolicRoundChannel* channel;
  std::vector<SymbolicProducerStats> committed;

  void begin_round() { channel->begin_round(); }
  void end_call_group(const CallGroup& g, std::span<const Vertex> pattern) {
    channel->end_call_group(g, pattern);
  }
  void end_round() { channel->end_round(); }
  [[nodiscard]] bool aborted() const noexcept { return channel->aborted(); }
  void round_committed(const SymbolicProducerStats& st) { committed.push_back(st); }
};

/// Producer and validator side by side on `pool` (>= 2 workers).  The
/// validator runs its round clauses inline (the pool is busy with the
/// producer and not reentrant) and gets the pool back for the endgame.
SymbolicCertification certify_pipelined(const SparseHypercubeSpec& spec,
                                        Vertex source,
                                        const ValidationOptions& opt,
                                        const SymbolicCheckOptions& sopt,
                                        WorkerPool& pool) {
  SymbolicCertification cert;
  const SpecView view(spec);
  SymbolicCheckOptions round_sopt = sopt;
  round_sopt.pool = nullptr;
  round_sopt.threads = 1;
  SymbolicBroadcastValidator<SpecView> sink(view, source, opt, round_sopt);
  if (sink.aborted()) {
    // Refused before round 1 (model envelope, oracle shape): the serial
    // producer stops before emitting anything; nothing to overlap.
    cert.producer = emit_broadcast_rounds_symbolic(spec, source, sink,
                                                   sopt.max_frontier_subcubes);
    cert.report = sink.finish();
    cert.checks = sink.stats();
    return cert;
  }

  SymbolicRoundChannel channel;
  PipelineProducer producer{&channel, {}};
  SymbolicProducerStats produced;
  std::exception_ptr producer_error;
  std::exception_ptr sink_error;
  std::uint64_t rounds_delivered = 0;
  // The validator stays on the calling thread (its allocations where the
  // one-thread run makes them); the producer always runs on the same
  // helper.  Both sides catch everything: a throw must not leave the
  // other side waiting.
  pool.run_beside(
      [&] {
        const obs::TrackBinding track(obs::kProducerTrack);
        try {
          produced = emit_broadcast_rounds_symbolic(spec, source, producer,
                                                    sopt.max_frontier_subcubes);
        } catch (...) {
          producer_error = std::current_exception();
        }
        channel.close_producer();
      },
      [&] {
        try {
          rounds_delivered = channel.drain_into(sink);
        } catch (...) {
          sink_error = std::current_exception();
        }
      });
  sink.lend_pool(&pool);

  if (sink.aborted() && !sink_error) {
    // The serial loop lets the producer finish the round the validator
    // failed in, then stops it.  Fewer committed rounds means the
    // producer threw inside that round: zero stats, the sink's report.
    if (rounds_delivered > 0 && producer.committed.size() >= rounds_delivered) {
      cert.producer = producer.committed[rounds_delivered - 1];
    }
  } else if (sink_error || producer_error) {
    // A sink throw precedes any producer throw in stream order.
    try {
      std::rethrow_exception(sink_error ? sink_error : producer_error);
    } catch (const std::exception& e) {
      if (settle_exception(e, sink, cert)) return cert;
    }
  } else {
    cert.producer = produced;
  }
  cert.report = sink.finish();
  cert.checks = sink.stats();
  return cert;
}

}  // namespace

namespace detail {

SymbolicCertification certify_broadcast_symbolic_inline(
    const SparseHypercubeSpec& spec, Vertex source, const ValidationOptions& opt,
    const SymbolicCheckOptions& sopt) {
  SymbolicCertification cert;
  if (!precheck(spec, source, sopt, cert)) return cert;
  const SpecView view(spec);
  SymbolicBroadcastValidator<SpecView> sink(view, source, opt, sopt);
  try {
    cert.producer =
        emit_broadcast_rounds_symbolic(spec, source, sink, sopt.max_frontier_subcubes);
  } catch (const std::exception& e) {
    if (settle_exception(e, sink, cert)) return cert;
    // The sink failed first and the producer tripped over the abort —
    // fall through to the sink's own report.
  }
  cert.report = sink.finish();
  cert.checks = sink.stats();
  return cert;
}

}  // namespace detail

SymbolicCertification certify_broadcast_symbolic(const SparseHypercubeSpec& spec,
                                                 Vertex source,
                                                 const ValidationOptions& opt,
                                                 const SymbolicCheckOptions& sopt) {
  const int workers = sopt.pool ? sopt.pool->workers() : sopt.threads;
  if (workers < 2) {
    return detail::certify_broadcast_symbolic_inline(spec, source, opt, sopt);
  }
  SymbolicCertification cert;
  if (!precheck(spec, source, sopt, cert)) return cert;
  release_free_heap_pages();
  if (sopt.pool) {
    cert = certify_pipelined(spec, source, opt, sopt, *sopt.pool);
  } else {
    WorkerPool pool(sopt.threads);
    cert = certify_pipelined(spec, source, opt, sopt, pool);
  }
  release_free_heap_pages();
  return cert;
}

}  // namespace shc
