// Bounded round channel between a symbolic producer and its validator.
//
// The symbolic certification streams a producer's rounds into a
// SymbolicBroadcastValidator one group at a time.  On one thread the two
// take turns; with two threads the producer can emit round r + 1 while
// the validator closes round r.  SymbolicRoundChannel is the hand-off:
// its producer side is a SymbolicRoundSink, its consumer side drains the
// stream, in order, into any other SymbolicRoundSink.
//
// Groups travel in chunks of at most kChunkGroups, each in the
// SymbolicRound layout with its patterns deduplicated (a round reuses a
// handful of routes across its groups).  At most kMaxChunks chunks
// exist, allocated on first need and recycled; a producer that runs
// kMaxChunks - 1 chunks ahead waits.  The depth is sized for the
// designed specs: rounds of up to ~200k groups, so the producer can fill
// most of round r + 1 while round r is closed.
//
// The consumer sees exactly the serial call sequence: begin_round, the
// round's groups in emission order, end_round — and, when the producer
// stops mid-round (it threw), the groups emitted before the stop with no
// end_round.  It stops early once its sink reports aborted(); from then
// on the producer's pushes are dropped and its aborted() turns true, so
// a producer that honors the hook stops at its next round boundary.
// Either side closing wakes the other: no state of one side can leave
// the other waiting.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <concepts>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "shc/sim/subcube.hpp"
#include "shc/sim/symbolic_schedule.hpp"

namespace shc {

class SymbolicRoundChannel {
 public:
  /// Groups per chunk.
  static constexpr std::size_t kChunkGroups = 16384;
  /// Chunks in existence at once (filling + queued + draining).
  static constexpr std::size_t kMaxChunks = 16;

  SymbolicRoundChannel() = default;
  SymbolicRoundChannel(const SymbolicRoundChannel&) = delete;
  SymbolicRoundChannel& operator=(const SymbolicRoundChannel&) = delete;

  // ---- producer side (one thread): SymbolicRoundSink -------------------

  void begin_round() {
    if (filling_ != nullptr) publish();  // a partial round was abandoned
    if (acquire()) filling_->begins_round = true;
  }

  void end_call_group(const CallGroup& g, std::span<const Vertex> pattern) {
    if (filling_ == nullptr || filling_->body.groups.size() >= kChunkGroups) {
      if (consumer_gone_.load(std::memory_order_relaxed)) return;
      if (filling_ != nullptr) publish();
      if (!acquire()) return;
    }
    append(g, pattern);
  }

  void end_round() {
    if (filling_ == nullptr && !acquire()) return;
    filling_->ends_round = true;
    publish();
  }

  /// True once the consumer stopped listening (its sink aborted, threw,
  /// or the stream ended).
  [[nodiscard]] bool aborted() const noexcept {
    return consumer_gone_.load(std::memory_order_relaxed);
  }

  /// Ends the stream: publishes the chunk in progress (the groups of a
  /// round the producer stopped inside) and wakes the consumer.  Call
  /// exactly once, after the producer returned or threw.
  void close_producer() {
    if (filling_ != nullptr) publish();
    const std::lock_guard<std::mutex> lock(mu_);
    producer_done_ = true;
    cv_consumer_.notify_all();
  }

  // ---- consumer side (one thread) ---------------------------------------

  /// Replays the stream into `sink` until it ends or sink.aborted(), then
  /// closes the consumer side (also when `sink` throws).  Returns the
  /// number of begin_round calls delivered.
  template <SymbolicRoundSink Sink>
  std::uint64_t drain_into(Sink& sink) {
    struct Closer {
      SymbolicRoundChannel* ch;
      ~Closer() { ch->close_consumer(); }
    } closer{this};
    std::uint64_t rounds = 0;
    while (!sink.aborted()) {
      Chunk* c = pop();
      if (c == nullptr) break;
      if (c->begins_round) {
        sink.begin_round();
        ++rounds;
      }
      const SymbolicRound& body = c->body;
      for (std::size_t i = 0; i < body.groups.size(); ++i) {
        sink.end_call_group(body.groups[i], body.pattern_of_group(i));
      }
      if (c->ends_round) sink.end_round();
      recycle(c);
    }
    return rounds;
  }

 private:
  struct Chunk {
    SymbolicRound body;
    bool begins_round = false;
    bool ends_round = false;
  };

  static constexpr std::size_t kDedupSlots = 256;  // power of two

  /// Takes a free chunk (allocating one while fewer than kMaxChunks
  /// exist) into filling_; false iff the consumer is gone.
  bool acquire() {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_producer_.wait(lock, [&] {
        return consumer_gone_.load(std::memory_order_relaxed) || !free_.empty() ||
               chunks_.size() < kMaxChunks;
      });
      if (consumer_gone_.load(std::memory_order_relaxed)) return false;
      if (free_.empty()) {
        chunks_.push_back(std::make_unique<Chunk>());
        filling_ = chunks_.back().get();
      } else {
        filling_ = free_.back();
        free_.pop_back();
      }
    }
    SymbolicRound& body = filling_->body;
    body.groups.clear();
    body.group_pattern.clear();
    body.pattern_pool.clear();
    body.pattern_off.assign(1, 0);
    filling_->begins_round = false;
    filling_->ends_round = false;
    dedup_id_.fill(0);
    return true;
  }

  /// Hands filling_ to the consumer (or back to the free list once the
  /// consumer is gone).
  void publish() {
    const std::lock_guard<std::mutex> lock(mu_);
    if (consumer_gone_.load(std::memory_order_relaxed)) {
      free_.push_back(filling_);
    } else {
      ready_.push_back(filling_);
      cv_consumer_.notify_one();
    }
    filling_ = nullptr;
  }

  /// Appends one group, reusing an identical pattern already in the
  /// chunk when the direct-mapped cache remembers one.  A cache miss
  /// only costs a duplicate pattern, never a wrong one.
  void append(const CallGroup& g, std::span<const Vertex> pattern) {
    SymbolicRound& body = filling_->body;
    std::uint64_t key = 0x9E3779B97F4A7C15ULL;
    for (const Vertex x : pattern) key = detail::mix_u64(key ^ x);
    const std::size_t slot = key & (kDedupSlots - 1);
    std::uint32_t id = dedup_id_[slot];
    if (id != 0 && dedup_key_[slot] == key) {
      const std::span<const Vertex> have = body.pattern(id - 1);
      if (!std::equal(have.begin(), have.end(), pattern.begin(), pattern.end())) id = 0;
    } else {
      id = 0;
    }
    if (id == 0) {
      // A chunk holds at most kChunkGroups patterns of <= 65 vertices,
      // far below the layout's 32-bit offsets.
      body.pattern_pool.insert(body.pattern_pool.end(), pattern.begin(), pattern.end());
      body.pattern_off.push_back(static_cast<std::uint32_t>(body.pattern_pool.size()));
      id = static_cast<std::uint32_t>(body.num_patterns());
      dedup_id_[slot] = id;
      dedup_key_[slot] = key;
    }
    body.groups.push_back(g);
    body.group_pattern.push_back(id - 1);
  }

  /// Next queued chunk, waiting for one; nullptr once the stream ended
  /// and the queue is empty.
  Chunk* pop() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_consumer_.wait(lock, [&] { return !ready_.empty() || producer_done_; });
    if (ready_.empty()) return nullptr;
    Chunk* c = ready_.front();
    ready_.pop_front();
    return c;
  }

  void recycle(Chunk* c) {
    const std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(c);
    cv_producer_.notify_one();
  }

  void close_consumer() {
    const std::lock_guard<std::mutex> lock(mu_);
    consumer_gone_.store(true, std::memory_order_relaxed);
    for (Chunk* c : ready_) free_.push_back(c);
    ready_.clear();
    cv_producer_.notify_all();
  }

  std::mutex mu_;
  std::condition_variable cv_producer_;  ///< a chunk freed / consumer gone
  std::condition_variable cv_consumer_;  ///< a chunk queued / stream ended
  std::vector<std::unique_ptr<Chunk>> chunks_;  ///< every allocated chunk
  std::vector<Chunk*> free_;
  std::deque<Chunk*> ready_;
  bool producer_done_ = false;
  /// Written under mu_; read without it only by the producer's fast
  /// paths, where a stale false just costs one more pushed group.
  std::atomic<bool> consumer_gone_{false};

  // Producer-owned state (no lock).
  Chunk* filling_ = nullptr;
  std::array<std::uint32_t, kDedupSlots> dedup_id_{};  ///< pattern id + 1; 0 = empty
  std::array<std::uint64_t, kDedupSlots> dedup_key_{};
};

static_assert(SymbolicRoundSink<SymbolicRoundChannel>);

}  // namespace shc
