// Deterministic fan-out engine for the sweep pipeline and the serving
// fleet.
//
// The paper's platform runs all 32 AXI traffic generators concurrently
// (one per pseudo-channel) at every voltage step; this pool is the host
// side of that concurrency.  Design rules that keep results byte-identical
// at any thread count (enforced by tests/parallel_test.cpp):
//
//  * work is addressed by index: parallel_for_each(pool, n, body) calls
//    body(0..n-1) exactly once each, and every output slot is owned by
//    exactly one index -- workers never share mutable state;
//  * aggregation happens on the calling thread, in ascending index order,
//    after the fan-out joins -- no locks on the hot path, no
//    reduction-order dependence;
//  * randomness consumed inside a worker comes from a counter-seeded
//    stream derived from the index (see stream_seed in common/rng.hpp),
//    never from a shared generator.
//
// Scheduling is owner-computes: index i of a fan-out always runs on pool
// worker i mod P, P = min(size(), n), so the state behind an index (a
// fleet slot's channel, journal and overlay) stays in one core's cache
// across fan-outs, the way each traffic generator on the board is wired
// to its own pseudo-channel.  No stealing, no pinning: each worker drains
// its own mailbox, which keeps the ThreadSanitizer lane clean.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

namespace hbmvolt::core {

class ThreadPool {
 public:
  /// `threads` = 0 picks std::thread::hardware_concurrency().
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned size() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Enqueues a task on worker `worker`'s mailbox; one worker runs its
  /// tasks in submission order.  Tasks must not throw (fan-outs wrap
  /// their bodies; see parallel_for_each).
  void submit(unsigned worker, std::function<void()> task);

  /// True on one of this pool's worker threads.
  [[nodiscard]] bool on_worker() const noexcept;

 private:
  struct Mailbox;
  void worker_loop(unsigned index);

  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::atomic<std::int64_t> queued_{0};  // tasks waiting in any mailbox
  std::vector<std::thread> workers_;     // last: the threads use the above
};

/// Runs body(0) .. body(count-1), each exactly once, and returns after all
/// complete.  Index i runs on worker i mod min(pool->size(), count); the
/// calling thread only waits.
///
/// A null pool, a single-thread pool, a one-index range, or a call from
/// one of the pool's own workers runs inline on the calling thread -- the
/// serial reference path, executing the same body as the pooled one.
/// Exception semantics are identical at every thread count: all indices
/// run to completion, and the exception thrown by the *lowest* failing
/// index is rethrown afterwards.
void parallel_for_each(ThreadPool* pool, std::size_t count,
                       const std::function<void(std::size_t)>& body);

}  // namespace hbmvolt::core
