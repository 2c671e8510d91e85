#include "core/parallel.hpp"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <string>
#include <utility>

#include "common/status.hpp"
#include "telemetry/telemetry.hpp"

namespace hbmvolt::core {

/// One worker's task queue: only its owner pops, any thread may push.
struct ThreadPool::Mailbox {
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<std::function<void()>> tasks;
  bool stop = false;
};

namespace {

/// The pool whose worker loop runs on this thread (null elsewhere).
thread_local const ThreadPool* t_worker_of = nullptr;

}  // namespace

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  mailboxes_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  for (auto& box : mailboxes_) {
    {
      std::lock_guard<std::mutex> lock(box->mutex);
      box->stop = true;
    }
    box->cv.notify_one();
  }
  for (auto& worker : workers_) worker.join();
}

bool ThreadPool::on_worker() const noexcept { return t_worker_of == this; }

void ThreadPool::submit(unsigned worker, std::function<void()> task) {
  HBMVOLT_REQUIRE(task != nullptr, "null task submitted to pool");
  HBMVOLT_REQUIRE(worker < size(), "pool worker index out of range");
  Mailbox& box = *mailboxes_[worker];
  {
    std::lock_guard<std::mutex> lock(box.mutex);
    HBMVOLT_REQUIRE(!box.stop, "pool is shutting down");
    box.tasks.push_back(std::move(task));
  }
  const std::int64_t depth =
      queued_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (auto* tel = telemetry::Telemetry::active()) {
    tel->gauge_set("pool.queue_depth", depth);
  }
  box.cv.notify_one();
}

void ThreadPool::worker_loop(unsigned index) {
  // Workers own telemetry track index+1 (the installing thread is track
  // 0), so the trace viewer shows one lane per pool worker and exports
  // merge deterministically in worker-index order.
  telemetry::Telemetry::set_thread_track(
      static_cast<int>(index) + 1, "worker " + std::to_string(index));
  t_worker_of = this;
  Mailbox& box = *mailboxes_[index];
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(box.mutex);
      box.cv.wait(lock, [&box] { return box.stop || !box.tasks.empty(); });
      if (box.tasks.empty()) return;  // stop and drained
      task = std::move(box.tasks.front());
      box.tasks.pop_front();
    }
    const std::int64_t depth =
        queued_.fetch_sub(1, std::memory_order_relaxed) - 1;
    if (auto* tel = telemetry::Telemetry::active()) {
      tel->gauge_set("pool.queue_depth", depth);
      tel->count("pool.tasks");
    }
    task();
  }
}

namespace {

/// State shared between the caller and the worker tasks of one fan-out.
/// It lives on the caller's stack: a task's last touch is releasing
/// `mutex` after its decrement of `pending`, and the caller returns only
/// after observing `pending == 0` under that mutex.  So the exceptions
/// workers stored are read and destroyed on the calling thread, after a
/// synchronizing acquire.
struct FanOut {
  FanOut(std::size_t count, std::size_t workers,
         const std::function<void(std::size_t)>& fn)
      : body(&fn), errors(count), pending(workers) {}

  const std::function<void(std::size_t)>* body;
  std::vector<std::exception_ptr> errors;  // slot per index: no sharing

  std::mutex mutex;
  std::condition_variable done;
  std::size_t pending;

  /// Runs the indices owned by worker `w` of `stride`: w, w + stride, ...
  void run_owned(std::size_t w, std::size_t stride) {
    for (std::size_t i = w; i < errors.size(); i += stride) {
      try {
        (*body)(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  }
};

void rethrow_lowest(std::vector<std::exception_ptr>& errors) {
  for (auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace

void parallel_for_each(ThreadPool* pool, std::size_t count,
                       const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  telemetry::Span span("pool.fanout", static_cast<std::int64_t>(count));
  if (pool == nullptr || pool->size() <= 1 || count == 1 ||
      pool->on_worker()) {
    // Serial reference path: same run-all / lowest-index-throws semantics
    // as the fan-out so behavior is identical at every thread count.  A
    // fan-out from inside one of the pool's tasks also lands here: its
    // own mailbox would only run it after the running task returns.
    std::vector<std::exception_ptr> errors(count);
    for (std::size_t i = 0; i < count; ++i) {
      try {
        body(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
    rethrow_lowest(errors);
    return;
  }

  // Owner-computes: worker w runs every index i with i mod P == w, so an
  // index lands on the same thread in every fan-out of the same width.
  const std::size_t workers = std::min<std::size_t>(pool->size(), count);
  FanOut fan(count, workers, body);
  for (std::size_t w = 0; w < workers; ++w) {
    pool->submit(static_cast<unsigned>(w), [&fan, w, workers] {
      fan.run_owned(w, workers);
      std::lock_guard<std::mutex> lock(fan.mutex);
      if (--fan.pending == 0) fan.done.notify_one();
    });
  }
  {
    std::unique_lock<std::mutex> lock(fan.mutex);
    fan.done.wait(lock, [&fan] { return fan.pending == 0; });
  }
  rethrow_lowest(fan.errors);
}

}  // namespace hbmvolt::core
