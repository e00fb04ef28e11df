// Multi-tenant checkpoint service core (drms::svc).
//
// An IoScheduler turns the storage layer's synchronous per-backend drain
// into an async event-queue model (the DAOS event-queue / per-target
// servicing lineage): callers register as JOBS, submit I/O work items
// tagged with a PRIORITY CLASS and a SHARD KEY, and continue while
// per-shard server queues execute the items on worker threads. The three
// design commitments:
//
//   * Priority classes. RESTORE (a recovery reading state back) beats
//     FOREGROUND (an application checkpointing on its critical path)
//     beats DRAIN (background fast->slow tier traffic). Queued drain
//     items never delay a queued restore: each shard dequeues the most
//     urgent class first.
//
//   * Per-job tokens. register_job() returns a JobToken; barrier(job) is
//     the per-job completion barrier that surfaces the job's queued
//     errors.
//
//   * Sharded server queues. Work lands on hash(shard_key) % shard_count
//     queues with independent locks and workers, so independent jobs
//     (distinct file names) do not serialize on one volume lock.
//
// Deterministic service model: alongside real execution, every shard
// advances a VIRTUAL clock by each item's modeled service seconds at
// dequeue. Queue-wait (virtual start minus virtual submit) and makespan
// (max shard clock) are therefore exact queueing-model quantities —
// reproducible across runs and machines — which is what the contention
// bench gates on. Wall-clock execution remains genuinely concurrent.
//
// Degeneration contract: with a single registered job (and no pending
// items) submit() executes inline, synchronously, in submission order —
// the scheduler adds nothing to a one-job system, which keeps the paper
// tables bit-identical.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/recorder.hpp"

namespace drms::svc {

/// Urgency of one work item; lower enumerator = dequeued first.
enum class Priority : int {
  kRestore = 0,     ///< recovery restore/verify reads
  kForeground = 1,  ///< application checkpoint writes (critical path)
  kDrain = 2,       ///< background tier-drain copies
};
inline constexpr int kPriorityClasses = 3;
[[nodiscard]] const char* to_string(Priority p) noexcept;

/// Aggregated per-priority-class service statistics.
struct ClassStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;  // fn threw; counted within completed
  std::uint64_t bytes = 0;
  /// Virtual queue-wait (seconds, deterministic; see header comment).
  double total_wait_seconds = 0.0;
  double max_wait_seconds = 0.0;
};

class IoScheduler;
/// Shared per-job bookkeeping (defined in io_scheduler.cpp).
struct JobState;

/// One job's registration. Move-only RAII: destruction deregisters (after
/// waiting for the job's in-flight items).
class JobToken {
 public:
  JobToken() = default;
  JobToken(JobToken&& other) noexcept { *this = std::move(other); }
  JobToken& operator=(JobToken&& other) noexcept;
  JobToken(const JobToken&) = delete;
  JobToken& operator=(const JobToken&) = delete;
  ~JobToken();

  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }
  [[nodiscard]] const std::string& name() const;
  /// Release the registration early (idempotent; waits for in-flight
  /// items like the destructor).
  void release();

 private:
  friend class IoScheduler;
  JobToken(IoScheduler* scheduler, std::shared_ptr<JobState> state)
      : scheduler_(scheduler), state_(std::move(state)) {}
  IoScheduler* scheduler_ = nullptr;
  std::shared_ptr<JobState> state_;
};

/// Ticket for one submitted item. wait() blocks until the item executed
/// and rethrows the exception it raised, if any. Default-constructed
/// (and inline-executed) tickets are already complete.
class Completion {
 public:
  Completion() = default;
  /// True once the item finished (successfully or not).
  [[nodiscard]] bool done() const;
  /// Block until done; rethrows the item's exception.
  void wait() const;
  /// Virtual queue-wait seconds of the item (valid once done; 0 inline).
  [[nodiscard]] double wait_seconds() const;

 private:
  friend class IoScheduler;
  struct State;
  std::shared_ptr<State> state_;
};

class IoScheduler {
 public:
  struct Options {
    /// Independent server queues (>= 1). One worker thread per shard.
    int shard_count = 1;
    /// Start with dequeueing gated off — submit builds a backlog until
    /// resume() (deterministic tests and bench phases).
    bool start_paused = false;
    /// Ignore priority classes: one FIFO per shard (the serialized
    /// baseline of the contention bench).
    bool fifo_only = false;
    /// Never take the single-job inline shortcut (tests that want queue
    /// behaviour with one job).
    bool force_async = false;
    /// Record every item's virtual wait for percentile reporting.
    bool keep_wait_samples = false;
    /// Optional metrics sink: svc.submit.<class> / svc.complete.<class> /
    /// svc.fail.<class> / svc.inline counters, svc.wait.<class> latency
    /// histograms and svc.queue_depth.peak gauge.
    obs::Recorder* recorder = nullptr;
  };

  IoScheduler();  // default Options
  explicit IoScheduler(Options options);
  IoScheduler(const IoScheduler&) = delete;
  IoScheduler& operator=(const IoScheduler&) = delete;
  /// Runs every pending item to completion, then joins the workers.
  ~IoScheduler();

  // ---- tenancy --------------------------------------------------------------
  [[nodiscard]] JobToken register_job(std::string name);
  [[nodiscard]] int registered_jobs() const;

  // ---- submission -----------------------------------------------------------
  /// Queue one work item. `bytes` and `sim_seconds` describe the item for
  /// accounting and the virtual service clock (both may be 0); `fn`
  /// performs the real storage operation on a worker thread. With a
  /// single registered job and an empty queue the item runs inline
  /// (synchronously, exceptions propagate to the caller) unless
  /// Options::force_async.
  Completion submit(const JobToken& job, Priority priority,
                    std::string_view shard_key, std::uint64_t bytes,
                    double sim_seconds, std::function<void()> fn);

  /// Per-job completion barrier: returns once every item the job
  /// submitted so far has executed. Rethrows the job's FIRST stored
  /// exception (then clears it) so async errors surface like synchronous
  /// ones.
  void barrier(const JobToken& job);
  /// Barrier over all jobs (does not rethrow job errors).
  void wait_idle();

  // ---- flow control ---------------------------------------------------------
  void pause();
  void resume();

  // ---- introspection --------------------------------------------------------
  [[nodiscard]] ClassStats class_stats(Priority p) const;
  /// Per-item virtual waits of one class (Options::keep_wait_samples).
  [[nodiscard]] std::vector<double> wait_samples(Priority p) const;
  /// Max shard virtual clock — the modeled makespan of everything
  /// serviced so far.
  [[nodiscard]] double makespan_seconds() const;
  [[nodiscard]] int shard_count() const noexcept;
  /// Items queued but not yet started, across all shards.
  [[nodiscard]] std::size_t queue_depth() const;
  /// Highest queue_depth observed so far.
  [[nodiscard]] std::size_t peak_queue_depth() const;

 private:
  struct Item;
  struct Shard;

  void worker(Shard& shard);
  /// Pop the best runnable item (priority order).
  /// Caller holds the shard mutex; returns nullptr when none runnable.
  [[nodiscard]] std::unique_ptr<Item> pop_runnable(Shard& shard);
  void execute(Shard& shard, std::unique_ptr<Item> item,
               std::unique_lock<std::mutex>& lock);
  void finish_job_item(const std::shared_ptr<JobState>& job,
                       std::exception_ptr error);
  void deregister_job(const std::shared_ptr<JobState>& state);
  [[nodiscard]] Shard& shard_of(std::string_view key);

  Options options_;
  obs::Recorder* recorder_;

  mutable std::mutex mutex_;  // jobs, stats, pause state
  std::condition_variable idle_cv_;
  std::vector<std::shared_ptr<JobState>> jobs_;
  ClassStats stats_[kPriorityClasses];
  std::vector<double> wait_samples_[kPriorityClasses];
  bool paused_ = false;
  bool stopping_ = false;
  std::size_t pending_ = 0;       // queued, not yet started
  std::size_t peak_pending_ = 0;
  std::size_t running_ = 0;       // started, not yet finished

  std::vector<std::unique_ptr<Shard>> shards_;

  friend class JobToken;
};

}  // namespace drms::svc
