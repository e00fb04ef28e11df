// Public DRMS application API — the C++ binding of the paper's
// programming interface (Table 2 and Figure 1):
//
//   drms_initialize            -> DrmsContext::initialize()
//   drms_create_distribution   -> DistSpec::block / block_auto
//   drms_distribute            -> DrmsContext::distribute()
//   drms_reconfig_checkpoint   -> DrmsContext::reconfig_checkpoint()
//   drms_reconfig_chkenable    -> DrmsContext::reconfig_chkenable()
//   drms_adjust                -> DistSpec::adjust()
//
// A DrmsProgram holds the state shared by all tasks of one application
// run (array registry, environment, accumulated timings, the
// system-initiated checkpoint-enable flag); each task wraps it in a
// DrmsContext together with its rt::TaskContext and its own
// ReplicatedStore.
//
// Restart model (the substitution for the paper's stack-restoring
// restart, documented in DESIGN.md): a restarted program re-executes its
// prologue — registering the same replicated variables and declaring the
// same arrays — and initialize() overwrites the replicated variables
// (including the application's loop counters) from the checkpoint.
// distribute() then loads each array's data for whatever distribution the
// program specifies, and the first reconfig_checkpoint() call reports
// status=Restarted with the task-count delta instead of writing a new
// checkpoint, exactly as in Figure 1's skeleton.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/drms_checkpoint.hpp"
#include "core/partial_restore.hpp"
#include "core/spmd_checkpoint.hpp"
#include "core/steering.hpp"
#include "store/storage_backend.hpp"
#include "rt/task_context.hpp"
#include "sim/cost_model.hpp"

namespace drms::adapt {
class IntervalController;
}

namespace drms::core {

/// How checkpoints are taken: the reconfigurable DRMS scheme or the
/// conventional per-task SPMD baseline.
enum class CheckpointMode { kDrms, kSpmd };

/// Result of a reconfig_checkpoint call (the paper's status/delta output
/// arguments).
enum class CheckpointStatus {
  /// Execution continues after taking (or skipping) a checkpoint.
  kContinued,
  /// Execution is resuming from an archived state; no checkpoint was
  /// written by this call.
  kRestarted,
};

struct ReconfigResult {
  CheckpointStatus status = CheckpointStatus::kContinued;
  /// new task count - checkpoint task count; meaningful when restarted.
  int delta = 0;
  /// True when a checkpoint was actually written by this call.
  bool checkpoint_written = false;
};

/// Environment of one application run.
struct DrmsEnv {
  /// Checkpoint storage; timing is charged through its primitives.
  store::StorageBackend* storage = nullptr;
  /// Machine cost model for application compute accounting (the solvers'
  /// iteration time). Null: no compute accounting. Storage timing does
  /// NOT come from here — it comes from the backend.
  const sim::CostModel* cost = nullptr;
  bool jitter = false;
  /// Non-empty: restart from this checkpoint prefix at initialize().
  std::string restart_prefix;
  CheckpointMode mode = CheckpointMode::kDrms;
  /// Parallel-streaming width for DRMS array I/O (0 = every task).
  int io_tasks = 0;
  std::uint64_t target_chunk_bytes = support::kMiB;
  /// Block-level delta generations (DRMS mode): arrays get runtime dirty
  /// tracking, and checkpoints between periodic fulls store only the
  /// dirtied blocks (codec-compressed) chained to the latest full base.
  /// Default off — all on-volume formats stay byte-identical. See
  /// DeltaOptions for the knobs' semantics.
  bool delta = false;
  int delta_full_every_k = 4;
  std::uint64_t delta_block_bytes = 256 * support::kKiB;
  support::BlockCodec delta_codec = support::BlockCodec::kLz;
  /// Non-null: trace spans and metrics from every engine operation land
  /// here (see drms::obs). Null (the default) records nothing and adds
  /// no overhead; recording never perturbs simulated time.
  obs::Recorder* recorder = nullptr;
  /// Non-null (DRMS mode): every successful checkpoint additionally
  /// captures a RetainedJobState snapshot — each task's assigned array
  /// sections, bit-identical to what just committed — enabling a later
  /// partial restart. Owned by the recovery supervisor; null (the
  /// default) changes nothing.
  RetainedJobState* retain = nullptr;
  /// Non-null: this restart is PARTIAL-scope. distribute() then loads
  /// only the lost slots' sections from storage and fills the surviving
  /// slots' sections from the retained snapshot via exchange_sections
  /// (zero checkpoint reads for survivor data). Null (the default): full
  /// restore.
  const PartialRestorePlan* partial = nullptr;
  /// Non-null: adaptive checkpoint scheduling (DESIGN.md §4k). The
  /// controller's cost estimator feeds from this run's engine spans
  /// (attach_cost_stream(env.recorder)), and need_checkpoint() consults
  /// it. Shared across relaunches of the same job; owned by the caller
  /// (typically the recovery supervisor). Null (the default) changes
  /// nothing — the application's fixed SOP cadence applies.
  adapt::IntervalController* adapt = nullptr;
};

class DrmsContext;

/// Shared per-run state. Construct once, before TaskGroup::run.
class DrmsProgram {
 public:
  DrmsProgram(std::string app_name, DrmsEnv env,
              AppSegmentModel segment_model, int task_count);

  DrmsProgram(const DrmsProgram&) = delete;
  DrmsProgram& operator=(const DrmsProgram&) = delete;

  [[nodiscard]] const std::string& app_name() const noexcept {
    return app_name_;
  }
  [[nodiscard]] const DrmsEnv& env() const noexcept { return env_; }
  [[nodiscard]] const AppSegmentModel& segment_model() const noexcept {
    return segment_model_;
  }

  /// System-initiated checkpointing: arm the enabling signal; the next
  /// reconfig_chkenable() call in the application will take a checkpoint
  /// and consume the signal. Thread-safe (called by the JSA/RC side).
  ///
  /// Given `on_held`, that SOP also holds the job (the JSA's preemption
  /// handshake, DESIGN.md §4b): after the commit every task parks,
  /// kill-aware; the last task to park runs `on_held` once, and the tasks
  /// stay parked until the group is killed or release_hold() lifts the
  /// hold. `on_held` is expected to kill the group (it must not call back
  /// into this program). A later hold replaces an earlier one's action.
  void enable_checkpoint(std::function<void()> on_held = nullptr);

  /// Lift a hold armed by enable_checkpoint(on_held) and disarm the
  /// signal; parked tasks resume. Returns false, changing nothing, when
  /// every task has already parked (on_held has run or is running).
  /// Thread-safe.
  bool release_hold();

  /// Timings of the last checkpoint/restart (valid after the run; every
  /// task observed identical values thanks to barrier clock sync).
  [[nodiscard]] CheckpointTiming last_checkpoint_timing() const;
  [[nodiscard]] RestartTiming last_restart_timing() const;
  /// Delta-chain state after the last write (when env.delta is on).
  [[nodiscard]] DeltaChainState delta_chain_state() const;
  /// Number of checkpoints written during the run.
  [[nodiscard]] int checkpoints_written() const noexcept {
    return checkpoints_written_.load();
  }

 private:
  friend class DrmsContext;

  std::string app_name_;
  DrmsEnv env_;
  AppSegmentModel segment_model_;
  int task_count_;

  /// Rank 0 at an enabling SOP: sample and clear the signal. The second
  /// flag is true when the SOP also holds the job (parking begins).
  std::pair<bool, bool> take_enabling_signal();
  /// Every task of a held SOP, after the commit: park until the group is
  /// killed (throws TaskKilled) or the hold is lifted.
  void park(const rt::TaskContext& ctx);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<DistArray>> arrays_;
  /// The enabling signal and its hold, under one lock so that rank 0
  /// samples both at once. A non-null on_held_ means a hold is armed;
  /// held_ means an SOP took it and parked_ tasks are parked.
  std::mutex signal_mutex_;
  std::condition_variable signal_cv_;
  bool checkpoint_enabled_ = false;
  std::function<void()> on_held_;
  bool held_ = false;
  int parked_ = 0;
  std::atomic<int> checkpoints_written_{0};
  CheckpointTiming last_checkpoint_;
  RestartTiming last_restart_;
  /// Meta of the checkpoint being restored (set during initialize()).
  std::optional<CheckpointMeta> restart_meta_;
  /// Live delta chain between checkpoints. The engine reads it on every
  /// task concurrently and mutates it on task 0 between barriers, so no
  /// additional locking is required during a collective write.
  DeltaChainState delta_chain_;
};

class DrmsContext {
 public:
  DrmsContext(DrmsProgram& program, rt::TaskContext& ctx);

  /// This task's replicated-variable registry. Register every replicated
  /// variable BEFORE calling initialize().
  [[nodiscard]] ReplicatedStore& store() noexcept { return store_; }

  /// drms_initialize: set up the run time and, when the environment names
  /// a restart prefix, load the checkpointed data segment (restoring the
  /// registered replicated variables). COLLECTIVE.
  void initialize();

  /// True when this run resumed from a checkpoint.
  [[nodiscard]] bool restarted() const noexcept { return restarted_; }
  /// True when at least one array was restored through the partial-scope
  /// path (env.partial matched the retained snapshot).
  [[nodiscard]] bool partial_restored() const noexcept {
    return partial_restored_;
  }
  /// Task count that took the checkpoint (0 when not restarted).
  [[nodiscard]] int checkpoint_task_count() const noexcept;
  /// size() - checkpoint_task_count().
  [[nodiscard]] int delta() const noexcept;

  /// Declare a distributed array (idempotent across tasks: the first
  /// caller creates it, later callers validate and share it).
  DistArray& create_array(const std::string& name,
                          std::span<const Index> lower,
                          std::span<const Index> upper,
                          std::size_t elem_size = sizeof(double));
  [[nodiscard]] DistArray& array(const std::string& name);

  /// drms_distribute: install a distribution. When the program is
  /// restarting, additionally loads the array's checkpointed data under
  /// the new distribution (DRMS mode). COLLECTIVE.
  void distribute(DistArray& array, const DistSpec& spec);

  /// drms_reconfig_checkpoint: mandatory checkpoint (Figure 1 semantics —
  /// on the first call after a restart, reports Restarted instead of
  /// writing). COLLECTIVE.
  ReconfigResult reconfig_checkpoint(const std::string& prefix);

  /// drms_reconfig_chkenable: checkpoint only if the system has armed the
  /// enabling signal (DrmsProgram::enable_checkpoint). When the signal
  /// carries a hold, every task parks after the commit and the call
  /// returns only if the hold is lifted. COLLECTIVE.
  ReconfigResult reconfig_chkenable(const std::string& prefix);

  /// The SCR idiom (drms_need_checkpoint): should the application take a
  /// checkpoint at this SOP? With env.adapt attached, rank 0 consults the
  /// adaptive interval controller at the current simulated time and the
  /// decision is broadcast so every task takes the same branch (SPMD
  /// discipline). Without a controller, always true — the caller's fixed
  /// cadence (e.g. `checkpoint_every`) governs unchanged. COLLECTIVE.
  [[nodiscard]] bool need_checkpoint();

  /// Computational steering: COLLECTIVE — drain the channel's pending
  /// requests (fetches return the distribution-independent stream of the
  /// requested section; stores scatter stream-ordered bytes into it) and
  /// fulfil them. Call at steering points, typically next to the SOPs.
  /// Returns the number of requests serviced.
  int service_steering(SteeringChannel& channel);

  /// Account `seconds` of application compute time on this task.
  void charge_compute(double seconds) { ctx_.charge(seconds); }

  [[nodiscard]] rt::TaskContext& task() noexcept { return ctx_; }
  [[nodiscard]] int rank() const noexcept { return ctx_.rank(); }
  [[nodiscard]] int size() const noexcept { return ctx_.size(); }

 private:
  [[nodiscard]] sim::LoadContext make_load_context() const;
  [[nodiscard]] std::vector<DistArray*> array_list() const;
  ReconfigResult do_checkpoint(const std::string& prefix);
  /// COLLECTIVE: partial-scope restore of one array — lost slots' sections
  /// read from storage, surviving slots' sections adopted from the
  /// retained snapshot.
  void partial_restore_array(DrmsCheckpoint& engine,
                             const PartialRestorePlan& plan,
                             const RetainedArray& ra, DistArray& array,
                             RestartTiming& timing);
  /// COLLECTIVE: snapshot every array's assigned sections into `retain`
  /// right after a generation committed under `prefix`.
  void capture_retained(RetainedJobState& retain, const std::string& prefix,
                        std::span<DistArray* const> arrays);

  DrmsProgram& program_;
  rt::TaskContext& ctx_;
  ReplicatedStore store_;
  bool initialized_ = false;
  bool restarted_ = false;
  bool just_restarted_ = false;
  bool partial_restored_ = false;
  std::int64_t sop_counter_ = 0;
  std::optional<CheckpointMeta> restart_meta_;
  SpmdRestoreCursor spmd_cursor_;
  RestartTiming restart_timing_;
  /// Arrays whose checkpointed contents this task has loaded this run.
  /// Task-local on purpose: distribute() is collective, and every task
  /// must take the same load-or-skip branch (SPMD discipline) — a shared
  /// set would let only the first task enter the collective restore.
  std::set<std::string> loaded_arrays_;
};

}  // namespace drms::core
