#include "arch/scheduler.hpp"

#include <chrono>
#include <optional>

#include "core/checkpoint_catalog.hpp"
#include "core/checkpoint_format.hpp"
#include "support/error.hpp"

namespace drms::arch {

JobScheduler::JobScheduler(Cluster& cluster, EventLog* log)
    : cluster_(cluster), log_(log) {}

bool JobScheduler::request_checkpoint(const std::string& job_name) {
  const std::lock_guard<std::mutex> lock(running_mutex_);
  const auto it = running_.find(job_name);
  if (it == running_.end()) {
    return false;
  }
  arm(job_name, it->second, nullptr);
  return true;
}

void JobScheduler::arm(const std::string& job_name, Running& entry,
                       std::function<void()> on_held) {
  if (entry.program != nullptr) {
    entry.program->enable_checkpoint(std::move(on_held));
  } else {
    entry.pending_checkpoint = true;
    if (on_held != nullptr) {
      entry.pending_hold = std::move(on_held);
    }
  }
  // Logged once armed, so an observer of the event finds the signal set.
  if (log_ != nullptr) {
    log_->record(EventKind::kCheckpointRequested, "job=" + job_name);
  }
}

JobScheduler::Preemption JobScheduler::preempt(const std::string& job_name,
                                               int drain_node,
                                               int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  std::unique_lock<std::mutex> lock(running_mutex_);
  const auto it = running_.find(job_name);
  if (it == running_.end()) {
    return Preemption::kNotRunning;
  }
  Running& entry = it->second;
  const std::uint64_t launch = entry.launch;
  const bool launching = entry.program == nullptr;
  if (launching && drain_node >= 0) {
    // Its pool registers under this lock, so it has no group yet: failing
    // the node now would kill the job as it registers, before its
    // enabling SOP checkpoints. The launch's end fails it instead.
    entry.drain_at_end.push_back(drain_node);
    drain_node = -1;
  }
  // Runs on the last task to park at the held SOP, outside every lock.
  auto killed = std::make_shared<bool>(false);
  std::function<void()> kill = [this, job_name, drain_node, killed] {
    cluster_.kill_pool(job_name, "preempted by the scheduler");
    if (log_ != nullptr) {
      log_->record(EventKind::kJobPreempted, "job=" + job_name);
    }
    if (drain_node >= 0) {
      cluster_.fail_node(drain_node);  // before the pool is released
    }
    {
      const std::lock_guard<std::mutex> killed_lock(running_mutex_);
      *killed = true;
    }
    running_cv_.notify_all();
  };
  arm(job_name, entry, std::move(kill));
  if (launching) {
    return Preemption::kArmed;  // parks and is killed at its enabling SOP
  }

  const auto settled = [&] {
    const auto found = running_.find(job_name);
    return *killed || found == running_.end() ||
           found->second.launch != launch;
  };
  if (!running_cv_.wait_until(lock, deadline, settled) &&
      running_.at(job_name).program->release_hold()) {
    return Preemption::kTimedOut;
  }
  // Settled, or every task parked just as the wait timed out and the kill
  // is under way.
  running_cv_.wait(lock, settled);
  return *killed ? Preemption::kPreempted : Preemption::kNotRunning;
}

bool JobScheduler::preempt_job(const std::string& job_name, int timeout_ms) {
  const Preemption p = preempt(job_name, -1, timeout_ms);
  return p == Preemption::kPreempted || p == Preemption::kArmed;
}

bool JobScheduler::drain_node(int node, int timeout_ms) {
  const std::string job = cluster_.job_on_node(node);
  const Preemption p = job.empty() ? Preemption::kNotRunning
                                   : preempt(job, node, timeout_ms);
  if (p == Preemption::kTimedOut) {
    return false;
  }
  if (p != Preemption::kArmed) {
    cluster_.fail_node(node);  // a no-op when the preemption's kill did it
  }
  if (log_ != nullptr) {
    log_->record(EventKind::kNodeDrained, "node=" + std::to_string(node));
  }
  return true;
}

std::vector<int> JobScheduler::launch(const JobDescriptor& job) {
  const std::lock_guard<std::mutex> lock(running_mutex_);
  std::vector<int> nodes =
      cluster_.allocate(job.min_tasks, job.preferred_tasks, job.name);
  if (!nodes.empty()) {
    running_[job.name].launch = ++launches_;
  }
  return nodes;
}

void JobScheduler::end_launch(const std::string& job_name) {
  {
    const std::lock_guard<std::mutex> lock(running_mutex_);
    const auto it = running_.find(job_name);
    const std::vector<int> drained = std::move(it->second.drain_at_end);
    running_.erase(it);
    cluster_.deregister_pool(job_name);
    for (const int node : drained) {
      cluster_.fail_node(node);  // before the processors return to the pool
    }
    cluster_.release(job_name);
  }
  running_cv_.notify_all();
}

JobAttempt JobScheduler::run_attempt(const JobDescriptor& job,
                                     const std::vector<int>& nodes,
                                     int restarts) {
  std::unique_ptr<core::DrmsProgram> program;
  std::optional<rt::TaskGroup> group;
  // Declared after the program and the group, so the launch ends (and
  // running_ forgets the program) before either is destroyed.
  struct EndLaunch {
    JobScheduler& jsa;
    const std::string& name;
    ~EndLaunch() { jsa.end_launch(name); }
  } const launch_guard{*this, job.name};

  const int tasks = static_cast<int>(nodes.size());
  // Restart from the job's checkpoint whenever one exists (either from
  // a prior attempt of this invocation or from an earlier submission).
  core::DrmsEnv env = job.base_env;
  bool have_checkpoint = false;
  if (job.restart_from_latest) {
    const auto latest = core::latest_checkpoint(
        *env.storage, job.name, job.checkpoint_prefix);
    if (latest.has_value() &&
        latest->spmd == (env.mode == core::CheckpointMode::kSpmd)) {
      have_checkpoint = true;
      env.restart_prefix = latest->prefix;
    }
  } else {
    have_checkpoint =
        env.mode == core::CheckpointMode::kDrms
            ? core::checkpoint_exists(*env.storage, job.checkpoint_prefix)
            : core::spmd_checkpoint_exists(*env.storage,
                                           job.checkpoint_prefix);
    if (have_checkpoint) {
      env.restart_prefix = job.checkpoint_prefix;
    }
  }

  // A user callback: no JSA lock is held across it.
  program = job.make_program(env, tasks);
  DRMS_EXPECTS(program != nullptr);

  group.emplace(sim::Placement(cluster_.machine(), nodes),
                job.seed + static_cast<std::uint64_t>(restarts) * 7919);
  {
    const std::lock_guard<std::mutex> lock(running_mutex_);
    cluster_.register_pool(job.name, &*group);
    Running& entry = running_.at(job.name);
    entry.program = program.get();
    if (entry.pending_checkpoint) {
      program->enable_checkpoint(std::move(entry.pending_hold));
    }
  }
  if (log_ != nullptr) {
    log_->record(have_checkpoint ? EventKind::kJobRestarted
                                 : EventKind::kJobLaunched,
                 "job=" + job.name + " tasks=" + std::to_string(tasks));
  }

  const rt::TaskGroupResult result = group->run(
      [&](rt::TaskContext& ctx) { job.body(*program, ctx); });

  JobAttempt attempt;
  attempt.tasks = tasks;
  attempt.from_checkpoint = have_checkpoint;
  attempt.completed = result.completed;
  attempt.killed = result.killed;
  attempt.kill_reason = result.kill_reason;
  attempt.errors = result.errors;
  attempt.sim_seconds = result.sim_seconds;
  return attempt;
}

JobOutcome JobScheduler::run_job(const JobDescriptor& job) {
  DRMS_EXPECTS(job.make_program != nullptr && job.body != nullptr);
  DRMS_EXPECTS(!job.name.empty());
  DRMS_EXPECTS(job.base_env.storage != nullptr);
  DRMS_EXPECTS(job.min_tasks >= 1 &&
               job.preferred_tasks >= job.min_tasks);

  JobOutcome outcome;
  int restarts = 0;
  for (;;) {
    const std::vector<int> nodes = launch(job);
    if (nodes.empty()) {
      throw support::Error("JSA: fewer than " +
                           std::to_string(job.min_tasks) +
                           " processors available for job '" + job.name +
                           "'");
    }
    outcome.attempts.push_back(run_attempt(job, nodes, restarts));
    const JobAttempt& attempt = outcome.attempts.back();

    if (attempt.completed) {
      if (log_ != nullptr) {
        log_->record(EventKind::kJobCompleted, "job=" + job.name);
      }
      outcome.completed = true;
      return outcome;
    }
    if (!attempt.errors.empty()) {
      // An application bug, not a processor failure — do not retry.
      return outcome;
    }
    if (++restarts > job.max_restarts) {
      return outcome;
    }
    if (!core::checkpoint_exists(*job.base_env.storage,
                                 job.checkpoint_prefix) &&
        !core::spmd_checkpoint_exists(*job.base_env.storage,
                                      job.checkpoint_prefix) &&
        log_ != nullptr) {
      log_->record(EventKind::kJobFailedNoCheckpoint,
                   "job=" + job.name + " (restarting from scratch)");
    }
    // Loop: reallocate from the processors still available (the failed
    // node is out of the pool until repaired) and restart.
  }
}

}  // namespace drms::arch
