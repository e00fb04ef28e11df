// The Job Scheduler and Analyzer (JSA): assigns processors to
// applications and exploits reconfigurable checkpointing in the three
// ways §4 lists — user-driven checkpoint/restart, system-initiated
// checkpointing for dynamic resource management (the enabling signal of
// drms_reconfig_chkenable), and automatic restart of failed applications
// from their latest checkpoint on whatever processors remain available.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "arch/cluster.hpp"
#include "core/drms_context.hpp"

namespace drms::arch {

struct JobDescriptor {
  std::string name;
  /// Valid task-count range of the application's SOQs (the resource
  /// section of §2.1).
  int min_tasks = 1;
  int preferred_tasks = 8;
  /// Checkpoint prefix this job writes to / restarts from.
  std::string checkpoint_prefix;
  /// When true, the JSA consults the checkpoint catalog and restarts from
  /// the HIGHEST-SOP state whose app name matches (prefix acts as a
  /// filter) — the natural policy when the application alternates between
  /// several prefixes. When false, exactly `checkpoint_prefix` is used.
  bool restart_from_latest = false;
  /// Environment template; the JSA fills in restart_prefix per attempt.
  core::DrmsEnv base_env;
  /// Build the shared program state for one attempt (given env and task
  /// count).
  std::function<std::unique_ptr<core::DrmsProgram>(core::DrmsEnv, int)>
      make_program;
  /// SPMD body run by every task of the attempt.
  std::function<void(core::DrmsProgram&, rt::TaskContext&)> body;
  /// Give up after this many failure-triggered relaunches.
  int max_restarts = 5;
  std::uint64_t seed = 1;
};

struct JobAttempt {
  int tasks = 0;
  bool from_checkpoint = false;
  bool completed = false;
  bool killed = false;
  std::string kill_reason;
  std::vector<std::string> errors;
  double sim_seconds = 0.0;
};

struct JobOutcome {
  bool completed = false;
  std::vector<JobAttempt> attempts;
};

class JobScheduler {
 public:
  JobScheduler(Cluster& cluster, EventLog* log);

  /// Run a job to completion, transparently recovering from processor
  /// failures by restarting from the latest checkpoint on the processors
  /// still available (reconfigured restart). Blocking.
  JobOutcome run_job(const JobDescriptor& job);

  // A job counts as running from the moment its processors are
  // allocated until they are released, exactly while the cluster reports
  // it (Cluster::nodes_of / job_on_node). While it is still launching
  // (make_program has not returned yet) it has no program to signal;
  // requests made then are recorded and handed to the program when it
  // registers.

  /// Arm the system-initiated checkpoint signal on a running job (the
  /// next drms_reconfig_chkenable SOP will take a checkpoint). Returns
  /// false when the job is not currently running.
  bool request_checkpoint(const std::string& job_name);

  /// Preempt a running job: arm its enabling signal with a hold. The next
  /// drms_reconfig_chkenable SOP checkpoints, then every task parks; once
  /// all have parked the pool is killed, and the surrounding run_job loop
  /// relaunches the job from that checkpoint — on however many processors
  /// are then available. Blocks until the kill (true), until the job
  /// ends on its own first (false), or for `timeout_ms`, after which the
  /// hold is lifted, the signal disarmed and the call returns false. A job
  /// still launching is preempted at its first enabling SOP; the call
  /// records that and returns true at once. The parked handshake itself
  /// guarantees a fresh checkpoint. Used for scheduler-driven shrinking
  /// and node maintenance (§8).
  bool preempt_job(const std::string& job_name, int timeout_ms = 10000);

  /// Drain a node for maintenance: preempt the job running on it (if
  /// any), then fail the node so allocations avoid it until repair. A
  /// running job is killed at its held SOP and the node fails before its
  /// processors return to the pool, so the relaunch never lands on it. A
  /// job still launching is evicted at its first enabling SOP, and the
  /// node fails when that launch ends (failing it at once would kill the
  /// job as its group registers, before it checkpoints). A node held by
  /// an allocation outside the JSA is failed directly. Returns false, and
  /// leaves the node up, only when the preemption times out.
  bool drain_node(int node, int timeout_ms = 10000);

 private:
  /// A job from allocate() to release(). `program` is null while the job
  /// launches; a signal requested meanwhile waits in `pending_checkpoint`
  /// (with a preemption's kill in `pending_hold`). `drain_at_end` lists
  /// nodes drained while the job launched, failed when the launch ends.
  struct Running {
    std::uint64_t launch = 0;
    core::DrmsProgram* program = nullptr;
    bool pending_checkpoint = false;
    std::function<void()> pending_hold;
    std::vector<int> drain_at_end;
  };
  /// kPreempted: killed at the held SOP. kArmed: the job is still
  /// launching and will be killed at its first enabling SOP.
  enum class Preemption { kPreempted, kArmed, kNotRunning, kTimedOut };

  /// Allocate processors and enter the job into running_ as one step.
  [[nodiscard]] std::vector<int> launch(const JobDescriptor& job);
  /// Build, register and run one attempt on `nodes`; the launch ends
  /// (running_ entry, pool and allocation gone) before it returns or
  /// throws.
  JobAttempt run_attempt(const JobDescriptor& job,
                         const std::vector<int>& nodes, int restarts);
  void end_launch(const std::string& job_name);
  /// Arm the enabling signal (with the hold `on_held`, if any) on the
  /// job's program, or record it while the job launches. Caller holds
  /// running_mutex_.
  void arm(const std::string& job_name, Running& entry,
           std::function<void()> on_held);
  /// Preempt `job_name`; with `drain_node` >= 0 that node also fails,
  /// before the job's processors return to the pool.
  Preemption preempt(const std::string& job_name, int drain_node,
                     int timeout_ms);

  Cluster& cluster_;
  EventLog* log_;
  std::mutex running_mutex_;
  /// Signalled when a launch ends and when a preemption's kill lands.
  std::condition_variable running_cv_;
  std::uint64_t launches_ = 0;
  std::map<std::string, Running> running_;
};

}  // namespace drms::arch
