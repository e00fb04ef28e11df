// The DRMS controlling infrastructure (Figure 6): one Task Coordinator
// (TC) per processor and the master Resource Coordinator (RC).
//
// Failure model (§4): the basic failure event is a processor failure,
// detected as the loss of the connection between that processor's TC and
// the RC. On detection the RC (1) identifies the application and TC pool
// of the lost TC, (2) kills every process of that application and all TCs
// of the pool — the application is terminated, (3) informs the user,
// (4) restarts the killed TCs (the failed processor needs repair first),
// and (5) returns each reactivated processor to the available pool. The
// application restart does NOT wait for the failed processor.
#pragma once

#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "arch/events.hpp"
#include "rt/task_group.hpp"
#include "sim/machine.hpp"

namespace drms::arch {

enum class TcState {
  kConnected,   // TC up, processor available or allocated
  kLost,        // connection lost (processor failed); awaiting repair
  kRestarting,  // TC killed by the RC during pool teardown; reactivates
};

class Cluster {
 public:
  Cluster(sim::Machine machine, EventLog* log);

  [[nodiscard]] const sim::Machine& machine() const noexcept {
    return machine_;
  }
  [[nodiscard]] int node_count() const noexcept {
    return machine_.node_count;
  }
  [[nodiscard]] bool node_up(int node) const;
  [[nodiscard]] int available_processors() const;

  /// RC: allocate up to `want` processors for `job` (at least `min`).
  /// Returns the node list, or an empty vector when fewer than `min` are
  /// available.
  [[nodiscard]] std::vector<int> allocate(int min_procs, int want,
                                          const std::string& job);
  /// RC: return a job's processors to the pool (failed nodes stay down).
  void release(const std::string& job);

  /// RC: associate the running task group with the job's TC pool so a TC
  /// loss can kill it. The group must outlive the pool registration. A
  /// kill that reached the pool before its group registered (a node lost,
  /// or kill_pool, while the job launched) kills the group here.
  void register_pool(const std::string& job, rt::TaskGroup* group);
  void deregister_pool(const std::string& job);

  /// RC node-loss notification: `fn(node, job)` fires on every
  /// fail_node that severs a live TC connection (`job` is the owning
  /// pool's name, "" for idle nodes), after the RC teardown protocol and
  /// outside the cluster lock. Feeds the adaptive failure-rate
  /// estimator (DESIGN.md §4k). Listeners must outlive the cluster.
  void add_failure_listener(
      std::function<void(int node, const std::string& job)> fn);

  /// Sever the TC connection on `node` (the failure injection). If a pool
  /// is running on the node, the RC teardown protocol fires.
  void fail_node(int node);
  /// Complete the repair of a failed processor; its TC reactivates and the
  /// node returns to the available pool.
  void repair_node(int node);

  /// Nodes currently allocated to `job` (empty if none).
  [[nodiscard]] std::vector<int> nodes_of(const std::string& job) const;

  /// Job whose pool contains `node` ("" when idle).
  [[nodiscard]] std::string job_on_node(int node) const;

  /// Kill a job's running group without failing any node (scheduler
  /// preemption). A pool whose group has not registered yet is killed at
  /// registration; no-op when the job holds no pool.
  void kill_pool(const std::string& job, const std::string& reason);

 private:
  struct Pool {
    std::vector<int> nodes;
    rt::TaskGroup* group = nullptr;  // null until register_pool
    /// Reason of a kill that landed before the group registered.
    std::string pending_kill;
  };

  void record(EventKind kind, std::string detail);

  sim::Machine machine_;
  EventLog* log_;
  mutable std::mutex mutex_;
  std::vector<TcState> tc_state_;
  std::vector<bool> allocated_;
  std::map<std::string, Pool> pools_;
  std::vector<std::function<void(int, const std::string&)>>
      failure_listeners_;
};

}  // namespace drms::arch
