#include "arch/cluster.hpp"

#include <utility>

#include "support/error.hpp"

namespace drms::arch {

Cluster::Cluster(sim::Machine machine, EventLog* log)
    : machine_(machine),
      log_(log),
      tc_state_(static_cast<std::size_t>(machine.node_count),
                TcState::kConnected),
      allocated_(static_cast<std::size_t>(machine.node_count), false) {
  DRMS_EXPECTS(machine.node_count > 0);
}

void Cluster::record(EventKind kind, std::string detail) {
  if (log_ != nullptr) {
    log_->record(kind, std::move(detail));
  }
}

bool Cluster::node_up(int node) const {
  DRMS_EXPECTS(node >= 0 && node < node_count());
  const std::lock_guard<std::mutex> lock(mutex_);
  return tc_state_[static_cast<std::size_t>(node)] == TcState::kConnected;
}

int Cluster::available_processors() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  int n = 0;
  for (int node = 0; node < node_count(); ++node) {
    if (tc_state_[static_cast<std::size_t>(node)] == TcState::kConnected &&
        !allocated_[static_cast<std::size_t>(node)]) {
      ++n;
    }
  }
  return n;
}

std::vector<int> Cluster::allocate(int min_procs, int want,
                                   const std::string& job) {
  DRMS_EXPECTS(min_procs >= 1 && want >= min_procs);
  const std::lock_guard<std::mutex> lock(mutex_);
  DRMS_EXPECTS_MSG(pools_.count(job) == 0,
                   "job '" + job + "' already holds a processor pool");
  std::vector<int> nodes;
  for (int node = 0; node < node_count() &&
                     static_cast<int>(nodes.size()) < want;
       ++node) {
    if (tc_state_[static_cast<std::size_t>(node)] == TcState::kConnected &&
        !allocated_[static_cast<std::size_t>(node)]) {
      nodes.push_back(node);
    }
  }
  if (static_cast<int>(nodes.size()) < min_procs) {
    return {};
  }
  for (const int node : nodes) {
    allocated_[static_cast<std::size_t>(node)] = true;
  }
  pools_[job] = Pool{nodes, nullptr, {}};
  record(EventKind::kProcessorsAllocated,
         "job=" + job + " count=" + std::to_string(nodes.size()));
  return nodes;
}

void Cluster::release(const std::string& job) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = pools_.find(job);
  if (it == pools_.end()) {
    return;
  }
  for (const int node : it->second.nodes) {
    allocated_[static_cast<std::size_t>(node)] = false;
  }
  record(EventKind::kProcessorsReleased,
         "job=" + job + " count=" + std::to_string(it->second.nodes.size()));
  pools_.erase(it);
}

void Cluster::register_pool(const std::string& job, rt::TaskGroup* group) {
  DRMS_EXPECTS(group != nullptr);
  std::string pending_kill;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = pools_.find(job);
    DRMS_EXPECTS_MSG(it != pools_.end(),
                     "register_pool without an allocation for '" + job + "'");
    it->second.group = group;
    pending_kill = std::exchange(it->second.pending_kill, {});
  }
  if (!pending_kill.empty()) {
    group->kill(pending_kill);
  }
}

void Cluster::deregister_pool(const std::string& job) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = pools_.find(job);
  if (it != pools_.end()) {
    it->second.group = nullptr;
  }
}

void Cluster::fail_node(int node) {
  DRMS_EXPECTS(node >= 0 && node < node_count());
  const std::string reason =
      "lost connection to TC on node " + std::to_string(node);
  rt::TaskGroup* to_kill = nullptr;
  std::string victim_job;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (tc_state_[static_cast<std::size_t>(node)] != TcState::kConnected) {
      return;  // already down
    }
    tc_state_[static_cast<std::size_t>(node)] = TcState::kLost;
    record(EventKind::kTcLost, "node=" + std::to_string(node));

    // (1) Which application / TC pool owns the disconnected TC?
    for (auto& [job, pool] : pools_) {
      for (const int owned : pool.nodes) {
        if (owned == node) {
          victim_job = job;
          to_kill = pool.group;
          break;
        }
      }
      if (!victim_job.empty()) {
        break;
      }
    }
    if (!victim_job.empty()) {
      // (2)-(4): kill the whole pool's TCs; healthy ones restart and
      // reactivate immediately, the failed one waits for repair_node().
      auto& pool = pools_[victim_job];
      if (to_kill == nullptr && pool.pending_kill.empty()) {
        pool.pending_kill = reason;  // still launching: killed at register
      }
      for (const int owned : pool.nodes) {
        record(EventKind::kTcRestarting, "node=" + std::to_string(owned));
        if (owned != node) {
          record(EventKind::kTcReactivated,
                 "node=" + std::to_string(owned));
        }
      }
      record(EventKind::kPoolKilled,
             "job=" + victim_job + " nodes=" +
                 std::to_string(pool.nodes.size()));
      record(EventKind::kJobTerminated, "job=" + victim_job);
      record(EventKind::kUserInformed, "job=" + victim_job);
    }
  }
  // Kill outside the cluster lock: the group's task threads may be inside
  // runtime calls that complete before observing the kill.
  if (to_kill != nullptr) {
    to_kill->kill(reason);
  }
  // Node-loss notifications also fire outside the lock (a listener may
  // call back into the cluster).
  std::vector<std::function<void(int, const std::string&)>> listeners;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    listeners = failure_listeners_;
  }
  for (const auto& listener : listeners) {
    listener(node, victim_job);
  }
}

void Cluster::add_failure_listener(
    std::function<void(int node, const std::string& job)> fn) {
  const std::lock_guard<std::mutex> lock(mutex_);
  failure_listeners_.push_back(std::move(fn));
}

void Cluster::repair_node(int node) {
  DRMS_EXPECTS(node >= 0 && node < node_count());
  const std::lock_guard<std::mutex> lock(mutex_);
  if (tc_state_[static_cast<std::size_t>(node)] == TcState::kConnected) {
    return;
  }
  tc_state_[static_cast<std::size_t>(node)] = TcState::kConnected;
  allocated_[static_cast<std::size_t>(node)] = false;
  record(EventKind::kTcReactivated, "node=" + std::to_string(node));
}

std::string Cluster::job_on_node(int node) const {
  DRMS_EXPECTS(node >= 0 && node < node_count());
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [job, pool] : pools_) {
    for (const int owned : pool.nodes) {
      if (owned == node) {
        return job;
      }
    }
  }
  return "";
}

void Cluster::kill_pool(const std::string& job, const std::string& reason) {
  rt::TaskGroup* group = nullptr;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = pools_.find(job);
    if (it == pools_.end()) {
      return;
    }
    group = it->second.group;
    if (group == nullptr && it->second.pending_kill.empty()) {
      it->second.pending_kill = reason;
    }
  }
  if (group != nullptr) {
    group->kill(reason);
  }
}

std::vector<int> Cluster::nodes_of(const std::string& job) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = pools_.find(job);
  return it == pools_.end() ? std::vector<int>{} : it->second.nodes;
}

}  // namespace drms::arch
