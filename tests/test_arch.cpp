// Tests for the DRMS infrastructure (§4): processor pools, the RC's
// failure-detection/teardown protocol, and the JSA's reconfigured restart
// of failed applications from their latest checkpoint.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <thread>

#include "apps/solver.hpp"
#include "arch/cluster.hpp"
#include "arch/scheduler.hpp"
#include "arch/uic.hpp"
#include "support/error.hpp"
#include "test_helpers.hpp"

namespace {

using namespace drms::arch;
using drms::apps::AppSpec;
using drms::apps::SolverOptions;
using drms::apps::SolverOutcome;
using drms::core::CheckpointMode;
using drms::core::DrmsEnv;
using Volume = drms::test::TestVolume;
using drms::sim::Machine;

TEST(Cluster, AllocateAndRelease) {
  EventLog log;
  Cluster cluster(Machine::paper_sp16(), &log);
  EXPECT_EQ(cluster.available_processors(), 16);

  const auto nodes = cluster.allocate(4, 8, "job1");
  EXPECT_EQ(nodes.size(), 8u);
  EXPECT_EQ(cluster.available_processors(), 8);
  EXPECT_EQ(cluster.nodes_of("job1").size(), 8u);

  const auto more = cluster.allocate(4, 12, "job2");
  EXPECT_EQ(more.size(), 8u);  // capped by availability
  EXPECT_EQ(cluster.available_processors(), 0);

  cluster.release("job1");
  EXPECT_EQ(cluster.available_processors(), 8);
  cluster.release("job2");
  EXPECT_EQ(cluster.available_processors(), 16);
  EXPECT_EQ(log.count(EventKind::kProcessorsAllocated), 2);
  EXPECT_EQ(log.count(EventKind::kProcessorsReleased), 2);
}

TEST(Cluster, AllocationBelowMinimumReturnsEmpty) {
  Cluster cluster(Machine::paper_sp16(), nullptr);
  (void)cluster.allocate(1, 14, "big");
  EXPECT_TRUE(cluster.allocate(4, 8, "small").empty());
  EXPECT_EQ(cluster.available_processors(), 2);  // nothing was taken
}

TEST(Cluster, FailedNodeLeavesThePool) {
  EventLog log;
  Cluster cluster(Machine::paper_sp16(), &log);
  cluster.fail_node(3);
  EXPECT_FALSE(cluster.node_up(3));
  EXPECT_EQ(cluster.available_processors(), 15);
  EXPECT_EQ(log.count(EventKind::kTcLost), 1);

  // Allocation avoids the failed node.
  const auto nodes = cluster.allocate(16, 16, "all");
  EXPECT_TRUE(nodes.empty());
  const auto some = cluster.allocate(15, 15, "most");
  EXPECT_EQ(some.size(), 15u);
  for (const int n : some) {
    EXPECT_NE(n, 3);
  }
  cluster.release("most");

  cluster.repair_node(3);
  EXPECT_TRUE(cluster.node_up(3));
  EXPECT_EQ(cluster.available_processors(), 16);
  EXPECT_GE(log.count(EventKind::kTcReactivated), 1);
}

TEST(Cluster, FailureKillsTheOwningPool) {
  EventLog log;
  Cluster cluster(Machine::paper_sp16(), &log);
  const auto nodes = cluster.allocate(4, 4, "victim");
  ASSERT_EQ(nodes.size(), 4u);

  drms::rt::TaskGroup group(
      drms::sim::Placement(cluster.machine(), nodes));
  cluster.register_pool("victim", &group);

  std::thread injector([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    cluster.fail_node(nodes[2]);
  });
  const auto result = group.run([](drms::rt::TaskContext& ctx) {
    for (;;) {
      ctx.check_killed();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  injector.join();
  EXPECT_TRUE(result.killed);
  EXPECT_NE(result.kill_reason.find("lost connection to TC"),
            std::string::npos);
  // The RC protocol of §4 fired, in order.
  EXPECT_EQ(log.count(EventKind::kTcLost), 1);
  EXPECT_EQ(log.count(EventKind::kPoolKilled), 1);
  EXPECT_EQ(log.count(EventKind::kJobTerminated), 1);
  EXPECT_EQ(log.count(EventKind::kUserInformed), 1);
  EXPECT_EQ(log.count(EventKind::kTcRestarting), 4);   // whole pool
  EXPECT_EQ(log.count(EventKind::kTcReactivated), 3);  // healthy nodes
  cluster.deregister_pool("victim");
  cluster.release("victim");
  // Failed node still out until repaired.
  EXPECT_EQ(cluster.available_processors(), 15);
}

TEST(Cluster, FailingAnIdleNodeKillsNothing) {
  EventLog log;
  Cluster cluster(Machine::paper_sp16(), &log);
  cluster.fail_node(9);
  EXPECT_EQ(log.count(EventKind::kPoolKilled), 0);
  cluster.fail_node(9);  // idempotent
  EXPECT_EQ(log.count(EventKind::kTcLost), 1);
}

/// Standard solver job used by the scheduler tests.
JobDescriptor solver_job(Volume& volume, const SolverOptions& options,
                         std::shared_ptr<SolverOutcome> last_outcome,
                         int preferred_tasks) {
  JobDescriptor job;
  job.name = options.spec.name;
  job.min_tasks = 2;
  job.preferred_tasks = preferred_tasks;
  job.checkpoint_prefix = options.prefix;
  job.base_env.storage = &volume.backend();
  job.make_program = [options](DrmsEnv env, int tasks) {
    return drms::apps::make_program(options, env, tasks);
  };
  job.body = [options, last_outcome](drms::core::DrmsProgram& program,
                                     drms::rt::TaskContext& ctx) {
    const SolverOutcome out = drms::apps::run_solver(program, ctx, options);
    if (ctx.rank() == 0 && last_outcome != nullptr) {
      *last_outcome = out;
    }
  };
  return job;
}

TEST(JobScheduler, RunsAJobToCompletion) {
  EventLog log;
  Cluster cluster(Machine::paper_sp16(), &log);
  JobScheduler jsa(cluster, &log);
  Volume volume(16);

  SolverOptions options;
  options.spec = AppSpec::sp();
  options.n = 8;
  options.iterations = 8;
  options.checkpoint_every = 4;
  options.prefix = "job.sp";
  auto outcome_slot = std::make_shared<SolverOutcome>();

  const JobOutcome outcome =
      jsa.run_job(solver_job(volume, options, outcome_slot, 4));
  EXPECT_TRUE(outcome.completed);
  ASSERT_EQ(outcome.attempts.size(), 1u);
  EXPECT_EQ(outcome.attempts[0].tasks, 4);
  EXPECT_FALSE(outcome.attempts[0].from_checkpoint);
  EXPECT_EQ(log.count(EventKind::kJobLaunched), 1);
  EXPECT_EQ(log.count(EventKind::kJobCompleted), 1);
  EXPECT_EQ(cluster.available_processors(), 16);  // everything returned
  EXPECT_NE(outcome_slot->field_crc, 0u);
}

TEST(JobScheduler, InsufficientProcessorsThrows) {
  Cluster cluster(Machine::paper_sp16(), nullptr);
  (void)cluster.allocate(1, 15, "hog");
  JobScheduler jsa(cluster, nullptr);
  Volume volume(16);
  SolverOptions options;
  options.spec = AppSpec::sp();
  options.n = 8;
  options.iterations = 2;
  EXPECT_THROW((void)jsa.run_job(solver_job(volume, options, nullptr, 4)),
               drms::support::Error);
}

TEST(JobScheduler, RecoversFromFailureViaReconfiguredRestart) {
  EventLog log;
  Cluster cluster(Machine::paper_sp16(), &log);
  JobScheduler jsa(cluster, &log);
  Volume volume(16);

  constexpr int kIters = 12;
  // Reference: uninterrupted run on 4 tasks.
  std::uint32_t reference_crc = 0;
  {
    Volume ref_volume(16);
    SolverOptions ref;
    ref.spec = AppSpec::bt();
    ref.n = 8;
    ref.iterations = kIters;
    ref.checkpoint_every = 5;
    ref.prefix = "ref";
    auto slot = std::make_shared<SolverOutcome>();
    JobScheduler ref_jsa(cluster, nullptr);
    const auto out = ref_jsa.run_job(solver_job(ref_volume, ref, slot, 4));
    ASSERT_TRUE(out.completed);
    reference_crc = slot->field_crc;
  }

  // Failure-injected run: the solver blocks at iteration 6 (after the
  // it=5 checkpoint) until the RC kills it; the relaunch must restart
  // from the checkpoint on the 3 remaining processors of the 4-node
  // machine slice we give it.
  std::atomic<bool> injected{false};
  std::atomic<bool> ready_for_failure{false};
  SolverOptions options;
  options.spec = AppSpec::bt();
  options.n = 8;
  options.iterations = kIters;
  options.checkpoint_every = 5;
  options.prefix = "job.bt";
  options.on_iteration = [&](std::int64_t it, drms::rt::TaskContext& ctx) {
    if (!injected.load() && it >= 6) {
      if (ctx.rank() == 0) {
        ready_for_failure.store(true);
      }
      for (;;) {
        ctx.check_killed();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  };
  auto slot = std::make_shared<SolverOutcome>();
  const JobDescriptor job = solver_job(volume, options, slot, 4);

  std::thread injector([&] {
    while (!ready_for_failure.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const auto nodes = cluster.nodes_of("BT");
    ASSERT_FALSE(nodes.empty());
    injected.store(true);
    cluster.fail_node(nodes[1]);
  });
  const JobOutcome outcome = jsa.run_job(job);
  injector.join();

  EXPECT_TRUE(outcome.completed);
  ASSERT_EQ(outcome.attempts.size(), 2u);
  EXPECT_TRUE(outcome.attempts[0].killed);
  EXPECT_EQ(outcome.attempts[0].tasks, 4);
  EXPECT_TRUE(outcome.attempts[1].from_checkpoint);
  EXPECT_EQ(outcome.attempts[1].tasks, 4);  // 15 nodes free, wants 4
  EXPECT_EQ(log.count(EventKind::kJobRestarted), 1);
  EXPECT_EQ(log.count(EventKind::kPoolKilled), 1);
  // The restarted run resumed from it=5 and finished identically.
  EXPECT_TRUE(slot->restarted);
  EXPECT_EQ(slot->start_iteration, 5);
  EXPECT_EQ(slot->field_crc, reference_crc);
}

TEST(JobScheduler, RestartShrinksWhenProcessorsAreScarce) {
  EventLog log;
  Cluster cluster(Machine::paper_sp16(), &log);
  JobScheduler jsa(cluster, &log);
  Volume volume(16);

  // Occupy 12 nodes so the job gets exactly 4; after one fails, only 3
  // remain for the restart -> delta = -1.
  (void)cluster.allocate(1, 12, "hog");

  std::atomic<bool> injected{false};
  std::atomic<bool> ready{false};
  SolverOptions options;
  options.spec = AppSpec::sp();
  options.n = 8;
  options.iterations = 10;
  options.checkpoint_every = 5;
  options.prefix = "job.shrink";
  options.on_iteration = [&](std::int64_t it, drms::rt::TaskContext& ctx) {
    if (!injected.load() && it >= 6) {
      if (ctx.rank() == 0) {
        ready.store(true);
      }
      for (;;) {
        ctx.check_killed();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  };
  auto slot = std::make_shared<SolverOutcome>();
  const JobDescriptor job = solver_job(volume, options, slot, 4);

  std::thread injector([&] {
    while (!ready.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const auto nodes = cluster.nodes_of("SP");
    ASSERT_FALSE(nodes.empty());
    injected.store(true);
    cluster.fail_node(nodes[0]);
  });
  const JobOutcome outcome = jsa.run_job(job);
  injector.join();

  EXPECT_TRUE(outcome.completed);
  ASSERT_EQ(outcome.attempts.size(), 2u);
  EXPECT_EQ(outcome.attempts[1].tasks, 3);
  EXPECT_TRUE(slot->restarted);
  EXPECT_EQ(slot->delta, -1);
}

TEST(JobScheduler, SystemInitiatedCheckpointViaChkenable) {
  EventLog log;
  Cluster cluster(Machine::paper_sp16(), &log);
  JobScheduler jsa(cluster, &log);
  Volume volume(16);

  SolverOptions options;
  options.spec = AppSpec::lu();
  options.n = 8;
  options.iterations = 14;
  options.checkpoint_every = 3;
  options.prefix = "sys.lu";
  options.use_chkenable = true;
  options.compute_field_crc = false;
  // Arm the system signal once, between SOPs, from iteration 4 (the JSA's
  // request is asynchronous in production; issuing it from the running
  // body keeps the test deterministic). The it=6 SOP consumes it.
  options.on_iteration = [&](std::int64_t it, drms::rt::TaskContext& ctx) {
    if (it == 4 && ctx.rank() == 0) {
      EXPECT_TRUE(jsa.request_checkpoint("LU"));
    }
  };
  auto slot = std::make_shared<SolverOutcome>();
  const JobDescriptor job = solver_job(volume, options, slot, 3);
  const JobOutcome outcome = jsa.run_job(job);

  EXPECT_TRUE(outcome.completed);
  EXPECT_EQ(log.count(EventKind::kCheckpointRequested), 1);
  // The one-shot signal fired at exactly one SOP.
  EXPECT_EQ(slot->checkpoints_written, 1);
  EXPECT_TRUE(drms::core::checkpoint_exists(volume, "sys.lu"));
}

TEST(JobScheduler, PreemptionShrinksARunningJob) {
  EventLog log;
  Cluster cluster(Machine::paper_sp16(), &log);
  JobScheduler jsa(cluster, &log);
  Volume volume(16);

  // Occupy 8 nodes so the job starts on the remaining 8; after preemption
  // we grab 4 more so the relaunch only finds 4.
  (void)cluster.allocate(1, 8, "hog");

  SolverOptions options;
  options.spec = AppSpec::sp();
  options.n = 8;
  options.iterations = 40;
  options.checkpoint_every = 4;
  options.prefix = "pre.sp";
  options.use_chkenable = true;
  options.compute_field_crc = false;
  // Slow the job down a touch so the preemption lands mid-run.
  options.on_iteration = [](std::int64_t, drms::rt::TaskContext&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  auto slot = std::make_shared<SolverOutcome>();
  JobDescriptor job = solver_job(volume, options, slot, 8);
  job.restart_from_latest = true;

  std::thread scheduler_thread([&] {
    // Wait for the job to be running, then preempt and squeeze it.
    while (cluster.nodes_of("SP").empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(jsa.preempt_job("SP", volume, "pre.sp", 0));
    // Take 4 of the released nodes before the relaunch can.
    while (cluster.nodes_of("SP").size() != 0 &&
           cluster.available_processors() < 8) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  const JobOutcome outcome = jsa.run_job(job);
  scheduler_thread.join();

  EXPECT_TRUE(outcome.completed);
  ASSERT_GE(outcome.attempts.size(), 2u);
  EXPECT_TRUE(outcome.attempts[0].killed);
  EXPECT_NE(outcome.attempts[0].kill_reason.find("preempted"),
            std::string::npos);
  EXPECT_TRUE(outcome.attempts[1].from_checkpoint);
  EXPECT_TRUE(slot->restarted);
  EXPECT_GT(slot->start_iteration, 0);
  EXPECT_EQ(log.count(EventKind::kJobPreempted), 1);
  EXPECT_EQ(log.count(EventKind::kCheckpointRequested), 1);
}

TEST(JobScheduler, DrainNodeEvictsAndFailsIt) {
  EventLog log;
  Cluster cluster(Machine::paper_sp16(), &log);
  JobScheduler jsa(cluster, &log);
  Volume volume(16);

  SolverOptions options;
  options.spec = AppSpec::bt();
  options.n = 8;
  options.iterations = 40;
  options.checkpoint_every = 4;
  options.prefix = "drain.bt";
  options.use_chkenable = true;
  options.compute_field_crc = false;
  options.on_iteration = [](std::int64_t, drms::rt::TaskContext&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  auto slot = std::make_shared<SolverOutcome>();
  JobDescriptor job = solver_job(volume, options, slot, 4);
  job.restart_from_latest = true;

  int drained_node = -1;
  std::thread maintenance([&] {
    while (cluster.nodes_of("BT").empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    drained_node = cluster.nodes_of("BT")[1];
    EXPECT_TRUE(jsa.drain_node(drained_node, volume, "drain.bt", 0));
  });
  const JobOutcome outcome = jsa.run_job(job);
  maintenance.join();

  EXPECT_TRUE(outcome.completed);
  ASSERT_GE(outcome.attempts.size(), 2u);
  EXPECT_TRUE(outcome.attempts[1].from_checkpoint);
  EXPECT_TRUE(slot->restarted);
  EXPECT_FALSE(cluster.node_up(drained_node));
  EXPECT_EQ(log.count(EventKind::kNodeDrained), 1);
  cluster.repair_node(drained_node);
  EXPECT_TRUE(cluster.node_up(drained_node));
}

/// Holds a job's first make_program call until another thread has acted
/// on the job, which opens the launch window (processors allocated, no
/// program yet) deterministically.
struct LaunchGate {
  std::latch launching{1};
  std::latch open{1};
  std::atomic<bool> first{true};

  void wrap(JobDescriptor& job) {
    job.make_program = [this, make = job.make_program](DrmsEnv env,
                                                       int tasks) {
      if (first.exchange(false)) {
        launching.count_down();
        open.wait();
      }
      return make(env, tasks);
    };
  }
};

TEST(JobScheduler, CheckpointRequestReachesAJobStillLaunching) {
  EventLog log;
  Cluster cluster(Machine::paper_sp16(), &log);
  JobScheduler jsa(cluster, &log);
  Volume volume(16);

  SolverOptions options;
  options.spec = AppSpec::lu();
  options.n = 8;
  options.iterations = 8;
  options.checkpoint_every = 3;
  options.prefix = "launch.lu";
  options.use_chkenable = true;
  options.compute_field_crc = false;
  auto slot = std::make_shared<SolverOutcome>();
  JobDescriptor job = solver_job(volume, options, slot, 3);
  LaunchGate gate;
  gate.wrap(job);

  bool requested = false;
  std::thread requester([&] {
    gate.launching.wait();
    requested = jsa.request_checkpoint("LU");
    gate.open.count_down();
  });
  const JobOutcome outcome = jsa.run_job(job);
  requester.join();

  EXPECT_TRUE(requested);
  EXPECT_TRUE(outcome.completed);
  ASSERT_EQ(outcome.attempts.size(), 1u);
  // Registration handed the pending signal to the program; the first
  // enabling SOP (it=3) consumed it.
  EXPECT_EQ(slot->checkpoints_written, 1);
  EXPECT_TRUE(drms::core::checkpoint_exists(volume, "launch.lu"));
}

TEST(JobScheduler, DrainNodeEvictsAJobStillLaunching) {
  EventLog log;
  Cluster cluster(Machine::paper_sp16(), &log);
  JobScheduler jsa(cluster, &log);
  Volume volume(16);

  SolverOptions options;
  options.spec = AppSpec::bt();
  options.n = 8;
  options.iterations = 12;
  options.checkpoint_every = 4;
  options.prefix = "launch.bt";
  options.use_chkenable = true;
  options.compute_field_crc = false;
  auto slot = std::make_shared<SolverOutcome>();
  JobDescriptor job = solver_job(volume, options, slot, 4);
  job.restart_from_latest = true;
  LaunchGate gate;
  gate.wrap(job);

  int drained_node = -1;
  bool drained = false;
  std::thread maintenance([&] {
    gate.launching.wait();
    drained_node = cluster.nodes_of("BT")[1];
    drained = jsa.drain_node(drained_node, volume, "launch.bt", 0);
    gate.open.count_down();
  });
  const JobOutcome outcome = jsa.run_job(job);
  maintenance.join();

  EXPECT_TRUE(drained);
  EXPECT_FALSE(cluster.node_up(drained_node));
  EXPECT_EQ(log.count(EventKind::kNodeDrained), 1);
  EXPECT_TRUE(outcome.completed);
  ASSERT_EQ(outcome.attempts.size(), 2u);
  EXPECT_TRUE(outcome.attempts[0].killed);
  EXPECT_NE(outcome.attempts[0].kill_reason.find("preempted"),
            std::string::npos);
  // The held signal reached the program: it checkpointed at its first
  // enabling SOP and the relaunch resumed there.
  EXPECT_TRUE(outcome.attempts[1].from_checkpoint);
  EXPECT_EQ(slot->start_iteration, 4);
}

TEST(JobScheduler, DrainNodeFailsANodeHeldOutsideTheJsa) {
  EventLog log;
  Cluster cluster(Machine::paper_sp16(), &log);
  JobScheduler jsa(cluster, &log);
  Volume volume(16);
  const std::vector<int> nodes = cluster.allocate(1, 2, "hog");
  ASSERT_EQ(nodes.size(), 2u);

  EXPECT_TRUE(jsa.drain_node(nodes[0], volume, "hog", 0));
  EXPECT_FALSE(cluster.node_up(nodes[0]));
  EXPECT_TRUE(cluster.node_up(nodes[1]));
  EXPECT_EQ(log.count(EventKind::kNodeDrained), 1);
}

TEST(JobScheduler, PreemptionHoldsTheJobAtItsEnablingSop) {
  EventLog log;
  Cluster cluster(Machine::paper_sp16(), &log);
  JobScheduler jsa(cluster, &log);
  Volume volume(16);

  // The only enabling SOP is the last but one iteration: a job left
  // running past it would finish before any kill could land.
  constexpr std::int64_t kSop = 8;
  SolverOptions options;
  options.spec = AppSpec::sp();
  options.n = 8;
  options.iterations = static_cast<int>(kSop) + 2;
  options.checkpoint_every = static_cast<int>(kSop);
  options.prefix = "hold.sp";
  options.use_chkenable = true;
  options.compute_field_crc = false;
  std::latch reached{1};
  std::atomic<bool> first{true};
  std::atomic<int> ran_past_sop{0};
  // Rank 0 waits just before the SOP until the preemption has armed the
  // signal, so the SOP is the one that takes it.
  options.on_iteration = [&](std::int64_t it, drms::rt::TaskContext& ctx) {
    if (ctx.rank() != 0) {
      return;
    }
    if (it == kSop) {
      ++ran_past_sop;
    }
    if (it == kSop - 1 && first.exchange(false)) {
      reached.count_down();
      while (log.count(EventKind::kCheckpointRequested) == 0) {
        ctx.check_killed();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  };
  auto slot = std::make_shared<SolverOutcome>();
  JobDescriptor job = solver_job(volume, options, slot, 4);
  job.restart_from_latest = true;
  // Checkpoints the killed attempt had finished when the kill reached
  // rank 0: a kill landing before the SOP returned leaves it at 0.
  std::atomic<int> killed_after_checkpoints{-1};
  job.body = [body = job.body, &killed_after_checkpoints](
                 drms::core::DrmsProgram& program,
                 drms::rt::TaskContext& ctx) {
    try {
      body(program, ctx);
    } catch (const drms::support::TaskKilled&) {
      if (ctx.rank() == 0) {
        killed_after_checkpoints = program.checkpoints_written();
      }
      throw;
    }
  };

  bool preempted = false;
  std::thread scheduler_thread([&] {
    reached.wait();
    preempted = jsa.preempt_job("SP", volume, "hold.sp", 0);
  });
  const JobOutcome outcome = jsa.run_job(job);
  scheduler_thread.join();

  EXPECT_TRUE(preempted);
  EXPECT_TRUE(outcome.completed);
  ASSERT_EQ(outcome.attempts.size(), 2u);
  EXPECT_TRUE(outcome.attempts[0].killed);
  EXPECT_NE(outcome.attempts[0].kill_reason.find("preempted"),
            std::string::npos);
  EXPECT_TRUE(outcome.attempts[1].from_checkpoint);
  EXPECT_TRUE(slot->restarted);
  EXPECT_EQ(slot->start_iteration, kSop);
  // The held attempt completed its SOP and was killed there, parked: it
  // never ran past it; only the relaunch did.
  EXPECT_EQ(killed_after_checkpoints.load(), 1);
  EXPECT_EQ(ran_past_sop.load(), 1);
  EXPECT_EQ(log.count(EventKind::kJobPreempted), 1);
}

TEST(JobScheduler, PreemptionTimeoutLiftsTheHoldAndDisarms) {
  EventLog log;
  Cluster cluster(Machine::paper_sp16(), &log);
  JobScheduler jsa(cluster, &log);
  Volume volume(16);

  SolverOptions options;
  options.spec = AppSpec::lu();
  options.n = 8;
  options.iterations = 8;
  options.checkpoint_every = 4;
  options.prefix = "timeout.lu";
  options.use_chkenable = true;
  options.compute_field_crc = false;
  std::latch reached{1};
  std::latch returned{1};
  // Rank 0 stays before the it=4 SOP until preempt_job has given up, so
  // no task can park in time.
  options.on_iteration = [&](std::int64_t it, drms::rt::TaskContext& ctx) {
    if (it == 2 && ctx.rank() == 0) {
      reached.count_down();
      returned.wait();
    }
  };
  auto slot = std::make_shared<SolverOutcome>();
  const JobDescriptor job = solver_job(volume, options, slot, 3);

  bool preempted = true;
  std::thread scheduler_thread([&] {
    reached.wait();
    preempted = jsa.preempt_job("LU", volume, "timeout.lu", 0, 50);
    returned.count_down();
  });
  const JobOutcome outcome = jsa.run_job(job);
  scheduler_thread.join();

  EXPECT_FALSE(preempted);
  EXPECT_TRUE(outcome.completed);
  ASSERT_EQ(outcome.attempts.size(), 1u);
  // The timed-out request was disarmed: the SOP after it took nothing.
  EXPECT_EQ(slot->checkpoints_written, 0);
  EXPECT_EQ(log.count(EventKind::kJobPreempted), 0);
}

TEST(Uic, FacadeWiresEverything) {
  EventLog log;
  Cluster cluster(Machine::paper_sp16(), &log);
  JobScheduler jsa(cluster, &log);
  Volume volume(16);
  Uic uic(cluster, jsa, volume, log);

  EXPECT_EQ(uic.available_processors(), 16);
  uic.admin_fail_node(5);
  EXPECT_EQ(uic.available_processors(), 15);
  uic.admin_repair_node(5);
  EXPECT_EQ(uic.available_processors(), 16);

  SolverOptions options;
  options.spec = AppSpec::sp();
  options.n = 8;
  options.iterations = 6;
  options.checkpoint_every = 3;
  options.prefix = "uic.sp";
  const JobOutcome outcome =
      uic.submit_and_wait(solver_job(volume, options, nullptr, 2));
  EXPECT_TRUE(outcome.completed);
  EXPECT_FALSE(uic.list_checkpoint_files("uic.sp").empty());
  EXPECT_FALSE(uic.event_trace().empty());
  EXPECT_FALSE(uic.request_checkpoint("SP"));  // job no longer running
}

}  // namespace
