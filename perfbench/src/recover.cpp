// recover: the recovery control path. Each trial is one supervised SP job
// (n = 64, 12 iterations, a checkpoint every 3, the newest 3 kept) on a
// fresh 4-node cluster and memory backend, with partial restore on and the
// default shrink-to-survivors policy. One failure lands after the second
// commit; trials alternate a node loss (partial scope, 4 -> 3 tasks) and a
// pool kill (full scope, 4 -> 4). The failure iteration and node ordinal
// come from the workload seed.
#include <optional>
#include <stdexcept>

#include "apps/solver.hpp"
#include "arch/cluster.hpp"
#include "core/checkpoint_catalog.hpp"
#include "obs/recorder.hpp"
#include "recovery/supervisor.hpp"
#include "rt/task_group.hpp"
#include "store/memory_backend.hpp"
#include "support/rng.hpp"
#include "timed_backend.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kTasks = 4;
constexpr int kIterations = 12;
constexpr int kCheckpointEvery = 3;
constexpr int kKeep = 3;

drms::apps::SolverOptions solver_options() {
  drms::apps::SolverOptions options;
  options.spec = sp_spec();
  options.n = kGridN;
  options.iterations = kIterations;
  options.checkpoint_every = kCheckpointEvery;
  options.prefix = "rc.sp";
  return options;
}

/// Field CRC of an uninterrupted run (the solver is distribution-invariant,
/// so one baseline covers every restart shape).
std::uint32_t baseline_crc() {
  drms::store::MemoryBackend memory;
  drms::apps::SolverOptions options = solver_options();
  options.prefix.clear();
  drms::core::DrmsEnv env;
  env.storage = &memory;
  auto program = drms::apps::make_program(options, env, kTasks);
  std::uint32_t crc = 0;
  drms::rt::TaskGroup group(placement_for(kTasks));
  const auto result = group.run([&](drms::rt::TaskContext& ctx) {
    const drms::apps::SolverOutcome o =
        drms::apps::run_solver(*program, ctx, options);
    if (ctx.rank() == 0) {
      crc = o.field_crc;
    }
  });
  if (!result.completed) {
    throw std::runtime_error("baseline solver run did not complete");
  }
  return crc;
}

/// Rank-0 iteration-hook timestamps of one trial, split into gaps between
/// consecutive iterations of the same launch.
struct HookClock {
  std::int64_t last_it = -2;
  Clock::time_point last;
  std::vector<double> sop_gap_ms;
  std::vector<double> plain_gap_ms;

  void hook(std::int64_t it) {
    const Clock::time_point now = Clock::now();
    if (it == last_it + 1) {
      (it > 0 && it % kCheckpointEvery == 0 ? sop_gap_ms : plain_gap_ms)
          .push_back(ms_between(last, now));
    }
    last_it = it;
    last = now;
  }
};

}  // namespace

PhaseSamples recover_phase(const PhaseRequest& req) {
  const Config& cfg = *req.config;
  FailureLog& fails = *req.failures;
  SpanLog& spans = *req.spans;
  PhaseSamples out;
  const double logical_bytes =
      static_cast<double>(sp_spec().arrays_bytes(kGridN));

  std::uint32_t reference = 0;
  SetupRuns setups(cfg, req.warm_up_setup, req.setups, 2);
  bool last = false;
  while (!last) {
    last = setups.next_is_last();
    const Clock::time_point t0 = setups.begin();
    reference = baseline_crc();
    setups.record(s_between(t0, Clock::now()), out);
  }

  drms::obs::Recorder recorder;
  drms::obs::Recorder* rec = req.traced ? &recorder : nullptr;
  int node_loss_recoveries = 0;
  int node_loss_partial = 0;

  const Clock::time_point loop_start = Clock::now();
  Warmup warmup(loop_start, 2);
  // Embedded trials feed only per-layer metrics: keep about `seconds` of
  // them however noisy the host is.
  QuietWindows quiet(req.seconds,
                     req.embedded ? 1.0 : QuietWindows::kMinQuietShare);
  PhaseSamples& window = quiet.pending();  // samples of the open window
  for (std::uint64_t trial = 0;; ++trial) {
    if (quiet.done(Clock::now())) {
      break;
    }
    const bool node_loss = trial % 2 == 0;
    drms::support::Rng rng(cfg.seed * 0x9e3779b97f4a7c15ull + trial);
    drms::recovery::FailureEvent failure;
    failure.kind = node_loss ? drms::recovery::FailureKind::kNodeLoss
                             : drms::recovery::FailureKind::kKillPool;
    failure.launch = 0;
    // After the second commit (SOP at iteration 2 * kCheckpointEvery).
    failure.at_iteration = rng.uniform_int(2 * kCheckpointEvery,
                                           3 * kCheckpointEvery - 1);
    failure.node_ordinal = static_cast<int>(rng.uniform_int(0, kTasks - 1));
    drms::recovery::FailureSchedule schedule;
    schedule.events.push_back(failure);

    drms::sim::Machine machine;
    machine.node_count = kTasks;
    machine.server_count = kTasks;
    drms::arch::Cluster cluster(machine, nullptr);
    drms::store::MemoryBackend memory;
    TimedBackend timed(memory);
    drms::store::StorageBackend& storage =
        req.traced ? static_cast<drms::store::StorageBackend&>(timed) : memory;

    HookClock hooks;
    drms::recovery::SupervisorOptions options;
    options.solver = solver_options();
    options.solver.on_iteration = [&hooks](std::int64_t it,
                                           drms::rt::TaskContext& ctx) {
      if (ctx.rank() == 0) {
        hooks.hook(it);
      }
    };
    options.env.storage = &storage;
    options.env.recorder = rec;
    options.job_name = "SP";
    options.min_tasks = 1;
    options.preferred_tasks = kTasks;
    options.keep_last_k = kKeep;
    options.partial_restore = true;
    options.seed = cfg.seed;
    options.recorder = rec;

    drms::recovery::RecoverySupervisor supervisor(cluster);
    fails.attempt();
    const Clock::time_point t0 = Clock::now();
    const drms::recovery::RecoveryReport report =
        supervisor.run(options, schedule);
    const Clock::time_point t1 = Clock::now();
    // The trial's store window closes here, before the bench's own catalog
    // calls below read the backend.
    const IoSnapshot trial_io = timed.snapshot();
    spans.add(node_loss ? "recovery.trial.node_loss" : "recovery.trial.kill",
              0, t0, t1);
    const double job_s = s_between(t0, t1);

    // ---- correctness --------------------------------------------------------
    std::string problem;
    if (!report.completed) {
      problem = "job did not complete";
    } else if (report.outcome.field_crc != reference) {
      problem = "field CRC differs from the failure-free baseline";
    } else if (report.launches.size() != 2 || report.recoveries.size() != 1) {
      problem = "expected 2 launches and 1 recovery, got " +
                std::to_string(report.launches.size()) + " and " +
                std::to_string(report.recoveries.size());
    } else if (report.recoveries[0].partial != node_loss) {
      problem = node_loss ? "node loss did not recover in partial scope"
                          : "pool kill did not recover in full scope";
    } else if (report.launches[1].tasks != (node_loss ? kTasks - 1 : kTasks)) {
      problem = "relaunch ran " + std::to_string(report.launches[1].tasks) +
                " tasks";
    }
    if (!problem.empty()) {
      fails.fail("trial " + std::to_string(trial) + " (" +
                 schedule.describe() + "): " + problem);
    }

    const bool measuring = warmup.done();
    if (measuring) {
      window.job_s.push_back(job_s);
      // SOP stall as the application sees it: the extra wall time of an
      // iteration that checkpoints (SOP + retention) over this trial's
      // median plain iteration, so a slow stretch of the host shifts both.
      const double plain = median_of(hooks.plain_gap_ms);
      for (const double g : hooks.sop_gap_ms) {
        window.ckpt_ms.push_back(g - plain);
      }
      std::vector<double>& iter_ms = window.layer["apps.iter_ms"];
      iter_ms.insert(iter_ms.end(), hooks.plain_gap_ms.begin(),
                     hooks.plain_gap_ms.end());
      // An exact count over every trial, not only quiet windows'.
      if (const auto newest =
              drms::core::latest_checkpoint(storage, "SP", "rc.")) {
        out.stored_ratio.push_back(
            static_cast<double>(storage.total_size(newest->prefix)) /
            logical_bytes);
      }
      for (const auto& r : report.recoveries) {
        const double mttr_ms = static_cast<double>(r.total_ns()) * 1e-6;
        if (node_loss) {
          window.restore_ms.push_back(mttr_ms);
          ++node_loss_recoveries;
          node_loss_partial += r.partial ? 1 : 0;
        }
        if (req.traced) {
          window.layer[node_loss ? "recovery.mttr_partial_ms"
                                 : "recovery.mttr_full_ms"]
              .push_back(mttr_ms);
          window.layer["recovery.detect_ms"].push_back(r.detect_ns * 1e-6);
          window.layer["recovery.select_ms"].push_back(r.select_ns * 1e-6);
          window.layer["recovery.verify_ms"].push_back(r.verify_ns * 1e-6);
          window.layer["recovery.reconfigure_ms"].push_back(r.reconfigure_ns *
                                                         1e-6);
          window.layer["recovery.resume_ms"].push_back(r.resume_ns * 1e-6);
        }
      }
      if (req.traced) {
        window.layer["recovery.launches"].push_back(
            static_cast<double>(report.launches.size()));
        add_io_window(window.layer, "store", trial_io, true, true, true);
        // Catalog calls on the trial's newest generation.
        std::optional<drms::core::CheckpointRecord> latest;
        window.layer["core.latest_ms"].push_back(
            timed_call(spans, "core.latest_checkpoint", 0, [&] {
              latest = drms::core::latest_checkpoint(storage, "SP", "rc.");
            }));
        if (latest) {
          window.layer["core.verify_ms"].push_back(
              timed_call(spans, "core.verify_checkpoint", 0, [&] {
                (void)drms::core::verify_checkpoint(storage, *latest, true);
              }));
        }
        window.layer["core.gc_ms"].push_back(
            timed_call(spans, "core.gc_superseded_states", 0, [&] {
              (void)drms::core::gc_superseded_states(storage, "SP", "rc.",
                                                     kKeep);
            }));
      }
    } else if (warmup.add(job_s * 1e3, Clock::now())) {
      quiet.start(Clock::now());
      out.warmup_s = warmup.seconds();
      out.warmup_ops = warmup.ops();
    }
    quiet.poll(Clock::now(), out);
  }
  quiet.finish(Clock::now(), out);
  if (req.traced) {
    out.layer["apps.job_s"] = out.job_s;
    out.layer["recovery.partial_share"].push_back(
        node_loss_recoveries > 0
            ? static_cast<double>(node_loss_partial) / node_loss_recoveries
            : 0.0);
  }
  if (req.traced && !req.embedded) {
    // Delta generations are off: every generation is a full one.
    out.layer["core.dirty_fraction"].push_back(1.0);
    out.layer["core.delta_full_share"].push_back(1.0);
    export_recorder(cfg, recorder);
    run_layer_probes(kTasks, cfg.seed, {}, spans, out.layer);
  }
  return out;
}

}  // namespace perfbench
