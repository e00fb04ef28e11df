// full_cycle and delta_chain: one SPMD job in one process that checkpoints
// the SP class-A state in a closed loop through DrmsContext and
// periodically restarts a fresh DrmsProgram from the newest generation at
// a different task count. The two workloads share this loop and differ in
// the knobs of LoopShape.
#include <cstdio>
#include <memory>
#include <optional>

#include "core/checkpoint_catalog.hpp"
#include "core/drms_context.hpp"
#include "obs/recorder.hpp"
#include "piofs/volume.hpp"
#include "rt/task_group.hpp"
#include "store/memory_backend.hpp"
#include "store/piofs_backend.hpp"
#include "store/tiered_backend.hpp"
#include "support/rng.hpp"
#include "svc/drain_service.hpp"
#include "timed_backend.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using drms::core::DistArray;
using drms::core::Index;
using drms::core::Slice;

struct LoopShape {
  const char* tag;  // generation-prefix stem, e.g. "fc"
  int tasks;
  int restart_tasks;
  /// Delta generations with the engine's default k, block size and codec;
  /// thin slab mutations; tiered storage drained through svc.
  bool delta;
  /// Restore the newest generation after every `restore_every` SOPs.
  int restore_every;
  /// Traced phase: also run supervised recovery trials (see
  /// add_recovery_trials).
  bool recovery_trials;
};

constexpr int kKeepGenerations = 3;
/// Measured seconds of recovery trials in a traced phase.
constexpr double kRecoveryTrialSeconds = 8.0;
/// Arrays the delta workload mutates ("u" and "rhs"), and slab thickness
/// along z in grid planes.
constexpr int kSlabArrays = 2;
constexpr Index kSlabPlanes = 2;

std::string generation_prefix(const char* tag, std::int64_t gen) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s.g%06lld", tag,
                static_cast<long long>(gen));
  return buf;
}

/// z position of generation `gen`'s mutation slab (seeded).
Index slab_z(std::uint64_t seed, std::int64_t gen) {
  drms::support::Rng rng(seed * 0x9e3779b97f4a7c15ull +
                         static_cast<std::uint64_t>(gen));
  return static_cast<Index>(rng.uniform_int(0, kGridN - kSlabPlanes));
}

/// Declare and distribute every SP array (a restart also loads them).
std::vector<DistArray*> declare_arrays(drms::core::DrmsContext& drms,
                                       const drms::apps::AppSpec& spec,
                                       int tasks) {
  std::vector<DistArray*> arrays;
  for (const auto& decl : spec.arrays) {
    const Slice box = spec.array_box(decl, kGridN);
    std::vector<Index> lo;
    std::vector<Index> hi;
    for (int k = 0; k < box.rank(); ++k) {
      lo.push_back(box.range(k).first());
      hi.push_back(box.range(k).last());
    }
    DistArray& a = drms.create_array(decl.name, lo, hi);
    drms.distribute(a, spec.array_distribution(decl, kGridN, tasks));
    arrays.push_back(&a);
  }
  return arrays;
}

/// Rewrite a thin z-slab of the first kSlabArrays arrays through the
/// precise LocalArray::insert path, so dirty tracking sees only the slab.
/// The slab holds the solver's field advanced by generation `gen`.
void mutate_slab(drms::rt::TaskContext& ctx,
                 const std::vector<DistArray*>& arrays, std::uint64_t seed,
                 Index z0, std::int64_t gen) {
  for (int a = 0; a < kSlabArrays; ++a) {
    DistArray& array = *arrays[static_cast<std::size_t>(a)];
    const Slice& box = array.global_box();
    std::vector<Index> lo;
    std::vector<Index> hi;
    for (int k = 0; k < box.rank(); ++k) {
      lo.push_back(box.range(k).first());
      hi.push_back(box.range(k).last());
    }
    lo.back() = z0;
    hi.back() = z0 + kSlabPlanes - 1;
    const Slice part =
        Slice::box(lo, hi).intersect(array.distribution().assigned(ctx.rank()));
    if (part.empty()) {
      continue;
    }
    std::vector<double> values;
    values.reserve(static_cast<std::size_t>(part.element_count()));
    const double offset =
        seed_offset(seed, a) + 1e-3 * static_cast<double>(gen);
    for_each_point(part, [&](Index c, Index x, Index y, Index z) {
      values.push_back(solver_value(a, c, x, y, z, offset));
    });
    array.local(ctx.rank())
        .insert(part, std::as_bytes(std::span<const double>(values)));
  }
}

/// Rewrite every element of every array (full_cycle's application step).
void rewrite_all(drms::rt::TaskContext& ctx,
                 const std::vector<DistArray*>& arrays) {
  for (DistArray* a : arrays) {
    for (double& v : a->local(ctx.rank()).as_f64()) {
      v += 0.5;
    }
  }
}

/// The recovery and apps layers: supervised recovery trials run as in the
/// recover workload, which left the timed set because a shared host's
/// contention moves its end-to-end figures beyond any usable bound.
void add_recovery_trials(const PhaseRequest& req,
                         std::map<std::string, std::vector<double>>& layer) {
  PhaseRequest trials = req;
  trials.seconds = kRecoveryTrialSeconds;
  trials.setups = 1;
  trials.warm_up_setup = false;
  trials.embedded = true;
  PhaseSamples r = recover_phase(trials);
  for (auto& [name, series] : r.layer) {
    if (name.rfind("recovery.", 0) == 0 || name.rfind("apps.", 0) == 0) {
      layer[name] = std::move(series);
    }
  }
}

struct RestoreOutcome {
  double ms = 0.0;
  std::uint64_t digest = 0;
  std::int64_t gen = -1;
  bool completed = false;
  std::string error;
};

/// Restart a fresh program from `prefix` at `tasks` tasks: initialize() +
/// distribute() of every array, timed on rank 0 from a pre-call barrier;
/// then the restored state's digest (untimed).
RestoreOutcome restore_generation(drms::store::StorageBackend& storage,
                                  const std::string& prefix, int tasks,
                                  drms::obs::Recorder* recorder) {
  const drms::apps::AppSpec spec = sp_spec();
  drms::core::DrmsEnv env;
  env.storage = &storage;
  env.restart_prefix = prefix;
  env.recorder = recorder;
  drms::core::DrmsProgram program(spec.name, env,
                                  spec.segment_model(kGridN), tasks);
  drms::rt::TaskGroup group(placement_for(tasks));
  RestoreOutcome out;
  const auto result = group.run([&](drms::rt::TaskContext& ctx) {
    drms::core::DrmsContext drms(program, ctx);
    std::int64_t gen = -1;
    drms.store().register_i64("bench.gen", &gen);
    ctx.barrier();
    const Clock::time_point t0 = Clock::now();
    drms.initialize();
    const std::vector<DistArray*> arrays = declare_arrays(drms, spec, tasks);
    const Clock::time_point t1 = Clock::now();
    const std::uint64_t digest = state_digest(ctx, arrays);
    if (ctx.rank() == 0) {
      out.ms = ms_between(t0, t1);
      out.digest = digest;
      out.gen = gen;
    }
  });
  out.completed = result.completed;
  if (!result.errors.empty()) {
    out.error = result.errors.front();
  } else if (!result.completed) {
    out.error = "restore group killed: " + result.kill_reason;
  }
  return out;
}

/// Storage stack of one phase. Untraced: the bare backend the engine
/// writes to. Traced: TimedBackend decorators on the engine-facing backend
/// and (delta_chain) on the PIOFS slow tier.
struct StorageStack {
  explicit StorageStack(bool delta, bool traced)
      : volume(4), piofs(volume), slow_timed(piofs) {
    if (delta) {
      tiered.emplace(fast,
                     traced ? static_cast<drms::store::StorageBackend&>(
                                  slow_timed)
                            : piofs);
      base = &*tiered;
    } else {
      base = &fast;
    }
    if (traced) {
      timed = std::make_unique<TimedBackend>(*base);
      engine = timed.get();
    } else {
      engine = base;
    }
  }
  StorageStack(const StorageStack&) = delete;
  StorageStack& operator=(const StorageStack&) = delete;

  drms::store::MemoryBackend fast;
  drms::piofs::Volume volume;
  drms::store::PiofsBackend piofs;
  TimedBackend slow_timed;
  std::optional<drms::store::TieredBackend> tiered;
  drms::store::StorageBackend* base = nullptr;
  std::unique_ptr<TimedBackend> timed;
  drms::store::StorageBackend* engine = nullptr;
};

PhaseSamples checkpoint_phase(const LoopShape& shape,
                              const PhaseRequest& req) {
  const Config& cfg = *req.config;
  FailureLog& fails = *req.failures;
  SpanLog& spans = *req.spans;
  const drms::apps::AppSpec spec = sp_spec();
  const double logical_bytes =
      static_cast<double>(spec.arrays_bytes(kGridN));
  const std::string filter = std::string(shape.tag) + ".";
  PhaseSamples out;

  SetupRuns setups(cfg, req.warm_up_setup, req.setups, 5);
  while (true) {
    const bool last = setups.next_is_last();
    const Clock::time_point setup_start = setups.begin();
    double setup_seconds = 0.0;  // written by rank 0
    StorageStack stack(shape.delta, req.traced);
    drms::store::StorageBackend& storage = *stack.engine;
    drms::obs::Recorder recorder;
    drms::obs::Recorder* rec = req.traced ? &recorder : nullptr;
    drms::core::DrmsEnv env;
    env.storage = &storage;
    env.delta = shape.delta;
    env.recorder = rec;
    drms::core::DrmsProgram program(spec.name, env,
                                    spec.segment_model(kGridN), shape.tasks);

    drms::svc::IoScheduler::Options sched_opts;
    sched_opts.shard_count = 1;
    // One registered job would run drains inline; the drain must overlap
    // the next SOP on the shard's own worker.
    sched_opts.force_async = true;
    sched_opts.recorder = rec;
    // Written by the drain marker on the shard worker; declared before the
    // scheduler so it outlives any item the scheduler still runs.
    Clock::time_point drain_done;
    std::optional<drms::svc::IoScheduler> scheduler;
    drms::svc::JobToken drain_job;
    if (shape.delta) {
      scheduler.emplace(sched_opts);
      drain_job = scheduler->register_job("drain");
    }

    drms::rt::TaskGroup group(placement_for(shape.tasks));
    // Rank 0 decides each step: 0 stop, 1 SOP, 2 SOP then restore.
    std::atomic<int> command{0};
    std::int64_t full_gens = 0;
    std::int64_t all_gens = 0;
    Index last_slab = -1;

    const auto result = group.run([&](drms::rt::TaskContext& ctx) {
      const int rank = ctx.rank();
      drms::core::DrmsContext drms(program, ctx);
      std::int64_t gen = 0;
      drms.store().register_i64("bench.gen", &gen);
      drms.initialize();
      const std::vector<DistArray*> arrays =
          declare_arrays(drms, spec, shape.tasks);
      for (std::size_t a = 0; a < arrays.size(); ++a) {
        fill_solver_field(arrays[a]->local(rank), cfg.seed,
                          static_cast<int>(a));
      }
      ctx.barrier();
      if (rank == 0) {
        setup_seconds = s_between(setup_start, Clock::now());
      }
      if (!last) {
        return;
      }

      // ---- rank-0 loop state ------------------------------------------------
      const Clock::time_point loop_start = Clock::now();
      Warmup warmup(loop_start);
      QuietWindows quiet(req.seconds);
      PhaseSamples& window = quiet.pending();  // samples of the open window
      std::int64_t step = 0;
      drms::svc::DrainTicket drain;
      // A DRAIN-class item queued behind the drain's file copies on the
      // single shard (FIFO within a class): it runs when the drain's last
      // copy has finished, which times the drain itself rather than the
      // moment the bench got round to waiting for it.
      drms::svc::Completion drain_marker;
      bool drain_pending = false;
      Clock::time_point drain_submitted;
      IoSnapshot slow_at_submit;
      const auto submit_drain = [&] {
        slow_at_submit = stack.slow_timed.snapshot();
        drain_submitted = Clock::now();
        drain = drms::svc::submit_drain(*scheduler, drain_job, *stack.tiered);
        drain_marker = scheduler->submit(
            drain_job, drms::svc::Priority::kDrain, "drain", 0, 0.0,
            [&drain_done] { drain_done = Clock::now(); });
        drain_pending = true;
      };
      const auto finish_drain = [&] {
        if (!drain_pending) {
          return;
        }
        const drms::store::TieredBackend::DrainReport report = drain.wait();
        drain_marker.wait();
        drain_pending = false;
        spans.add("svc.drain", 0, drain_submitted, drain_done);
        if (req.traced && warmup.done()) {
          window.layer["svc.drain_ms"].push_back(
              ms_between(drain_submitted, drain_done));
          window.layer["svc.drain_bytes"].push_back(
              static_cast<double>(report.bytes_drained));
          const IoSnapshot d = stack.slow_timed.snapshot().since(slow_at_submit);
          window.layer["piofs.write_ms"].push_back(
              static_cast<double>(d.write_ns) * 1e-6);
          window.layer["piofs.write_bytes"].push_back(
              static_cast<double>(d.write_bytes));
        }
      };

      while (true) {
        if (rank == 0) {
          const bool stop = quiet.done(Clock::now());
          command.store(stop ? 0
                        : (step % shape.restore_every ==
                           shape.restore_every - 1)
                            ? 2
                            : 1);
        }
        ctx.barrier();
        const int cmd = command.load();
        if (cmd == 0) {
          break;
        }
        ++gen;
        const std::string prefix = generation_prefix(shape.tag, gen);
        Index z0 = 0;
        if (shape.delta) {
          z0 = slab_z(cfg.seed, gen);
          mutate_slab(ctx, arrays, cfg.seed, z0, gen);
        } else {
          rewrite_all(ctx, arrays);
        }

        ctx.barrier();
        const Clock::time_point t0 = Clock::now();
        const IoSnapshot io0 = req.traced ? stack.timed->snapshot() : IoSnapshot{};
        const drms::core::ReconfigResult r = drms.reconfig_checkpoint(prefix);
        const Clock::time_point t1 = Clock::now();
        IoSnapshot io1;
        if (req.traced) {
          ctx.barrier();  // every rank's writes are in the window
          // Closed before rank 0's own checks below touch the backend.
          io1 = stack.timed->snapshot();
        }
        std::uint64_t digest = 0;
        if (cmd == 2) {
          digest = state_digest(ctx, arrays);
        }
        if (rank != 0) {
          ++step;
          continue;
        }

        // ---- rank 0: checks, bookkeeping, retention, drain, restore --------
        const double ckpt_ms = ms_between(t0, t1);
        spans.add("core.reconfig_checkpoint", 0, t0, t1);
        const bool measuring = warmup.done();
        fails.attempt();
        const drms::core::CommitCheck commit =
            drms::core::commit_status(storage, prefix, false);
        if (!r.checkpoint_written || !commit.committed) {
          fails.fail("generation " + prefix + " not committed");
        }
        const double stored =
            static_cast<double>(storage.total_size(prefix)) / logical_bytes;
        const drms::core::DeltaChainState chain = program.delta_chain_state();
        ++all_gens;
        const bool full =
            !shape.delta || chain.last_kind == drms::core::GenerationKind::kFull;
        full_gens += full ? 1 : 0;
        if (measuring) {
          window.ckpt_ms.push_back(ckpt_ms);
          // An exact count over every generation, not only quiet windows'.
          out.stored_ratio.push_back(stored);
          last_slab = z0;
          if (req.traced) {
            add_io_window(window.layer, "store", io1.since(io0), true,
                          false, true);
            window.layer["core.dirty_fraction"].push_back(
                shape.delta && chain.last_total_blocks > 0
                    ? static_cast<double>(chain.last_dirty_blocks) /
                          static_cast<double>(chain.last_total_blocks)
                    : 1.0);
          }
        }
        if (shape.delta) {
          finish_drain();
        }
        const double gc_ms = timed_call(spans, "core.gc_superseded_states", 0, [&] {
          (void)drms::core::gc_superseded_states(storage, spec.name, filter,
                                                 kKeepGenerations);
        });
        if (measuring && req.traced) {
          window.layer["core.gc_ms"].push_back(gc_ms);
        }
        if (shape.delta) {
          submit_drain();
        }

        if (cmd == 2) {
          if (shape.delta) {
            finish_drain();  // the chain tip is restored after its drain
          }
          if (req.traced && measuring) {
            std::optional<drms::core::CheckpointRecord> latest;
            window.layer["core.latest_ms"].push_back(
                timed_call(spans, "core.latest_checkpoint", 0, [&] {
                  latest = drms::core::latest_checkpoint(storage, spec.name,
                                                         filter);
                }));
            if (latest) {
              window.layer["core.verify_ms"].push_back(
                  timed_call(spans, "core.verify_checkpoint", 0, [&] {
                    (void)drms::core::verify_checkpoint(storage, *latest, true);
                  }));
            }
          }
          fails.attempt();
          const IoSnapshot rio0 =
              req.traced ? stack.timed->snapshot() : IoSnapshot{};
          const Clock::time_point rs = Clock::now();
          const RestoreOutcome restored =
              restore_generation(storage, prefix, shape.restart_tasks, rec);
          spans.add("core.restore_generation", 0, rs, Clock::now());
          if (!restored.completed || restored.digest != digest ||
              restored.gen != gen) {
            fails.fail("restore of " + prefix + " at " +
                       std::to_string(shape.restart_tasks) +
                       " tasks does not match the written state" +
                       (restored.error.empty() ? "" : ": " + restored.error));
          }
          if (measuring) {
            window.restore_ms.push_back(restored.ms);
            if (req.traced) {
              add_io_window(window.layer, "store",
                            stack.timed->snapshot().since(rio0), false, true,
                            false);
            }
          }
        }

        if (!measuring && warmup.add(ckpt_ms, Clock::now())) {
          quiet.start(Clock::now());
          out.warmup_s = warmup.seconds();
          out.warmup_ops = warmup.ops();
        }
        quiet.poll(Clock::now(), out);
        ++step;
      }

      if (rank == 0) {
        quiet.finish(Clock::now(), out);
        if (shape.delta) {
          finish_drain();
          // Deep-verify the chain tip once per run (untimed).
          fails.attempt();
          const auto tip =
              drms::core::latest_checkpoint(storage, spec.name, filter);
          if (!tip || !drms::core::verify_checkpoint(storage, *tip, true).ok) {
            fails.fail("deep verify of the chain tip failed");
          }
        }
      }
    });
    if (!result.completed) {
      fails.attempt();
      fails.fail("checkpoint job did not complete: " +
                 (result.errors.empty() ? result.kill_reason
                                        : result.errors.front()));
    }
    setups.record(setup_seconds, out);
    if (!last) {
      continue;
    }
    if (req.traced) {
      out.layer["core.delta_full_share"].push_back(
          all_gens > 0 ? static_cast<double>(full_gens) /
                             static_cast<double>(all_gens)
                       : 0.0);
      if (scheduler) {
        scheduler->wait_idle();
        out.layer["svc.queue_depth_peak"].push_back(
            static_cast<double>(recorder.gauge("svc.queue_depth.peak")));
      }
      // Codec probe over the blocks of array "u" the last slab dirtied.
      std::vector<std::uint64_t> blocks;
      if (shape.delta && last_slab >= 0) {
        const std::uint64_t plane = static_cast<std::uint64_t>(
            spec.arrays.front().components * kGridN * kGridN * sizeof(double));
        const std::uint64_t block = env.delta_block_bytes;
        const std::uint64_t first = static_cast<std::uint64_t>(last_slab) * plane;
        const std::uint64_t end = first + kSlabPlanes * plane;
        for (std::uint64_t b = first / block; b * block < end; ++b) {
          blocks.push_back(b);
        }
      }
      export_recorder(cfg, recorder);
      run_layer_probes(shape.tasks, cfg.seed, blocks, spans, out.layer);
      if (shape.recovery_trials) {
        add_recovery_trials(req, out.layer);
      }
    }
    break;
  }
  return out;
}

}  // namespace

PhaseSamples full_cycle_phase(const PhaseRequest& req) {
  return checkpoint_phase({"fc", 4, 3, false, 2, true}, req);
}

PhaseSamples delta_chain_phase(const PhaseRequest& req) {
  return checkpoint_phase({"dc", 3, 4, true, 4, false}, req);
}

}  // namespace perfbench
