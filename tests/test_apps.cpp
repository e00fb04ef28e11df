// Tests for the BT/LU/SP-like applications: inventory accounting against
// the paper's Tables 3-4, distribution invariance of the solver, and
// checkpoint/restart round trips through the full public API.
#include <gtest/gtest.h>

#include "apps/app_spec.hpp"
#include "support/error.hpp"
#include "apps/solver.hpp"
#include "obs/instrumented_backend.hpp"
#include "obs/recorder.hpp"
#include "rt/task_group.hpp"
#include "support/units.hpp"
#include "test_helpers.hpp"

namespace {

using namespace drms::apps;
using drms::core::CheckpointMode;
using drms::core::DrmsEnv;
using drms::core::Index;
using Volume = drms::test::TestVolume;
using drms::rt::TaskContext;
using drms::rt::TaskGroup;
using drms::support::kMiB;
using drms::test::placement_of;

TEST(AppSpec, ComponentCountsMatchPaperInventories) {
  EXPECT_EQ(AppSpec::bt().total_components(), 42);
  EXPECT_EQ(AppSpec::lu().total_components(), 17);
  EXPECT_EQ(AppSpec::sp().total_components(), 24);
}

TEST(AppSpec, ClassAArrayBytesMatchTable3) {
  const Index n = grid_size(ProblemClass::kA);
  EXPECT_EQ(AppSpec::bt().arrays_bytes(n), 84 * kMiB);
  EXPECT_EQ(AppSpec::lu().arrays_bytes(n), 34 * kMiB);
  EXPECT_EQ(AppSpec::sp().arrays_bytes(n), 48 * kMiB);
}

TEST(AppSpec, ClassASegmentComponentsMatchTable4Exactly) {
  // Table 4's exact byte counts: the "local sections" values decompose as
  // components x (static halo'd extents) x 8 bytes at the 4-task minimum
  // ({1,2,2} spatial grid), and the totals add the system and private
  // components.
  const Index n = grid_size(ProblemClass::kA);
  struct Row {
    AppSpec spec;
    std::uint64_t locals;
    std::uint64_t total;
  };
  const Row rows[] = {
      {AppSpec::bt(), 25'635'456u, 65'982'468u},
      {AppSpec::lu(), 10'061'824u, 89'169'924u},
      {AppSpec::sp(), 14'648'832u, 55'242'756u},
  };
  for (const auto& row : rows) {
    const auto model = row.spec.segment_model(n);
    EXPECT_EQ(model.static_local_bytes, row.locals) << row.spec.name;
    EXPECT_EQ(model.total(), row.total) << row.spec.name;
    EXPECT_EQ(model.system_bytes, 34'972'228u) << row.spec.name;
  }
}

TEST(AppSpec, ByNameAndUnknown) {
  EXPECT_EQ(AppSpec::by_name("LU").name, "LU");
  EXPECT_THROW((void)AppSpec::by_name("FT"), drms::support::Error);
  EXPECT_EQ(AppSpec::all().size(), 3u);
}

TEST(AppSpec, DistributionShape) {
  const AppSpec spec = AppSpec::bt();
  const auto dist = spec.array_distribution(spec.arrays[0], 16, 8);
  EXPECT_EQ(dist.task_count(), 8);
  EXPECT_TRUE(dist.fully_assigned());
  // Component axis undistributed: every task's assigned section spans all
  // components.
  for (int t = 0; t < 8; ++t) {
    EXPECT_EQ(dist.assigned(t).range(0).size(), 5);
  }
  // Shadows on spatial axes only.
  EXPECT_GT(dist.mapped_element_total(), dist.assigned_element_total());
  for (int t = 0; t < 8; ++t) {
    EXPECT_EQ(dist.mapped(t).range(0).size(), 5);
  }
}

struct SolveResult {
  SolverOutcome outcome;
  bool completed = false;
};

SolveResult solve(drms::store::StorageBackend& storage, const AppSpec& spec,
                  int tasks, Index n,
                  int iterations, const std::string& prefix,
                  const std::string& restart_from, int stop_at = -1,
                  CheckpointMode mode = CheckpointMode::kDrms) {
  SolverOptions options;
  options.spec = spec;
  options.n = n;
  options.iterations = iterations;
  options.checkpoint_every = 5;
  options.prefix = prefix;
  options.stop_at_iteration = stop_at;

  DrmsEnv env;
  env.storage = &storage;
  env.restart_prefix = restart_from;
  env.mode = mode;
  auto program = make_program(options, env, tasks);

  SolveResult result;
  TaskGroup group(placement_of(tasks));
  const auto run = group.run([&](TaskContext& ctx) {
    const SolverOutcome out = run_solver(*program, ctx, options);
    if (ctx.rank() == 0) {
      result.outcome = out;
    }
  });
  result.completed = run.completed;
  return result;
}

class SolverApps : public ::testing::TestWithParam<const char*> {};

TEST_P(SolverApps, FieldIsDistributionInvariant) {
  const AppSpec spec = AppSpec::by_name(GetParam());
  std::uint32_t crc1 = 0;
  for (const int tasks : {1, 4, 6}) {
    Volume volume(16);
    const auto r = solve(volume, spec, tasks, 10, 6, "", "");
    ASSERT_TRUE(r.completed);
    EXPECT_NE(r.outcome.field_crc, 0u);
    if (tasks == 1) {
      crc1 = r.outcome.field_crc;
    } else {
      EXPECT_EQ(r.outcome.field_crc, crc1)
          << spec.name << " on " << tasks << " tasks";
    }
  }
}

TEST_P(SolverApps, ReconfiguredRestartReproducesTheRun) {
  const AppSpec spec = AppSpec::by_name(GetParam());
  constexpr Index kN = 10;
  constexpr int kIters = 12;

  Volume ref_volume(16);
  const auto ref = solve(ref_volume, spec, 4, kN, kIters, "ck", "");
  ASSERT_TRUE(ref.completed);
  EXPECT_EQ(ref.outcome.checkpoints_written, 2);  // it=5, it=10

  // Interrupt after the it=10 checkpoint; restart on 6 tasks, recording
  // every storage operation of the resumed run.
  Volume volume(16);
  (void)solve(volume, spec, 4, kN, kIters, "ck", "", /*stop_at=*/11);
  drms::obs::Recorder recorder;
  drms::obs::InstrumentedBackend recorded(volume, &recorder);
  const auto resumed = solve(recorded, spec, 6, kN, kIters, "ck2", "ck");
  ASSERT_TRUE(resumed.completed);
  // The restart's reads reach the backend; the field CRC is computed in
  // memory and never does.
  std::size_t store_ops = 0;
  for (const auto& span : recorder.spans()) {
    if (span.category != "store") {
      continue;
    }
    ++store_ops;
    const drms::obs::Attr* file = span.attr("file");
    ASSERT_NE(file, nullptr);
    EXPECT_EQ(file->text.find(".__fieldcrc.tmp"), std::string::npos)
        << span.name << " " << file->text;
  }
  EXPECT_GT(store_ops, 0u);
  EXPECT_TRUE(resumed.outcome.restarted);
  EXPECT_EQ(resumed.outcome.start_iteration, 10);
  EXPECT_EQ(resumed.outcome.delta, 2);
  EXPECT_EQ(resumed.outcome.field_crc, ref.outcome.field_crc)
      << spec.name << ": reconfigured restart must be bit-exact";
}

TEST_P(SolverApps, SpmdRestartSameTaskCount) {
  const AppSpec spec = AppSpec::by_name(GetParam());
  constexpr Index kN = 10;
  constexpr int kIters = 12;

  Volume ref_volume(16);
  const auto ref = solve(ref_volume, spec, 4, kN, kIters, "sp", "", -1,
                         CheckpointMode::kSpmd);
  ASSERT_TRUE(ref.completed);

  Volume volume(16);
  (void)solve(volume, spec, 4, kN, kIters, "sp", "", 11,
              CheckpointMode::kSpmd);
  const auto resumed = solve(volume, spec, 4, kN, kIters, "sp2", "sp", -1,
                             CheckpointMode::kSpmd);
  ASSERT_TRUE(resumed.completed);
  EXPECT_TRUE(resumed.outcome.restarted);
  EXPECT_EQ(resumed.outcome.field_crc, ref.outcome.field_crc);
}

INSTANTIATE_TEST_SUITE_P(Apps, SolverApps,
                         ::testing::Values("BT", "LU", "SP"));

TEST(Solver, DrmsStateSizeMatchesModel) {
  const AppSpec spec = AppSpec::sp();
  const Index n = 10;
  Volume volume(16);
  const auto r = solve(volume, spec, 4, n, 6, "ck", "");
  ASSERT_TRUE(r.completed);
  const auto model = spec.segment_model(n);
  EXPECT_EQ(drms::core::drms_state_size(volume, "ck"),
            model.total() + spec.arrays_bytes(n));
}

TEST(Solver, SpmdStateSizeGrowsWithTasks) {
  const AppSpec spec = AppSpec::lu();
  const Index n = 10;
  std::uint64_t size4 = 0;
  for (const int tasks : {4, 8}) {
    Volume volume(16);
    const auto r =
        solve(volume, spec, tasks, n, 6, "sp", "", -1,
              CheckpointMode::kSpmd);
    ASSERT_TRUE(r.completed);
    const std::uint64_t size =
        drms::core::spmd_state_size(volume, "sp");
    if (tasks == 4) {
      size4 = size;
    } else {
      EXPECT_EQ(size, 2 * size4);
    }
  }
}

TEST(Solver, ChkenableVariantFiresOnlyWhenArmed) {
  const AppSpec spec = AppSpec::bt();
  Volume volume(16);
  SolverOptions options;
  options.spec = spec;
  options.n = 8;
  options.iterations = 12;
  options.checkpoint_every = 5;
  options.prefix = "en";
  options.use_chkenable = true;
  options.compute_field_crc = false;
  // Arm once when iteration 5 is reached... iterate: the SOP at it=5 runs
  // before on_iteration(5), so arm at iteration 4 to catch the it=5 SOP?
  // The enabling signal may arrive at any time; here we arm from rank 0 in
  // the iteration-3 hook so the it=5 SOP consumes it.
  DrmsEnv env;
  env.storage = &volume.backend();
  auto program = make_program(options, env, 3);
  options.on_iteration = [&](std::int64_t it, TaskContext& ctx) {
    if (it == 3 && ctx.rank() == 0) {
      program->enable_checkpoint();
    }
  };
  TaskGroup group(placement_of(3));
  int written = 0;
  const auto run = group.run([&](TaskContext& ctx) {
    const auto out = run_solver(*program, ctx, options);
    if (ctx.rank() == 0) {
      written = out.checkpoints_written;
    }
  });
  ASSERT_TRUE(run.completed);
  EXPECT_EQ(written, 1);  // armed once -> exactly one of the SOPs fired
  EXPECT_TRUE(drms::core::checkpoint_exists(volume, "en"));
}

}  // namespace
