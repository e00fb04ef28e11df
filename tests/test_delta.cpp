// Tests for block-level delta generations: the block codecs (known-answer
// + property tests mirroring the CRC suite), the runtime dirty tracking,
// the chained write/restore path, the chain-aware catalog (GC keeps a
// base alive while a kept delta depends on it; fsck reports a delta whose
// base is gone or rewritten as torn), and `array_fingerprint`, the digest restores are
// checked with (it equals a full generation's recorded stream CRC at any
// task count).
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "core/array_fingerprint.hpp"
#include "core/checkpoint_catalog.hpp"
#include "core/checkpoint_format.hpp"
#include "core/delta_format.hpp"
#include "core/drms_context.hpp"
#include "core/streamer.hpp"
#include "rt/task_group.hpp"
#include "support/block_codec.hpp"
#include "support/error.hpp"
#include "test_helpers.hpp"

namespace {

using namespace drms::core;
namespace support = drms::support;
using Volume = drms::test::TestVolume;
using drms::rt::TaskContext;
using drms::rt::TaskGroup;
using drms::test::cube;
using drms::test::fill_assigned_tagged;
using drms::test::placement_of;
using drms::test::tag_of;
using support::BlockCodec;

constexpr Index kN = 8;

AppSegmentModel tiny_segment() {
  AppSegmentModel m;
  m.static_local_bytes = 16 * 1024;
  m.system_bytes = 16 * 1024;
  return m;
}

/// Deterministic pseudo-random bytes (xorshift64*) — incompressible for
/// both in-tree codecs.
std::vector<std::byte> noise(std::size_t n, std::uint64_t seed) {
  std::vector<std::byte> out(n);
  std::uint64_t x = seed | 1;
  for (std::size_t i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    out[i] = static_cast<std::byte>(x * 0x2545f4914f6cdd1dull >> 56);
  }
  return out;
}

/// Solver-like bytes: long zero runs (halo padding) interleaved with
/// slowly varying doubles — compressible by both codecs.
std::vector<std::byte> solver_like(std::size_t n, std::uint64_t seed) {
  std::vector<std::byte> out(n, std::byte{0});
  std::uint64_t x = seed | 1;
  for (std::size_t i = 0; i + sizeof(double) <= n; i += sizeof(double)) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    if (x % 3 == 0) {
      continue;  // leave a zero-run hole
    }
    const double v = 0.25 * static_cast<double>(i % 97);
    std::memcpy(out.data() + i, &v, sizeof(double));
  }
  return out;
}

std::vector<std::byte> round_trip(BlockCodec requested,
                                  std::span<const std::byte> raw,
                                  BlockCodec* used = nullptr) {
  support::ByteBuffer stored;
  const BlockCodec actual = support::block_encode(requested, raw, stored);
  if (used != nullptr) {
    *used = actual;
  }
  support::ByteBuffer decoded;
  support::block_decode(actual, stored.bytes(), raw.size(), decoded);
  const auto span = decoded.bytes();
  return {span.begin(), span.end()};
}

TEST(DeltaCodec, AllZeroBlockCollapses) {
  const std::vector<std::byte> raw(64 * 1024, std::byte{0});
  for (const BlockCodec codec :
       {BlockCodec::kRaw, BlockCodec::kZeroRle, BlockCodec::kLz}) {
    support::ByteBuffer stored;
    const BlockCodec used = support::block_encode(codec, raw, stored);
    if (codec != BlockCodec::kRaw) {
      EXPECT_EQ(used, codec) << support::to_string(codec);
      // A 64 KiB zero block must collapse: zero-RLE to one record, LZ to
      // one max-length match per ~260 bytes (its match length cap).
      const std::size_t bound =
          codec == BlockCodec::kZeroRle ? raw.size() / 1000 : raw.size() / 50;
      EXPECT_LT(stored.size(), bound) << support::to_string(codec);
    }
    support::ByteBuffer decoded;
    support::block_decode(used, stored.bytes(), raw.size(), decoded);
    EXPECT_TRUE(std::equal(raw.begin(), raw.end(), decoded.bytes().begin()));
  }
}

TEST(DeltaCodec, IncompressibleFallsBackToRaw) {
  const std::vector<std::byte> raw = noise(32 * 1024, 0x5eed);
  for (const BlockCodec codec : {BlockCodec::kZeroRle, BlockCodec::kLz}) {
    support::ByteBuffer stored;
    const BlockCodec used = support::block_encode(codec, raw, stored);
    EXPECT_EQ(used, BlockCodec::kRaw) << support::to_string(codec);
    // The raw fallback is a plain copy: stored blocks never expand.
    EXPECT_EQ(stored.size(), raw.size());
    support::ByteBuffer decoded;
    support::block_decode(used, stored.bytes(), raw.size(), decoded);
    EXPECT_TRUE(std::equal(raw.begin(), raw.end(), decoded.bytes().begin()));
  }
}

TEST(DeltaCodec, RoundTripAtBoundarySizes) {
  // Sizes straddling the codecs' internal units: the LZ control-byte
  // group (8), its minimum match (4), the zero-RLE record threshold, and
  // block-boundary sizes around the default granularities.
  const std::size_t sizes[] = {1,    3,    7,     8,     9,     255,  256,
                               4095, 4096, 65535, 65536, 65537, 262144};
  for (const std::size_t n : sizes) {
    const std::vector<std::byte> compressible = solver_like(n, n);
    const std::vector<std::byte> incompressible = noise(n, n);
    for (const BlockCodec codec :
         {BlockCodec::kRaw, BlockCodec::kZeroRle, BlockCodec::kLz}) {
      EXPECT_EQ(round_trip(codec, compressible), compressible)
          << support::to_string(codec) << " size " << n;
      EXPECT_EQ(round_trip(codec, incompressible), incompressible)
          << support::to_string(codec) << " size " << n;
    }
  }
}

TEST(DeltaCodec, CrossCodecEquivalence) {
  // Whatever the wire bytes look like, every codec must decode to the
  // same raw block.
  const std::vector<std::byte> raw = solver_like(48 * 1024, 0xabcd);
  const std::vector<std::byte> via_raw = round_trip(BlockCodec::kRaw, raw);
  const std::vector<std::byte> via_rle = round_trip(BlockCodec::kZeroRle, raw);
  const std::vector<std::byte> via_lz = round_trip(BlockCodec::kLz, raw);
  EXPECT_EQ(via_raw, raw);
  EXPECT_EQ(via_rle, raw);
  EXPECT_EQ(via_lz, raw);
}

TEST(DeltaCodec, SolverLikeBlocksShrink) {
  const std::vector<std::byte> raw = solver_like(64 * 1024, 0x1234);
  for (const BlockCodec codec : {BlockCodec::kZeroRle, BlockCodec::kLz}) {
    support::ByteBuffer stored;
    const BlockCodec used = support::block_encode(codec, raw, stored);
    EXPECT_EQ(used, codec) << support::to_string(codec);
    EXPECT_LT(stored.size(), raw.size()) << support::to_string(codec);
  }
}

TEST(DeltaCodec, TruncatedStoredBytesRejected) {
  const std::vector<std::byte> raw = solver_like(16 * 1024, 0x77);
  for (const BlockCodec codec : {BlockCodec::kZeroRle, BlockCodec::kLz}) {
    support::ByteBuffer stored;
    const BlockCodec used = support::block_encode(codec, raw, stored);
    ASSERT_EQ(used, codec);
    const auto bytes = stored.bytes();
    support::ByteBuffer decoded;
    EXPECT_THROW(support::block_decode(codec, bytes.subspan(0, bytes.size() / 2),
                                       raw.size(), decoded),
                 support::CorruptCheckpoint)
        << support::to_string(codec);
  }
}

TEST(DeltaCodec, NameRoundTrip) {
  for (const BlockCodec codec :
       {BlockCodec::kRaw, BlockCodec::kZeroRle, BlockCodec::kLz}) {
    const auto parsed = support::block_codec_from_name(support::to_string(codec));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, codec);
  }
  EXPECT_FALSE(support::block_codec_from_name("gzip").has_value());
}

TEST(DeltaTracking, MutationLogDegradesToMarkAll) {
  MutationLog log;
  EXPECT_TRUE(log.clean());
  const Slice s = cube(2);
  log.mark(s);
  EXPECT_FALSE(log.clean());
  EXPECT_FALSE(log.all);
  EXPECT_TRUE(log.intersects(cube(8)));
  for (std::size_t i = 0; i < MutationLog::kMaxSlices + 1; ++i) {
    log.mark(s);
  }
  EXPECT_TRUE(log.all) << "the slice list must overflow into mark-all";
  log.clear();
  EXPECT_TRUE(log.clean());
}

TEST(DeltaTracking, WritePathsMarkAndConstPathsDoNot) {
  LocalArray local(cube(4), sizeof(double));
  MutationLog log;
  local.attach_mutation_log(&log);

  // Const reads leave the log clean.
  (void)static_cast<const LocalArray&>(local).as_f64();
  (void)static_cast<const LocalArray&>(local).bytes();
  const std::array<Index, 3> p{1, 2, 3};
  (void)local.get_f64(p);
  EXPECT_TRUE(log.clean());

  // set_f64 marks the point.
  local.set_f64(p, 7.0);
  EXPECT_FALSE(log.clean());
  EXPECT_FALSE(log.all);
  log.clear();

  // insert marks its target slice.
  const Slice slab =
      Slice::box(std::array<Index, 3>{0, 0, 0}, std::array<Index, 3>{3, 3, 0});
  std::vector<std::byte> buf(
      static_cast<std::size_t>(slab.element_count()) * sizeof(double));
  local.insert(slab, buf);
  EXPECT_FALSE(log.clean());
  EXPECT_TRUE(log.intersects(slab));
  log.clear();

  // Raw-span access is conservative: everything goes dirty.
  (void)local.as_f64();
  EXPECT_TRUE(log.all);
}

TEST(DeltaTracking, CollectDirtyBlocksIsPrecise) {
  constexpr int kP = 2;
  DistArray array("u", cube(kN), sizeof(double), kP);
  array.enable_dirty_tracking();
  array.install_distribution(
      DistSpec::block_auto(cube(kN), kP, std::vector<Index>(3, 0)));

  // 8^3 doubles in 512-byte blocks -> 8 blocks of 64 elements each.
  const StreamPlan plan = make_stream_plan(cube(kN), sizeof(double), 1, 512);
  ASSERT_EQ(plan.chunk_count(), 8u);

  // Fresh logs start all-dirty (everything must land in the first
  // generation).
  EXPECT_EQ(collect_dirty_blocks(array, plan.chunks).size(), 8u);

  array.clear_mutation_logs();
  EXPECT_TRUE(collect_dirty_blocks(array, plan.chunks).empty());

  // One point dirtied -> exactly the covering block comes back.
  const std::array<Index, 3> p{0, 0, 0};
  array.local(0).set_f64(p, 1.0);
  const std::vector<std::uint64_t> dirty =
      collect_dirty_blocks(array, plan.chunks);
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0], 0u);

  array.mark_all_dirty();
  EXPECT_EQ(collect_dirty_blocks(array, plan.chunks).size(), 8u);
}

/// Two-array app under delta mode: checkpoints at every even iteration
/// under per-generation prefixes "<stem>.g<k>" (or `prefix_of(it)`);
/// mutates one plane of `u` each iteration through the precise write
/// path and never touches `cold` after the first generation.
struct DeltaApp {
  static void run(DrmsProgram& program, TaskContext& ctx, int iterations,
                  const std::string& stem) {
    run(program, ctx, iterations, [&stem](std::int64_t it) {
      return stem + ".g" + std::to_string(it);
    });
  }

  static void run(DrmsProgram& program, TaskContext& ctx, int iterations,
                  const std::function<std::string(std::int64_t)>& prefix_of) {
    DrmsContext drms(program, ctx);
    std::int64_t it = 0;
    drms.store().register_i64("it", &it);
    drms.initialize();

    const std::array<Index, 3> lo{0, 0, 0};
    const std::array<Index, 3> hi{kN - 1, kN - 1, kN - 1};
    DistArray& u = drms.create_array("u", lo, hi);
    DistArray& cold = drms.create_array("cold", lo, hi);
    const DistSpec spec = DistSpec::block_auto(
        cube(kN), ctx.size(), std::vector<Index>(3, 0));
    drms.distribute(u, spec);
    drms.distribute(cold, spec);

    if (!drms.restarted()) {
      const Slice& mine = spec.assigned(ctx.rank());
      mine.for_each_column_major([&](std::span<const Index> p) {
        u.local(ctx.rank()).set_f64(p, tag_of(p));
        cold.local(ctx.rank()).set_f64(p, 3.0 * tag_of(p));
      });
      ctx.barrier();
    }

    while (it < iterations) {
      if (it > 0 && it % 2 == 0) {
        (void)drms.reconfig_checkpoint(prefix_of(it));
      }
      // Touch only the global z == 0 plane — a task-count-independent
      // mutation (each task scales whatever part of the plane it owns),
      // recorded precisely by the set_f64 hook.
      const Slice& mine = u.distribution().assigned(ctx.rank());
      mine.for_each_column_major([&](std::span<const Index> p) {
        if (p[2] == 0) {
          u.local(ctx.rank())
              .set_f64(p, u.local(ctx.rank()).get_f64(p) * 1.01);
        }
      });
      ctx.barrier();
      ++it;
    }
  }
};

double digest(DrmsProgram& program, TaskContext& ctx,
              const std::string& name) {
  double sum = 0.0;
  if (ctx.rank() == 0) {
    DrmsContext view(program, ctx);
    DistArray& a = view.array(name);
    cube(kN).for_each_column_major(
        [&](std::span<const Index> p) { sum += a.get_f64(p); });
  }
  ctx.barrier();
  return sum;
}

DrmsEnv delta_env(Volume& volume, int full_every_k,
                  const std::string& restart = "") {
  DrmsEnv env;
  env.storage = &volume.backend();
  env.delta = true;
  env.delta_full_every_k = full_every_k;
  env.delta_block_bytes = 512;  // 8 stream blocks over the 8^3 array
  env.restart_prefix = restart;
  return env;
}

/// Run DeltaApp to 9 iterations (full_every_k=4, delta on or off,
/// optionally restarting from `restart`) and return the digest of `u`.
double run_app(Volume& volume, int tasks, bool delta,
               const std::string& restart,
               const std::function<std::string(std::int64_t)>& prefix_of =
                   [](std::int64_t it) {
                     return "dc.g" + std::to_string(it);
                   }) {
  DrmsEnv env = delta_env(volume, 4, restart);
  env.delta = delta;
  DrmsProgram program("dc", env, tiny_segment(), tasks);
  TaskGroup group(placement_of(tasks));
  double sum = 0.0;
  const auto result = group.run([&](TaskContext& ctx) {
    DeltaApp::run(program, ctx, 9, prefix_of);
    const double d = digest(program, ctx, "u");
    if (ctx.rank() == 0) {
      sum = d;
    }
  });
  EXPECT_TRUE(result.completed);
  return sum;
}

TEST(DeltaChain, GenerationsAlternatePerPolicy) {
  Volume volume(16);
  DrmsProgram program("dc", delta_env(volume, 2), tiny_segment(), 4);
  TaskGroup group(placement_of(4));
  const auto result = group.run([&](TaskContext& ctx) {
    DeltaApp::run(program, ctx, 9, "dc");  // checkpoints at it=2,4,6,8
  });
  ASSERT_TRUE(result.completed);

  // full_every_k=2: full, delta-on-g2, full, delta-on-g6.
  EXPECT_EQ(read_checkpoint_meta(volume, "dc.g2").kind, GenerationKind::kFull);
  const CheckpointMeta g4 = read_checkpoint_meta(volume, "dc.g4");
  EXPECT_EQ(g4.kind, GenerationKind::kDelta);
  EXPECT_EQ(g4.base_prefix, "dc.g2");
  EXPECT_EQ(g4.chain_depth, 1);
  EXPECT_EQ(read_checkpoint_meta(volume, "dc.g6").kind, GenerationKind::kFull);
  const CheckpointMeta g8 = read_checkpoint_meta(volume, "dc.g8");
  EXPECT_EQ(g8.kind, GenerationKind::kDelta);
  EXPECT_EQ(g8.base_prefix, "dc.g6");

  // The delta's array files exist in the delta layout; the cold array
  // (never written after the base) stores zero blocks but the file is
  // still published so the chain walk sees a complete state.
  EXPECT_TRUE(volume.exists(delta_array_file_name("dc.g8", "u")));
  const ArrayMeta& cold = g8.array("cold");
  EXPECT_EQ(cold.dirty_blocks, 0u);
  EXPECT_GT(g8.array("u").dirty_blocks, 0u);

  const DeltaChainState state = program.delta_chain_state();
  EXPECT_EQ(state.last_kind, GenerationKind::kDelta);
  EXPECT_GT(state.last_stored_bytes, 0u);
  EXPECT_EQ(state.chain.size(), 2u);
  EXPECT_EQ(state.chain.back(), "dc.g8");
}

TEST(DeltaChain, RestartFromChainTipIsExactAcrossTaskCounts) {
  // Reference: same app, plain full dumps, run to completion.
  Volume ref_volume(16);
  const double reference = run_app(ref_volume, 4, false, "");

  Volume volume(16);
  (void)run_app(volume, 4, true, "");
  // full_every_k=4: g2 full, then g4/g6/g8 deltas — the tip is a depth-3
  // delta whose restore must replay the base plus three links, on a
  // DIFFERENT task count (chain replay is distribution-independent).
  const auto tip = latest_checkpoint(volume, "dc");
  ASSERT_TRUE(tip.has_value());
  ASSERT_EQ(tip->prefix, "dc.g8");
  ASSERT_EQ(tip->meta.chain_depth, 3);
  const double resumed = run_app(volume, 6, true, tip->prefix);
  EXPECT_EQ(resumed, reference);
}

TEST(DeltaChain, DeepVerifyWalksChainAndCatchesCorruption) {
  Volume volume(16);
  DrmsProgram program("dc", delta_env(volume, 4), tiny_segment(), 4);
  TaskGroup group(placement_of(4));
  const auto result = group.run([&](TaskContext& ctx) {
    DeltaApp::run(program, ctx, 9, "dc");  // g2 full; g4,g6,g8 deltas
  });
  ASSERT_TRUE(result.completed);

  const auto tip = latest_checkpoint(volume, "dc");
  ASSERT_TRUE(tip.has_value());
  EXPECT_EQ(tip->prefix, "dc.g8");
  EXPECT_TRUE(verify_checkpoint(volume, *tip, /*deep=*/true).ok);

  // Corrupt one payload byte of an ANCESTOR delta (g4's u file): only the
  // whole-chain walk can see it.
  {
    auto file = volume.backend().open(delta_array_file_name("dc.g4", "u"));
    std::byte flip[1];
    file.read_at_into(wire::kDeltaHeaderBytes, flip);
    flip[0] ^= std::byte{0xff};
    file.write_at(wire::kDeltaHeaderBytes, flip);
  }
  const VerifyResult bad = verify_checkpoint(volume, *tip, /*deep=*/true);
  EXPECT_FALSE(bad.ok);
  ASSERT_FALSE(bad.problems.empty());
}

TEST(DeltaChain, GcKeepsBaseAcrossChainBoundary) {
  Volume volume(16);
  DrmsProgram program("dc", delta_env(volume, 2), tiny_segment(), 4);
  TaskGroup group(placement_of(4));
  const auto result = group.run([&](TaskContext& ctx) {
    DeltaApp::run(program, ctx, 9, "dc");
  });
  ASSERT_TRUE(result.completed);
  // States: g2 full, g4 delta(g2), g6 full, g8 delta(g6).

  // keep_last_k=1 spans the g8 -> g6 chain boundary: g6 must survive as
  // g8's base even though retention alone would retire it.
  const int removed = gc_superseded_states(volume.backend(), "dc", "", 1);
  EXPECT_EQ(removed, 2);
  EXPECT_TRUE(checkpoint_exists(volume, "dc.g8"));
  EXPECT_TRUE(checkpoint_exists(volume, "dc.g6"));
  EXPECT_FALSE(commit_manifest_exists(volume, "dc.g4"));
  EXPECT_FALSE(commit_manifest_exists(volume, "dc.g2"));

  // The surviving chain still restores: the tip stays a valid candidate.
  const VerifyResult v = verify_checkpoint(
      volume, *latest_checkpoint(volume.backend(), "dc"), /*deep=*/true);
  EXPECT_TRUE(v.ok) << (v.problems.empty() ? "" : v.problems.front());
}

TEST(DeltaChain, BrokenBaseMakesDeltaTorn) {
  Volume volume(16);
  DrmsProgram program("dc", delta_env(volume, 2), tiny_segment(), 4);
  TaskGroup group(placement_of(4));
  const auto result = group.run([&](TaskContext& ctx) {
    DeltaApp::run(program, ctx, 5, "dc");  // g2 full, g4 delta(g2)
  });
  ASSERT_TRUE(result.completed);
  ASSERT_TRUE(commit_status(volume, "dc.g4", false).committed);

  // Decommit the base: every delta that depends on it becomes torn.
  ASSERT_TRUE(decommit_checkpoint(volume.backend(), "dc.g2"));

  const CommitCheck check = commit_status(volume, "dc.g4", false);
  EXPECT_FALSE(check.committed);
  ASSERT_FALSE(check.problems.empty());

  // Not a restart candidate anymore...
  for (const auto& r : restart_candidates(volume, "dc")) {
    EXPECT_NE(r.prefix, "dc.g4");
  }
  // ...and fsck surfaces it as a torn state with reclaimable files.
  bool flagged = false;
  for (const auto& s : fsck_scan(volume, "dc.g4")) {
    if (s.prefix == "dc.g4") {
      flagged = true;
      EXPECT_FALSE(s.committed);
      EXPECT_FALSE(s.problems.empty());
    }
  }
  EXPECT_TRUE(flagged);
}

TEST(DeltaChain, PrefixInLiveChainWritesFreshFullChain) {
  // Checkpoints at it=2,4,6,8 go to a, b, a, c. Rewriting "a" while it
  // is the live chain's base must not ride on the chain (the decommit
  // would pull the base out from under "b"): it writes a full generation
  // and starts a fresh chain that "c" then extends.
  const auto prefix_of = [](std::int64_t it) -> std::string {
    switch (it) {
      case 2: return "pc.a";
      case 4: return "pc.b";
      case 6: return "pc.a";
      default: return "pc.c";
    }
  };
  Volume ref_volume(16);
  const double reference = run_app(ref_volume, 4, false, "", prefix_of);

  Volume volume(16);
  (void)run_app(volume, 4, true, "", prefix_of);
  const CheckpointMeta a = read_checkpoint_meta(volume, "pc.a");
  EXPECT_EQ(a.kind, GenerationKind::kFull);
  EXPECT_EQ(a.sop, 3);  // the rewrite, not the first generation
  EXPECT_EQ(read_checkpoint_meta(volume, "pc.b").kind,
            GenerationKind::kDelta);
  const CheckpointMeta c = read_checkpoint_meta(volume, "pc.c");
  EXPECT_EQ(c.kind, GenerationKind::kDelta);
  EXPECT_EQ(c.base_prefix, "pc.a");
  EXPECT_EQ(c.chain_depth, 1);  // fresh chain: a (full) -> c

  // Both generations of the fresh chain restore exactly, at task counts
  // other than the writer's.
  EXPECT_EQ(run_app(volume, 3, true, "pc.c", prefix_of), reference);
  EXPECT_EQ(run_app(volume, 5, true, "pc.a", prefix_of), reference);
}

TEST(DeltaChain, RewrittenBaseDisqualifiesItsDeltas) {
  // Checkpoints at it=2,4,6 go to a, b, a: "b" is a delta on the first
  // "a", and the array changes before "a" is rewritten as a full
  // generation. "b" names "a" as its base but was not taken on the
  // rewrite, so replaying it over the rewrite would restore a field that
  // never existed.
  const auto prefix_of = [](std::int64_t it) -> std::string {
    return it == 4 ? "rb.b" : "rb.a";
  };
  Volume volume(16);
  DrmsProgram program("dc", delta_env(volume, 4), tiny_segment(), 4);
  TaskGroup group(placement_of(4));
  ASSERT_TRUE(group
                  .run([&](TaskContext& ctx) {
                    DeltaApp::run(program, ctx, 7, prefix_of);
                  })
                  .completed);
  ASSERT_EQ(read_checkpoint_meta(volume, "rb.a").kind, GenerationKind::kFull);
  const CheckpointMeta b_meta = read_checkpoint_meta(volume, "rb.b");
  ASSERT_EQ(b_meta.kind, GenerationKind::kDelta);
  ASSERT_EQ(b_meta.base_prefix, "rb.a");

  // Not committed, so not a restart candidate...
  EXPECT_FALSE(commit_status(volume, "rb.b", false).committed);
  for (const auto& r : restart_candidates(volume, "dc")) {
    EXPECT_NE(r.prefix, "rb.b");
  }
  // ...verify reports it...
  CheckpointRecord b;
  b.prefix = "rb.b";
  b.meta = b_meta;
  const VerifyResult v = verify_checkpoint(volume, b, /*deep=*/true);
  EXPECT_FALSE(v.ok);
  EXPECT_FALSE(v.problems.empty());
  // ...restoring it refuses instead of replaying onto the rewrite...
  TaskGroup restore_group(placement_of(3));
  DistArray u("u", cube(kN), sizeof(double), 3);
  ASSERT_TRUE(restore_group
                  .run([&](TaskContext& ctx) {
                    if (ctx.rank() == 0) {
                      u.install_distribution(DistSpec::block_auto(
                          cube(kN), 3, std::vector<Index>(3, 0)));
                    }
                    ctx.barrier();
                    DrmsCheckpoint engine(volume.backend(), {});
                    RestartTiming timing;
                    EXPECT_THROW(
                        engine.restore_array(ctx, "rb.b", b_meta, u, timing),
                        support::CorruptCheckpoint);
                  })
                  .completed);
  // ...and restart-from-latest picks the rewrite.
  const auto latest = latest_checkpoint(volume, "dc", "rb.");
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->prefix, "rb.a");
}

TEST(ArrayFingerprint, StableAndSensitive) {
  constexpr int kP = 4;
  TaskGroup group(placement_of(kP));
  DistArray array("u", cube(kN), sizeof(double), kP);
  const auto result = group.run([&](TaskContext& ctx) {
    if (ctx.rank() == 0) {
      array.install_distribution(
          DistSpec::block_auto(cube(kN), kP, std::vector<Index>(3, 1)));
    }
    ctx.barrier();
    const Slice& mine = array.distribution().assigned(ctx.rank());
    mine.for_each_column_major([&](std::span<const Index> p) {
      array.local(ctx.rank()).set_f64(p, tag_of(p));
    });
    ctx.barrier();

    const std::uint32_t fp1 = array_fingerprint(ctx, array);
    const std::uint32_t fp2 = array_fingerprint(ctx, array);
    EXPECT_EQ(fp1, fp2) << "fingerprint must be deterministic";

    // Mutate one element on one task; the fingerprint must change for
    // EVERY task (it is collective-identical).
    if (ctx.rank() == 1) {
      const Slice& assigned = array.distribution().assigned(1);
      std::vector<Index> point;
      for (int k = 0; k < assigned.rank(); ++k) {
        point.push_back(assigned.range(k).first());
      }
      array.local(1).set_f64(point, -1234.5);
    }
    ctx.barrier();
    const std::uint32_t fp3 = array_fingerprint(ctx, array);
    EXPECT_NE(fp1, fp3);
  });
  EXPECT_TRUE(result.completed);
}

TEST(ArrayFingerprint, MatchesStreamCrcAcrossTaskCounts) {
  // The digest is the CRC of the canonical stream a full generation
  // writes: it equals the recorded stream_crc at the writing task count
  // and again after a restore at a different one.
  Volume volume(16);
  const auto run = [&](int tasks, const std::string& restart) {
    DrmsEnv env;
    env.storage = &volume.backend();
    env.restart_prefix = restart;
    DrmsProgram program("fp", env, tiny_segment(), tasks);
    TaskGroup group(placement_of(tasks));
    std::uint32_t fp = 0;
    const auto result = group.run([&](TaskContext& ctx) {
      DrmsContext drms(program, ctx);
      std::int64_t it = 0;
      drms.store().register_i64("it", &it);
      drms.initialize();
      const std::array<Index, 3> lo{0, 0, 0};
      const std::array<Index, 3> hi{kN - 1, kN - 1, kN - 1};
      DistArray& u = drms.create_array("u", lo, hi);
      drms.distribute(u, DistSpec::block_auto(cube(kN), ctx.size(),
                                              std::vector<Index>(3, 1)));
      if (!drms.restarted()) {
        fill_assigned_tagged(u, ctx.rank());
        ctx.barrier();
        (void)drms.reconfig_checkpoint("fp.ck");
      }
      const std::uint32_t mine = array_fingerprint(ctx, u);
      if (ctx.rank() == 0) {
        fp = mine;
      }
    });
    EXPECT_TRUE(result.completed);
    return fp;
  };

  const std::uint32_t written = run(4, "");
  const CheckpointMeta meta = read_checkpoint_meta(volume, "fp.ck");
  ASSERT_EQ(meta.kind, GenerationKind::kFull);
  const std::uint32_t stream_crc = meta.array("u").stream_crc;
  EXPECT_EQ(written, stream_crc);
  EXPECT_EQ(run(3, "fp.ck"), stream_crc);
}

}  // namespace
