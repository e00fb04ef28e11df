// Per-layer microprobes. Each times the bench's own calls into one
// module's public functions at the workload's shape (task count, SP
// class-A array "u" of 5 x 64^3 doubles), so a layer's cost can be read
// next to the end-to-end numbers it feeds.
#include <algorithm>
#include <stdexcept>

#include "core/drms_context.hpp"
#include "core/exchange.hpp"
#include "core/streamer.hpp"
#include "rt/task_group.hpp"
#include "store/memory_backend.hpp"
#include "support/block_codec.hpp"
#include "support/crc32.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using drms::core::DistArray;
using drms::core::Slice;

constexpr int kReps = 12;
constexpr int kBarrierReps = 200;
constexpr int kLaunchReps = 12;

}  // namespace

void run_layer_probes(int tasks, std::uint64_t seed,
                      const std::vector<std::uint64_t>& codec_blocks,
                      SpanLog& spans,
                      std::map<std::string, std::vector<double>>& out) {
  // ---- rt: group launch -----------------------------------------------------
  for (int i = 0; i < kLaunchReps; ++i) {
    out["rt.launch_ms"].push_back(timed_call(spans, "rt.launch", 0, [&] {
      drms::rt::TaskGroup group(placement_for(tasks));
      (void)group.run([](drms::rt::TaskContext&) {});
    }));
  }

  const drms::apps::AppSpec spec = sp_spec();
  const drms::apps::ArrayDecl& decl = spec.arrays.front();
  const Slice box = spec.array_box(decl, kGridN);
  DistArray array(decl.name, box, sizeof(double), tasks);
  const std::uint64_t stream_bytes = array.global_byte_count();
  drms::store::MemoryBackend memory;
  std::vector<std::byte> stream;

  drms::rt::TaskGroup group(placement_for(tasks));
  const auto result = group.run([&](drms::rt::TaskContext& ctx) {
    const int rank = ctx.rank();
    if (rank == 0) {
      array.install_distribution(
          spec.array_distribution(decl, kGridN, tasks));
    }
    ctx.barrier();
    fill_solver_field(array.local(rank), seed, 0);
    ctx.barrier();

    // ---- rt: barrier --------------------------------------------------------
    for (int i = 0; i < kBarrierReps; ++i) {
      const Clock::time_point t0 = Clock::now();
      ctx.barrier();
      if (rank == 0) {
        const Clock::time_point t1 = Clock::now();
        spans.add("rt.barrier", rank, t0, t1);
        out["rt.barrier_us"].push_back(ms_between(t0, t1) * 1000.0);
      }
    }

    // ---- core: gather / scatter of rank 0's section -------------------------
    if (rank == 0) {
      const Slice& mine = array.distribution().assigned(0);
      std::vector<std::byte> buf(static_cast<std::size_t>(mine.element_count()) *
                                 sizeof(double));
      drms::core::LocalArray& local = array.local(0);
      for (int i = 0; i < kReps; ++i) {
        out["core.gather_ms"].push_back(timed_call(
            spans, "core.gather", 0, [&] { local.extract(mine, buf); }));
        out["core.scatter_ms"].push_back(timed_call(
            spans, "core.scatter", 0, [&] { local.insert(mine, buf); }));
      }
    }
    ctx.barrier();

    // ---- core: one exchange round into the canonical streaming chunks -------
    const drms::core::StreamPlan plan = drms::core::make_stream_plan(
        box, sizeof(double), tasks, stream_bytes / tasks + 1);
    std::vector<Slice> dst_mapped(static_cast<std::size_t>(tasks),
                                  Slice::empty_of_rank(box.rank()));
    for (std::size_t q = 0; q < plan.chunk_count() && q < dst_mapped.size();
         ++q) {
      dst_mapped[q] = plan.chunks[q];
    }
    const Slice& staged = dst_mapped[static_cast<std::size_t>(rank)];
    drms::core::LocalArray staging =
        staged.empty() ? drms::core::LocalArray()
                       : drms::core::LocalArray(staged, sizeof(double));
    const std::vector<Slice> src_assigned =
        array.distribution().assigned_slices();
    for (int i = 0; i < kReps; ++i) {
      ctx.barrier();
      const Clock::time_point t0 = Clock::now();
      drms::core::exchange_sections(
          ctx, src_assigned, &array.local(rank), dst_mapped,
          staging.element_count() > 0 ? &staging : nullptr, sizeof(double));
      ctx.barrier();
      if (rank == 0) {
        const Clock::time_point t1 = Clock::now();
        spans.add("core.exchange", rank, t0, t1);
        out["core.exchange_ms"].push_back(ms_between(t0, t1));
      }
    }

    // ---- core: stream one array alone through ArrayStreamer -----------------
    const drms::core::ArrayStreamer streamer(nullptr, {});
    if (rank == 0) {
      (void)memory.create("probe.stream");
    }
    ctx.barrier();
    const drms::store::FileHandle file = memory.open("probe.stream");
    for (int i = 0; i < kReps; ++i) {
      ctx.barrier();
      const Clock::time_point t0 = Clock::now();
      streamer.write_section(ctx, array, box, file, 0, tasks);
      ctx.barrier();
      const Clock::time_point t1 = Clock::now();
      streamer.read_section(ctx, array, box, file, 0, tasks);
      ctx.barrier();
      if (rank == 0) {
        const Clock::time_point t2 = Clock::now();
        spans.add("core.stream_write", rank, t0, t1);
        spans.add("core.stream_read", rank, t1, t2);
        out["core.stream_write_ms"].push_back(ms_between(t0, t1));
        out["core.stream_read_ms"].push_back(ms_between(t1, t2));
      }
    }
    if (rank == 0) {
      stream = file.read_at(0, file.size());
    }
  });
  if (!result.completed) {
    throw std::runtime_error("layer probe group did not complete");
  }

  // ---- support: CRC over one array's stream ---------------------------------
  volatile std::uint32_t sink = 0;
  for (int i = 0; i < kReps; ++i) {
    const double ms = timed_call(spans, "support.crc32c", 0,
                                 [&] { sink = drms::support::crc32c(stream); });
    out["support.crc_gbps"].push_back(
        static_cast<double>(stream.size()) / (ms * 1.0e-3) / 1.0e9);
  }
  (void)sink;

  // ---- support: block codec over the workload's dirty blocks ---------------
  const std::uint64_t block = drms::core::DrmsEnv{}.delta_block_bytes;
  const drms::support::BlockCodec codec = drms::core::DrmsEnv{}.delta_codec;
  std::vector<std::uint64_t> blocks = codec_blocks;
  if (blocks.empty()) {
    for (std::uint64_t b = 0; b * block < stream.size(); ++b) {
      blocks.push_back(b);
    }
  }
  std::uint64_t raw_total = 0;
  std::uint64_t stored_total = 0;
  for (const std::uint64_t b : blocks) {
    const std::uint64_t off = b * block;
    if (off >= stream.size()) {
      continue;
    }
    const std::uint64_t len = std::min<std::uint64_t>(block, stream.size() - off);
    const std::span<const std::byte> raw(stream.data() + off, len);
    drms::support::ByteBuffer encoded;
    drms::support::BlockCodec used = codec;
    out["support.encode_ms"].push_back(timed_call(
        spans, "support.block_encode", 0,
        [&] { used = drms::support::block_encode(codec, raw, encoded); }));
    drms::support::ByteBuffer decoded;
    out["support.decode_ms"].push_back(
        timed_call(spans, "support.block_decode", 0, [&] {
          drms::support::block_decode(used, encoded.bytes(), len, decoded);
        }));
    if (decoded.size() != len ||
        !std::equal(raw.begin(), raw.end(), decoded.bytes().begin())) {
      throw std::runtime_error("block codec round trip mismatch");
    }
    raw_total += len;
    stored_total += encoded.size();
  }
  if (raw_total > 0) {
    out["support.codec_ratio"].push_back(static_cast<double>(stored_total) /
                                         static_cast<double>(raw_total));
  }
}

}  // namespace perfbench
