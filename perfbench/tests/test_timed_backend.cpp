// Tests of the benchmark's TimedBackend decorator: pass-through content,
// exact data/metadata split of counts and bytes, counting under concurrent
// writers, and agreement with the inner backend's own byte counters on a
// real DRMS checkpoint write and restore. Exit code 0 when every check
// holds; run by `python3 perfbench/run.py --selftest`.
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/drms_checkpoint.hpp"
#include "rt/task_group.hpp"
#include "store/memory_backend.hpp"
#include "timed_backend.hpp"

namespace {

using drms::store::MemoryBackend;
using perfbench::IoSnapshot;
using perfbench::TimedBackend;

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

std::vector<std::byte> bytes_of(const std::string& s) {
  std::vector<std::byte> out(s.size());
  std::memcpy(out.data(), s.data(), s.size());
  return out;
}

void test_split_and_passthrough() {
  MemoryBackend memory;
  TimedBackend timed(memory);
  const IoSnapshot s0 = timed.snapshot();

  auto file = timed.create("a");                       // meta 1
  file.write_at(0, bytes_of("hello"));                  // write 1: 5 B
  file.append(bytes_of(" world"));                      // write 2: 6 B
  file.write_zeros_at(11, 4);                           // write 3: 4 B
  const auto back = file.read_at(0, 11);                // read 1: 11 B
  std::vector<std::byte> into(5);
  timed.open("a").read_at_into(6, into);                // meta 2, read 2: 5 B
  check(timed.exists("a"), "exists sees the file");     // meta 3
  check(timed.list("").size() == 1, "list sees one");   // meta 4
  check(timed.file_size("a") == 15, "file_size");       // meta 5
  check(file.size() == 15, "handle size");              // meta 6
  timed.remove("a");                                    // meta 7
  check(!memory.exists("a"), "remove reaches the inner backend");

  check(back == bytes_of("hello world"), "read_at returns written bytes");
  check(into == bytes_of("world"), "read_at_into returns written bytes");

  const IoSnapshot d = timed.snapshot().since(s0);
  check(d.write_ops == 3, "write ops");
  check(d.write_bytes == 15, "write bytes");
  check(d.read_ops == 2, "read ops");
  check(d.read_bytes == 16, "read bytes");
  check(d.meta_ops == 7, "meta ops: create open exists list size x2 remove");
  check(d.write_ns > 0 && d.read_ns > 0 && d.meta_ns > 0, "times recorded");
  check(memory.stats().bytes_written == 15, "inner backend saw the writes");
}

void test_failed_op_is_counted() {
  MemoryBackend memory;
  TimedBackend timed(memory);
  bool threw = false;
  try {
    (void)timed.open("missing");
  } catch (const std::exception&) {
    threw = true;
  }
  check(threw, "open of a missing file still throws");
  check(timed.snapshot().meta_ops == 1, "a throwing op is counted");
}

void test_concurrent_writers() {
  constexpr int kThreads = 4;
  constexpr int kWrites = 2000;
  MemoryBackend memory;
  TimedBackend timed(memory);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&timed, t] {
      auto file = timed.create("f" + std::to_string(t));
      const std::vector<std::byte> block(64, std::byte{1});
      for (int i = 0; i < kWrites; ++i) {
        file.write_at(static_cast<std::uint64_t>(i) * 64, block);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  const IoSnapshot s = timed.snapshot();
  check(s.write_ops == kThreads * kWrites, "concurrent write ops all counted");
  check(s.write_bytes == std::uint64_t{kThreads} * kWrites * 64,
        "concurrent write bytes all counted");
  check(s.meta_ops == kThreads, "one create per thread");
}

void test_engine_bytes_agree() {
  using namespace drms;
  constexpr int kTasks = 3;
  MemoryBackend memory;
  TimedBackend timed(memory);
  core::DrmsCheckpoint engine(timed, {});
  core::AppSegmentModel segment;
  segment.private_bytes = 64 * 1024;
  const core::Slice box = core::Slice::box(std::vector<core::Index>{0, 0, 0},
                                           std::vector<core::Index>{15, 15, 15});
  core::DistArray array("u", box, sizeof(double), kTasks);
  std::int64_t sop = 7;
  core::ReplicatedStore store;
  store.register_i64("sop", &sop);
  rt::TaskGroup group(sim::Placement::one_per_node(sim::Machine::paper_sp16(),
                                                   kTasks));
  const auto result = group.run([&](rt::TaskContext& ctx) {
    if (ctx.rank() == 0) {
      array.install_distribution(core::DistSpec::block_auto(
          box, kTasks, std::vector<core::Index>(3, 0)));
    }
    ctx.barrier();
    for (double& v : array.local(ctx.rank()).as_f64()) {
      v = ctx.rank() + 0.5;
    }
    ctx.barrier();
    core::DistArray* arrays[] = {&array};
    engine.write(ctx, "t.g1", "T", sop, store, arrays, segment);
    core::RestartTiming timing;
    const core::CheckpointMeta meta =
        engine.restore_segment(ctx, "t.g1", store, segment, timing);
    engine.restore_array(ctx, "t.g1", meta, array, timing);
  });
  check(result.completed, "checkpoint through the decorator completes");
  const IoSnapshot s = timed.snapshot();
  const store::StorageStats inner = memory.stats();
  check(s.write_bytes == inner.bytes_written,
        "decorator write bytes equal the backend's");
  check(s.read_bytes == inner.bytes_read,
        "decorator read bytes equal the backend's");
  check(s.write_bytes >= array.global_byte_count(), "array bytes written");
  check(s.meta_ops > 0, "engine made metadata ops");
}

}  // namespace

int main() {
  test_split_and_passthrough();
  test_failed_op_is_counted();
  test_concurrent_writers();
  test_engine_bytes_agree();
  if (g_failures != 0) {
    std::cerr << g_failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "timed backend: all checks passed\n";
  return 0;
}
