// Timing decorator for store::StorageBackend, owned by the benchmark.
//
// Wraps any backend and accumulates host wall-clock time, operation counts
// and bytes, split into DATA operations (write_at, write_zeros_at, append;
// read_at, read_at_into) and METADATA operations (create, open, exists,
// list, remove, remove_prefix, file_size, total_size, and FileObject::size).
// Counters are atomics, so the decorator is safe under the engines'
// parallel streaming; snapshot() differences give per-operation windows
// (one SOP, one restore, one drain).
//
// Unlike obs::InstrumentedBackend it records no spans and takes no lock: it
// exists so the benchmark can attribute time to the storage layer without
// adding anything to the program under test. Simulated-time primitives and
// introspection delegate verbatim and are not counted.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "store/storage_backend.hpp"

namespace perfbench {

/// Plain copy of the decorator's counters at one instant.
struct IoSnapshot {
  std::uint64_t write_ns = 0;
  std::uint64_t write_ops = 0;
  std::uint64_t write_bytes = 0;
  std::uint64_t read_ns = 0;
  std::uint64_t read_ops = 0;
  std::uint64_t read_bytes = 0;
  std::uint64_t meta_ns = 0;
  std::uint64_t meta_ops = 0;

  /// Counter-wise `*this - earlier`.
  [[nodiscard]] IoSnapshot since(const IoSnapshot& earlier) const {
    return {write_ns - earlier.write_ns,     write_ops - earlier.write_ops,
            write_bytes - earlier.write_bytes, read_ns - earlier.read_ns,
            read_ops - earlier.read_ops,     read_bytes - earlier.read_bytes,
            meta_ns - earlier.meta_ns,       meta_ops - earlier.meta_ops};
  }
};

/// Append one window's counters to per-layer series named
/// `<prefix>.write_ms`, `.write_ops`, `.write_bytes`, `.read_*` and
/// `.meta_ops` / `.meta_ms`, for the groups selected.
inline void add_io_window(std::map<std::string, std::vector<double>>& layer,
                          const std::string& prefix, const IoSnapshot& d,
                          bool writes, bool reads, bool meta) {
  const auto ms = [](std::uint64_t ns) { return static_cast<double>(ns) * 1e-6; };
  const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
  if (writes) {
    layer[prefix + ".write_ms"].push_back(ms(d.write_ns));
    layer[prefix + ".write_ops"].push_back(count(d.write_ops));
    layer[prefix + ".write_bytes"].push_back(count(d.write_bytes));
  }
  if (reads) {
    layer[prefix + ".read_ms"].push_back(ms(d.read_ns));
    layer[prefix + ".read_ops"].push_back(count(d.read_ops));
    layer[prefix + ".read_bytes"].push_back(count(d.read_bytes));
  }
  if (meta) {
    layer[prefix + ".meta_ops"].push_back(count(d.meta_ops));
    layer[prefix + ".meta_ms"].push_back(ms(d.meta_ns));
  }
}

/// Shared by a TimedBackend and every file handle it hands out, so handles
/// may outlive the backend object without dangling.
struct IoCounters {
  std::atomic<std::uint64_t> write_ns{0};
  std::atomic<std::uint64_t> write_ops{0};
  std::atomic<std::uint64_t> write_bytes{0};
  std::atomic<std::uint64_t> read_ns{0};
  std::atomic<std::uint64_t> read_ops{0};
  std::atomic<std::uint64_t> read_bytes{0};
  std::atomic<std::uint64_t> meta_ns{0};
  std::atomic<std::uint64_t> meta_ops{0};

  [[nodiscard]] IoSnapshot snapshot() const {
    return {write_ns.load(), write_ops.load(), write_bytes.load(),
            read_ns.load(),  read_ops.load(),  read_bytes.load(),
            meta_ns.load(),  meta_ops.load()};
  }
};

/// Adds the elapsed time of one operation to a (ns, ops) counter pair when
/// it goes out of scope, so throwing operations are counted too.
class OpTimer {
 public:
  OpTimer(std::atomic<std::uint64_t>& ns, std::atomic<std::uint64_t>& ops)
      : ns_(ns), ops_(ops), t0_(std::chrono::steady_clock::now()) {}
  OpTimer(const OpTimer&) = delete;
  OpTimer& operator=(const OpTimer&) = delete;
  ~OpTimer() {
    const auto elapsed = std::chrono::steady_clock::now() - t0_;
    ns_.fetch_add(static_cast<std::uint64_t>(
                      std::chrono::duration_cast<std::chrono::nanoseconds>(
                          elapsed)
                          .count()),
                  std::memory_order_relaxed);
    ops_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t>& ns_;
  std::atomic<std::uint64_t>& ops_;
  std::chrono::steady_clock::time_point t0_;
};

class TimedFile final : public drms::store::FileObject {
 public:
  TimedFile(drms::store::FileHandle inner,
            std::shared_ptr<IoCounters> counters)
      : inner_(std::move(inner)), counters_(std::move(counters)) {}

  void write_at(std::uint64_t offset,
                std::span<const std::byte> data) override {
    const OpTimer t(counters_->write_ns, counters_->write_ops);
    inner_.write_at(offset, data);
    counters_->write_bytes.fetch_add(data.size(), std::memory_order_relaxed);
  }
  void write_zeros_at(std::uint64_t offset, std::uint64_t count) override {
    const OpTimer t(counters_->write_ns, counters_->write_ops);
    inner_.write_zeros_at(offset, count);
    counters_->write_bytes.fetch_add(count, std::memory_order_relaxed);
  }
  [[nodiscard]] std::vector<std::byte> read_at(
      std::uint64_t offset, std::uint64_t count) const override {
    const OpTimer t(counters_->read_ns, counters_->read_ops);
    std::vector<std::byte> out = inner_.read_at(offset, count);
    counters_->read_bytes.fetch_add(out.size(), std::memory_order_relaxed);
    return out;
  }
  void read_at_into(std::uint64_t offset,
                    std::span<std::byte> out) const override {
    const OpTimer t(counters_->read_ns, counters_->read_ops);
    inner_.read_at_into(offset, out);
    counters_->read_bytes.fetch_add(out.size(), std::memory_order_relaxed);
  }
  void append(std::span<const std::byte> data) override {
    const OpTimer t(counters_->write_ns, counters_->write_ops);
    inner_.append(data);
    counters_->write_bytes.fetch_add(data.size(), std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t size() const override {
    const OpTimer t(counters_->meta_ns, counters_->meta_ops);
    return inner_.size();
  }
  [[nodiscard]] const std::string& name() const override {
    return inner_.name();
  }

 private:
  drms::store::FileHandle inner_;
  std::shared_ptr<IoCounters> counters_;
};

class TimedBackend final : public drms::store::StorageBackend {
 public:
  /// Borrows `inner`, which must outlive this object.
  explicit TimedBackend(drms::store::StorageBackend& inner)
      : inner_(inner), counters_(std::make_shared<IoCounters>()) {}

  [[nodiscard]] IoSnapshot snapshot() const { return counters_->snapshot(); }
  [[nodiscard]] drms::store::StorageBackend& inner() const { return inner_; }

  drms::store::FileHandle create(const std::string& name) override {
    const OpTimer t(counters_->meta_ns, counters_->meta_ops);
    return wrap(inner_.create(name));
  }
  [[nodiscard]] drms::store::FileHandle open(
      const std::string& name) const override {
    const OpTimer t(counters_->meta_ns, counters_->meta_ops);
    return wrap(inner_.open(name));
  }
  [[nodiscard]] bool exists(const std::string& name) const override {
    const OpTimer t(counters_->meta_ns, counters_->meta_ops);
    return inner_.exists(name);
  }
  void remove(const std::string& name) override {
    const OpTimer t(counters_->meta_ns, counters_->meta_ops);
    inner_.remove(name);
  }
  int remove_prefix(const std::string& prefix) override {
    const OpTimer t(counters_->meta_ns, counters_->meta_ops);
    return inner_.remove_prefix(prefix);
  }
  [[nodiscard]] std::vector<std::string> list(
      const std::string& prefix = "") const override {
    const OpTimer t(counters_->meta_ns, counters_->meta_ops);
    return inner_.list(prefix);
  }
  [[nodiscard]] std::uint64_t file_size(
      const std::string& name) const override {
    const OpTimer t(counters_->meta_ns, counters_->meta_ops);
    return inner_.file_size(name);
  }
  [[nodiscard]] std::uint64_t total_size(
      const std::string& prefix) const override {
    const OpTimer t(counters_->meta_ns, counters_->meta_ops);
    return inner_.total_size(prefix);
  }

  [[nodiscard]] drms::store::StorageStats stats() const override {
    return inner_.stats();
  }
  void reset_stats() override { inner_.reset_stats(); }
  [[nodiscard]] std::string description() const override {
    return "timed(" + inner_.description() + ")";
  }
  [[nodiscard]] int server_count() const override {
    return inner_.server_count();
  }
  [[nodiscard]] std::uint64_t capacity_bytes() const override {
    return inner_.capacity_bytes();
  }
  [[nodiscard]] std::uint64_t used_bytes() const override {
    return inner_.used_bytes();
  }

  [[nodiscard]] const drms::sim::CostModel* cost_model() const override {
    return inner_.cost_model();
  }
  [[nodiscard]] double single_write_seconds(
      std::uint64_t bytes, const drms::sim::LoadContext& ctx,
      drms::support::Rng* jitter) const override {
    return inner_.single_write_seconds(bytes, ctx, jitter);
  }
  [[nodiscard]] double concurrent_write_seconds(
      std::uint64_t bytes_per_writer, int writers,
      const drms::sim::LoadContext& ctx,
      drms::support::Rng* jitter) const override {
    return inner_.concurrent_write_seconds(bytes_per_writer, writers, ctx,
                                           jitter);
  }
  [[nodiscard]] double shared_read_seconds(
      std::uint64_t bytes, int readers, const drms::sim::LoadContext& ctx,
      drms::support::Rng* jitter) const override {
    return inner_.shared_read_seconds(bytes, readers, ctx, jitter);
  }
  [[nodiscard]] double private_read_seconds(
      std::uint64_t bytes_per_reader, int readers,
      const drms::sim::LoadContext& ctx,
      drms::support::Rng* jitter) const override {
    return inner_.private_read_seconds(bytes_per_reader, readers, ctx,
                                       jitter);
  }
  [[nodiscard]] double stream_write_round_seconds(
      std::uint64_t bytes, int writers, const drms::sim::LoadContext& ctx,
      drms::support::Rng* jitter) const override {
    return inner_.stream_write_round_seconds(bytes, writers, ctx, jitter);
  }
  [[nodiscard]] double stream_read_round_seconds(
      std::uint64_t bytes, int readers, const drms::sim::LoadContext& ctx,
      drms::support::Rng* jitter) const override {
    return inner_.stream_read_round_seconds(bytes, readers, ctx, jitter);
  }

 private:
  [[nodiscard]] drms::store::FileHandle wrap(
      drms::store::FileHandle inner) const {
    return drms::store::FileHandle(
        std::make_shared<TimedFile>(std::move(inner), counters_));
  }

  drms::store::StorageBackend& inner_;
  std::shared_ptr<IoCounters> counters_;
};

}  // namespace perfbench
