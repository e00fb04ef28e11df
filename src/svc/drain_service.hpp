// Event-queue drain: submits a TieredBackend's dirty-file work list to an
// IoScheduler as DRAIN-class items (one item per file, sharded by file
// name). Unlike the synchronous TieredBackend::drain() sweep, a queued
// drain yields between files: a restore submitted while the backlog
// flushes preempts at every file boundary.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "store/redundant_backend.hpp"
#include "store/tiered_backend.hpp"
#include "svc/io_scheduler.hpp"

namespace drms::svc {

/// Handle for one submitted drain. wait() blocks until every queued file
/// copy finished and returns the aggregate report (same shape as the
/// synchronous TieredBackend::drain()).
class DrainTicket {
 public:
  DrainTicket() = default;
  [[nodiscard]] store::TieredBackend::DrainReport wait() const;
  /// Files queued by this drain (0 = backlog was already clean).
  [[nodiscard]] std::size_t files_submitted() const {
    return completions_.size();
  }

 private:
  friend DrainTicket submit_drain(IoScheduler&, const JobToken&,
                                  store::TieredBackend&,
                                  const sim::LoadContext&);
  struct State {
    std::mutex mutex;
    store::TieredBackend::DrainReport report;
  };
  std::shared_ptr<State> state_;
  std::vector<Completion> completions_;
};

/// Snapshot the backend's dirty work list and queue one DRAIN-class item
/// per file under `job`. Returns immediately; the copies run on the
/// scheduler's shard workers. Items race benignly with writers, GC and
/// other drains — a file cleaned in the meantime drops out of the report.
DrainTicket submit_drain(IoScheduler& scheduler, const JobToken& job,
                         store::TieredBackend& backend,
                         const sim::LoadContext& load = {});

/// Aggregate outcome of one submitted redundancy-encode pass.
struct EncodeReport {
  int files_encoded = 0;
  std::uint64_t bytes_encoded = 0;
  /// Modeled background memory-write time of the fragment copies (never
  /// charged to the application's clock, like drain time).
  double simulated_seconds = 0.0;
};

/// Handle for one submitted encode pass (see submit_encode).
class EncodeTicket {
 public:
  EncodeTicket() = default;
  [[nodiscard]] EncodeReport wait() const;
  [[nodiscard]] std::size_t files_submitted() const {
    return completions_.size();
  }

 private:
  friend EncodeTicket submit_encode(IoScheduler&, const JobToken&,
                                    store::RedundantBackend&,
                                    const sim::LoadContext&);
  struct State {
    std::mutex mutex;
    EncodeReport report;
  };
  std::shared_ptr<State> state_;
  std::vector<Completion> completions_;
};

/// Snapshot the fast tier's staged-but-unencoded work list and queue one
/// DRAIN-class item per file (fragment encoding is background protection
/// traffic: it yields to restores and foreground checkpoints). Items race
/// benignly with writers and GC — a file encoded, re-created, or removed
/// in the meantime drops out of the report.
EncodeTicket submit_encode(IoScheduler& scheduler, const JobToken& job,
                           store::RedundantBackend& backend,
                           const sim::LoadContext& load = {});

}  // namespace drms::svc
