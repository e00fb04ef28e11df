// Shared pieces of the host-time benchmark: run configuration, sample
// series and their summaries, the bench-owned span log, warm-up control,
// the seeded solver field and the distribution-independent state digest
// every restore is checked against.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "apps/app_spec.hpp"
#include "core/dist_array.hpp"
#include "obs/recorder.hpp"
#include "rt/task_context.hpp"
#include "sim/machine.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
[[nodiscard]] inline double s_between(Clock::time_point a,
                                      Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Command-line configuration of one benchmark process.
struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its span files (empty: not written).
  std::string trace_dir;
  /// Process entry time; the first set-up sample is measured from here.
  Clock::time_point process_start;
};

/// Median, quartiles and tail of one series. The tail is the highest
/// percentile with at least ten samples beyond it: sorted[n - 11], at
/// percentile 100 * (n - 10) / n. With fewer than 11 samples the maximum
/// is reported at percentile 100.
struct Summary {
  std::size_t n = 0;
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  double tail = 0.0;
  double tail_pct = 100.0;
};
[[nodiscard]] Summary summarize(std::vector<double> values);
[[nodiscard]] double median_of(const std::vector<double>& values);

/// One reported metric: its value, unit and (for provenance) the summary
/// of the samples behind it.
struct Metric {
  double value = 0.0;
  std::string unit;
  Summary summary;
  /// Which statistic `value` is: "median", "p25", "mean", "ratio" or
  /// "absent" (a layer the workload does not exercise).
  std::string stat;
};

/// Ordered metric table of one result line.
class MetricTable {
 public:
  /// Median of `samples` (0 when empty).
  void median(const std::string& name, const std::string& unit,
              const std::vector<double>& samples);
  /// The `pct`-th percentile of `samples` (0 when empty).
  void percentile(const std::string& name, const std::string& unit,
                  const std::vector<double>& samples, int pct);
  /// A single measured value (a mean, a ratio or a count).
  void value(const std::string& name, const std::string& unit, double v,
             const std::string& stat);

  [[nodiscard]] const std::vector<std::pair<std::string, Metric>>& items()
      const {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, Metric>> items_;
};

/// Bench-owned trace spans: kept in memory, written once at the end as a
/// Chrome trace. Thread-safe.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), base_(Clock::now()) {}
  void add(const std::string& name, int rank, Clock::time_point start,
           Clock::time_point end);
  void write_chrome_trace(const std::string& path) const;
  [[nodiscard]] std::size_t size() const;

 private:
  struct Span {
    std::string name;
    int rank = 0;
    double start_us = 0.0;
    double dur_us = 0.0;
  };
  bool enabled_;
  Clock::time_point base_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Write the program's own obs::Recorder spans, unchanged, as a Chrome
/// trace next to the bench spans, as `<trace_dir>/<workload>.obs.json`
/// (no-op without a trace directory).
void export_recorder(const Config& cfg, const drms::obs::Recorder& recorder);

/// Times one call into a layer: adds a span when the log is enabled and
/// returns the elapsed milliseconds.
template <typename F>
double timed_call(SpanLog& log, const std::string& name, int rank, F&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  const Clock::time_point t1 = Clock::now();
  log.add(name, rank, t0, t1);
  return ms_between(t0, t1);
}

/// Warm-up control: operations run until per-op times settle — at least
/// kMinSeconds and two windows of ops, then until the median of the last
/// `window` op times is within 10% of the median of the window before, or
/// kMaxSeconds. A host that sat idle runs its first ~1.5 s about 2x slow.
class Warmup {
 public:
  static constexpr double kMinSeconds = 1.5;
  static constexpr double kMaxSeconds = 5.0;

  explicit Warmup(Clock::time_point start, std::size_t window = 5)
      : start_(start), window_(window) {}
  /// Record one op time; returns true once warm-up is over.
  bool add(double op_ms, Clock::time_point now);
  [[nodiscard]] double seconds() const { return seconds_; }
  [[nodiscard]] std::size_t ops() const { return times_.size(); }
  [[nodiscard]] bool done() const { return done_; }

 private:
  Clock::time_point start_;
  std::size_t window_;
  std::vector<double> times_;
  bool done_ = false;
  double seconds_ = 0.0;
};

/// Task placement used by every workload: one task per node of the
/// paper's SP machine model (placement only shapes simulated time).
[[nodiscard]] drms::sim::Placement placement_for(int tasks);

/// Call f(c, x, y, z) for every point of the 4-D slice `s` in column-major
/// order (component fastest), the order of LocalArray storage and of
/// insert/extract buffers.
template <typename F>
void for_each_point(const drms::core::Slice& s, F&& f) {
  const auto& rc = s.range(0);
  const auto& rx = s.range(1);
  const auto& ry = s.range(2);
  const auto& rz = s.range(3);
  for (drms::core::Index k = 0; k < rz.size(); ++k) {
    for (drms::core::Index j = 0; j < ry.size(); ++j) {
      for (drms::core::Index i = 0; i < rx.size(); ++i) {
        for (drms::core::Index c = 0; c < rc.size(); ++c) {
          f(rc.at(c), rx.at(i), ry.at(j), rz.at(k));
        }
      }
    }
  }
}

/// The SP solver's initial field (initial_value in apps/solver.cpp) at
/// point (c, x, y, z) of array `array_index`, plus `offset`: smooth values
/// whose terms reach down to 1e-10, so every mantissa byte varies as in the
/// solver's own state.
[[nodiscard]] inline double solver_value(int array_index, drms::core::Index c,
                                         drms::core::Index x,
                                         drms::core::Index y,
                                         drms::core::Index z, double offset) {
  return offset + 0.1 * static_cast<double>(array_index + 1) +
         1e-3 * static_cast<double>(c + 1) + 1e-4 * static_cast<double>(x) +
         1e-7 * static_cast<double>(y) + 1e-10 * static_cast<double>(z);
}

/// Seeded offset of array `array_index`'s field, in [0, 0.01).
[[nodiscard]] double seed_offset(std::uint64_t seed, int array_index);

/// Fill every local element of `local` (shadow included) with the solver's
/// field at its global position, shifted by the seeded offset.
void fill_solver_field(drms::core::LocalArray& local, std::uint64_t seed,
                       int array_index);

/// COLLECTIVE: distribution-independent digest of the assigned elements
/// of `arrays` — an order-free sum over (array, global index, value bits).
/// Equal for the same contents at any task count and distribution.
[[nodiscard]] std::uint64_t state_digest(
    drms::rt::TaskContext& ctx,
    const std::vector<drms::core::DistArray*>& arrays);

/// Failure bookkeeping shared by all ranks of a workload.
class FailureLog {
 public:
  void attempt(std::uint64_t n = 1) { attempted_.fetch_add(n); }
  void fail(const std::string& what);
  [[nodiscard]] std::uint64_t attempted() const { return attempted_.load(); }
  [[nodiscard]] std::uint64_t failed() const { return failed_.load(); }
  [[nodiscard]] std::vector<std::string> messages() const;

 private:
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  mutable std::mutex mutex_;
  std::vector<std::string> messages_;
};

/// Samples of one measured phase, shared by the three workloads. Series
/// not used by a workload stay empty.
struct PhaseSamples {
  std::vector<double> setup_s;
  std::vector<double> ckpt_ms;
  std::vector<double> restore_ms;
  std::vector<double> stored_ratio;
  std::vector<double> job_s;
  /// Traced phase only: per-layer series keyed by metric name.
  std::map<std::string, std::vector<double>> layer;
  double warmup_s = 0.0;
  std::size_t warmup_ops = 0;
  double measured_s = 0.0;
  /// Set-up warm-up: the first set-up, timed from process start, and the
  /// length and count of the set-ups run before the timed ones.
  double cold_setup_s = 0.0;
  double setup_warmup_s = 0.0;
  std::size_t setup_warmup_ops = 0;
  /// Set-ups timed after the warm-up, and how many of those in setup_s
  /// were not quiet.
  std::size_t setups_timed = 0;
  std::size_t setups_noisy_kept = 0;
  /// Measurement windows (see QuietWindows): the share of the host's CPU
  /// other tenants took in each, and how many were dropped.
  std::vector<double> window_interference;
  std::size_t windows_dropped = 0;
  double quiet_s = 0.0;
  /// Noisy windows kept because too few were quiet.
  std::size_t noisy_windows_kept = 0;
};

/// Append `from`'s sample series (not its set-up or window bookkeeping)
/// to `into`, and clear them in `from`.
void move_samples(PhaseSamples& from, PhaseSamples& into);

/// Share of the host's CPU time other tenants took: hypervisor steal plus
/// the CPU time of processes other than this one, from the aggregate line
/// of /proc/stat and getrusage. Reads 0 where /proc/stat is missing.
class HostMeter {
 public:
  HostMeter() { (void)next(); }
  /// Interference share since the previous call.
  double next();

 private:
  double total_s_ = 0.0;
  double busy_s_ = 0.0;
  double steal_s_ = 0.0;
  double own_s_ = 0.0;
};

/// The measured stretch of a phase, in windows of at least kWindowSeconds
/// that close between ops. A window's samples are kept only when other
/// tenants took at most kMaxInterference of the host's CPU during it: on a
/// shared host they take it in bursts of tens of seconds, during which
/// every op runs up to ~3x slow, and op times rise with the share even
/// below 10% (about 20% slower at 9% than at 2% on full_cycle). Measurement ends after `seconds` of quiet
/// windows, or after kMaxStretch x `seconds` of wall time. A run with less
/// than `min_kept_share` x `seconds` (default kMinQuietShare) of quiet
/// windows also keeps the quietest of the others, until the kept ones add
/// up to that.
class QuietWindows {
 public:
  static constexpr double kWindowSeconds = 0.25;
  static constexpr double kMaxInterference = 0.05;
  static constexpr double kMaxStretch = 1.5;
  static constexpr double kMinQuietShare = 0.2;

  explicit QuietWindows(double seconds,
                        double min_kept_share = kMinQuietShare)
      : seconds_(seconds), min_kept_s_(min_kept_share * seconds) {}
  /// Start measuring: open the first window.
  void start(Clock::time_point now);
  /// Samples of the open window.
  [[nodiscard]] PhaseSamples& pending() { return pending_; }
  /// Between ops: close the open window once it is long enough, moving
  /// its samples into `out` when it was quiet.
  void poll(Clock::time_point now, PhaseSamples& out);
  [[nodiscard]] bool done(Clock::time_point now) const;
  /// Close the last window and record the measured length in `out`.
  void finish(Clock::time_point now, PhaseSamples& out);

 private:
  void close(Clock::time_point now, PhaseSamples& out);

  double seconds_;
  double min_kept_s_;
  bool started_ = false;
  Clock::time_point start_;
  Clock::time_point window_start_;
  double quiet_s_ = 0.0;
  struct Noisy {
    double share = 0.0;
    double seconds = 0.0;
    PhaseSamples samples;
  };
  HostMeter meter_;
  PhaseSamples pending_;
  std::vector<Noisy> noisy_;
};

/// The set-up repetitions of one phase. With warm-up, the set-up repeats
/// until its times settle (the first one timed from process start and kept
/// as the cold sample). Then set-ups are timed until `count` of them ran
/// while the host was quiet (as in QuietWindows) or 2 x `count` ran; the
/// `count` quietest go into setup_s. One more set-up then carries on into
/// the phase's loop.
class SetupRuns {
 public:
  SetupRuns(const Config& cfg, bool warm_up, int count, std::size_t window)
      : cfg_(cfg), warming_(warm_up), count_(static_cast<std::size_t>(count)),
        warmup_(Clock::now(), window) {}
  /// Whether the next set-up is the one that carries on into the loop.
  [[nodiscard]] bool next_is_last() const { return !warming_ && timed(); }
  /// Start the next set-up; returns its start time (process start for the
  /// first warm-up one).
  Clock::time_point begin();
  /// Record the set-up begun last, which took `seconds`.
  void record(double seconds, PhaseSamples& out);

 private:
  [[nodiscard]] bool timed() const {
    return quiet_ >= count_ || timed_.size() >= 2 * count_;
  }

  const Config& cfg_;
  bool warming_;
  std::size_t count_;
  Warmup warmup_;
  HostMeter meter_;
  std::size_t quiet_ = 0;
  /// (interference share, seconds) of each timed set-up.
  std::vector<std::pair<double, double>> timed_;
};

/// The SP class-A state every workload checkpoints.
[[nodiscard]] drms::apps::AppSpec sp_spec();
inline constexpr drms::core::Index kGridN = 64;

/// Render a string as a JSON string literal.
[[nodiscard]] std::string json_string(const std::string& s);
/// Render a double with all its digits.
[[nodiscard]] std::string json_number(double v);

}  // namespace perfbench
