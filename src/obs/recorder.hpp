// Deterministic observability layer (drms::obs).
//
// A Recorder collects nestable trace spans and a metrics registry
// (counters, byte totals, latency histograms) from the checkpoint
// engines, the streamer, the exchange layer, retry_io and the storage
// backends. The design contract:
//
//   * OFF by default, zero overhead. Every instrumented call site holds a
//     `Recorder*` that defaults to null and guards with one pointer test;
//     nothing is allocated, timed or formatted when no recorder is
//     attached, so Table 3/5 outputs are bit-identical with the layer
//     compiled in.
//   * Recording NEVER perturbs the simulation: spans snapshot the
//     simulated clock (ctx.sim_time()) but charge nothing and draw no
//     RNG values, so a traced run produces byte-identical checkpoints
//     and identical simulated timings to an untraced one.
//   * Determinism. Every event carries a global sequence number `seq`
//     (a total order consistent with happens-before: the counter is
//     bumped under the recorder mutex at record time). The subsequence
//     recorded by one rank's main task thread is in deterministic program
//     order, and cross-rank order is deterministic wherever the program
//     synchronizes (barriers, joins). Tests therefore assert ordering
//     invariants — manifest-last, decommit-first, pipeline overlap —
//     against seq, never against the (also recorded) host wall clock.
//
// Spans carry both clocks: simulated seconds (deterministic; -1 when the
// recording site has no task context, e.g. inside a storage backend) and
// host wall nanoseconds since recorder construction (for humans; exported
// as the Chrome trace_event timeline by trace_export).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "support/retry.hpp"

namespace drms::obs {

/// One span/event attribute: a key with either a numeric or a string
/// value (kept unformatted until export).
struct Attr {
  std::string key;
  std::int64_t value = 0;
  std::string text;
  bool numeric = true;

  [[nodiscard]] static Attr num(std::string key, std::int64_t value) {
    Attr a;
    a.key = std::move(key);
    a.value = value;
    return a;
  }
  [[nodiscard]] static Attr str(std::string key, std::string text) {
    Attr a;
    a.key = std::move(key);
    a.text = std::move(text);
    a.numeric = false;
    return a;
  }
};

/// Sentinel span id used by call sites whose recorder is null.
inline constexpr std::size_t kNoSpan = static_cast<std::size_t>(-1);

struct SpanRecord {
  std::string category;  // "ckpt", "spmd", "stream", "exchange", "store", ...
  std::string name;      // operation within the category
  /// Task rank of the recording site; -1 when no task context (store ops).
  int rank = -1;
  /// Global sequence numbers at begin/end (see determinism contract).
  std::uint64_t begin_seq = 0;
  std::uint64_t end_seq = 0;
  /// Simulated-clock seconds at begin/end; -1 when unknown.
  double begin_sim = -1.0;
  double end_sim = -1.0;
  /// Host wall clock, nanoseconds since recorder construction.
  std::uint64_t begin_wall_ns = 0;
  std::uint64_t end_wall_ns = 0;
  std::vector<Attr> attrs;
  /// False while the span is still open (end_span not yet called).
  bool closed = false;

  [[nodiscard]] const Attr* attr(std::string_view key) const;
  /// Numeric attribute value, or `fallback` when absent/non-numeric.
  [[nodiscard]] std::int64_t attr_num(std::string_view key,
                                      std::int64_t fallback = -1) const;
};

/// Log2-bucketed latency histogram (nanoseconds). Bucket i counts values
/// v with 2^i <= v < 2^(i+1) (bucket 0 also takes v == 0).
struct Histogram {
  static constexpr int kBuckets = 48;
  std::uint64_t buckets[kBuckets] = {};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;

  void add(std::uint64_t v);
};

class Recorder final : public support::RetryObserver {
 public:
  Recorder();

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  // ---- trace spans ----------------------------------------------------------
  /// Open a span; returns its id (a stable index into spans()).
  std::size_t begin_span(std::string_view category, std::string_view name,
                         int rank, double sim_time,
                         std::vector<Attr> attrs = {});
  /// Close a span. `sim_time` < 0 means "unknown at close".
  void end_span(std::size_t id, double sim_time);
  /// Zero-length span (an instant event).
  void instant(std::string_view category, std::string_view name, int rank,
               double sim_time, std::vector<Attr> attrs = {});

  // ---- metrics registry -----------------------------------------------------
  void count(std::string_view key, std::uint64_t delta = 1);
  /// Record a latency sample (nanoseconds) into the named histogram.
  void record_ns(std::string_view key, std::uint64_t ns);
  /// High-watermark gauge: keeps the maximum value ever reported (e.g.
  /// svc.queue_depth.peak).
  void gauge_max(std::string_view key, std::uint64_t value);

  // ---- support::RetryObserver ----------------------------------------------
  /// Counts "retry.transient" and "retry.transient.<what>".
  void on_transient_retry(const char* what, int attempt) override;

  // ---- snapshots (copies; safe while recording continues) -------------------
  [[nodiscard]] std::vector<SpanRecord> spans() const;
  /// Spans with id >= `from` (a cursor for polling consumers: pass
  /// the previous cursor plus the returned size to see each span once).
  /// Spans still open at the call are returned with closed == false and
  /// WILL NOT be re-delivered once closed — consumers polling at points
  /// where their spans of interest are guaranteed closed (e.g. the
  /// adapt controller at SOP boundaries) are unaffected.
  [[nodiscard]] std::vector<SpanRecord> spans_since(std::size_t from) const;
  [[nodiscard]] std::size_t span_count() const;
  [[nodiscard]] std::map<std::string, std::uint64_t> counters() const;
  [[nodiscard]] std::uint64_t counter(std::string_view key) const;
  [[nodiscard]] std::map<std::string, Histogram> histograms() const;
  [[nodiscard]] std::map<std::string, std::uint64_t> gauges() const;
  [[nodiscard]] std::uint64_t gauge(std::string_view key) const;

  /// Wall nanoseconds since construction (the spans' wall clock base).
  [[nodiscard]] std::uint64_t wall_now_ns() const;

 private:
  mutable std::mutex mutex_;
  std::uint64_t seq_ = 0;
  std::uint64_t wall_base_ns_ = 0;
  std::vector<SpanRecord> spans_;
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, Histogram, std::less<>> histograms_;
  std::map<std::string, std::uint64_t, std::less<>> gauges_;
};

/// RAII helper for the null-recorder fast path: constructing with a null
/// recorder is a no-op, and an un-ended span is closed (with unknown sim
/// time) on destruction so exception paths leave no open spans.
class ScopedSpan {
 public:
  ScopedSpan() = default;
  ScopedSpan(Recorder* recorder, std::string_view category,
             std::string_view name, int rank, double sim_time,
             std::vector<Attr> attrs = {})
      : recorder_(recorder) {
    if (recorder_ != nullptr) {
      id_ = recorder_->begin_span(category, name, rank, sim_time,
                                  std::move(attrs));
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ScopedSpan(ScopedSpan&& other) noexcept { *this = std::move(other); }
  ScopedSpan& operator=(ScopedSpan&& other) noexcept {
    if (this != &other) {
      end(-1.0);
      recorder_ = other.recorder_;
      id_ = other.id_;
      other.recorder_ = nullptr;
      other.id_ = kNoSpan;
    }
    return *this;
  }
  ~ScopedSpan() { end(-1.0); }

  /// Close the span now (idempotent).
  void end(double sim_time) {
    if (recorder_ != nullptr && id_ != kNoSpan) {
      recorder_->end_span(id_, sim_time);
      id_ = kNoSpan;
    }
  }

 private:
  Recorder* recorder_ = nullptr;
  std::size_t id_ = kNoSpan;
};

}  // namespace drms::obs
