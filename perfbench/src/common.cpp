#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include <sys/resource.h>
#include <unistd.h>

#include "obs/trace_export.hpp"
#include "rt/collectives.hpp"

namespace perfbench {

namespace {

/// Linear-interpolation quantile of sorted values.
double quantile_sorted(const std::vector<double>& v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

}  // namespace

Summary summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) {
    return s;
  }
  std::sort(values.begin(), values.end());
  s.median = quantile_sorted(values, 0.5);
  s.q1 = quantile_sorted(values, 0.25);
  s.q3 = quantile_sorted(values, 0.75);
  if (values.size() >= 11) {
    s.tail = values[values.size() - 11];
    s.tail_pct = 100.0 * static_cast<double>(values.size() - 10) /
                 static_cast<double>(values.size());
  } else {
    s.tail = values.back();
    s.tail_pct = 100.0;
  }
  return s;
}

double median_of(const std::vector<double>& values) {
  return summarize(values).median;
}

void MetricTable::median(const std::string& name, const std::string& unit,
                         const std::vector<double>& samples) {
  Metric m;
  m.summary = summarize(samples);
  m.value = m.summary.median;
  m.unit = unit;
  m.stat = "median";
  items_.emplace_back(name, m);
}

void MetricTable::percentile(const std::string& name, const std::string& unit,
                             const std::vector<double>& samples, int pct) {
  Metric m;
  m.summary = summarize(samples);
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  m.value = quantile_sorted(sorted, pct / 100.0);
  m.unit = unit;
  m.stat = "p" + std::to_string(pct);
  items_.emplace_back(name, m);
}

void MetricTable::value(const std::string& name, const std::string& unit,
                        double v, const std::string& stat) {
  Metric m;
  m.value = v;
  m.unit = unit;
  m.stat = stat;
  m.summary.n = 1;
  m.summary.median = m.summary.q1 = m.summary.q3 = m.summary.tail = v;
  items_.emplace_back(name, m);
}

void SpanLog::add(const std::string& name, int rank, Clock::time_point start,
                  Clock::time_point end) {
  if (!enabled_) {
    return;
  }
  Span s;
  s.name = name;
  s.rank = rank;
  s.start_us = std::chrono::duration<double, std::micro>(start - base_).count();
  s.dur_us = std::chrono::duration<double, std::micro>(end - start).count();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(s));
}

std::size_t SpanLog::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

void SpanLog::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  const std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",") << "\n{\"name\":" << json_string(s.name)
        << ",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.rank
        << ",\"ts\":" << json_number(s.start_us)
        << ",\"dur\":" << json_number(s.dur_us) << "}";
  }
  out << "\n]}\n";
}

void export_recorder(const Config& cfg, const drms::obs::Recorder& recorder) {
  if (cfg.trace_dir.empty()) {
    return;
  }
  // One file per workload (the latest traced run): these traces run to
  // tens of MB, so they are not kept per seed.
  std::ofstream out(cfg.trace_dir + "/" + cfg.workload + ".obs.json");
  drms::obs::write_chrome_trace(out, recorder);
  out << '\n';
}

bool Warmup::add(double op_ms, Clock::time_point now) {
  if (done_) {
    return true;
  }
  times_.push_back(op_ms);
  const double elapsed = s_between(start_, now);
  bool settled = false;
  const std::size_t n = times_.size();
  if (elapsed >= kMinSeconds && n >= 2 * window_) {
    const auto w = static_cast<long>(window_);
    const std::vector<double> last(times_.end() - w, times_.end());
    const std::vector<double> prev(times_.end() - 2 * w, times_.end() - w);
    const double a = median_of(last);
    const double b = median_of(prev);
    settled = b > 0.0 && std::abs(a - b) <= 0.1 * b;
  }
  if (settled || elapsed >= kMaxSeconds) {
    done_ = true;
    seconds_ = elapsed;
  }
  return done_;
}

Clock::time_point SetupRuns::begin() {
  (void)meter_.next();
  return warming_ && warmup_.ops() == 0 ? cfg_.process_start : Clock::now();
}

void SetupRuns::record(double seconds, PhaseSamples& out) {
  if (warming_) {
    if (warmup_.ops() == 0) {
      out.cold_setup_s = seconds;
    }
    if (warmup_.add(seconds * 1e3, Clock::now())) {
      warming_ = false;
      out.setup_warmup_s = warmup_.seconds();
      out.setup_warmup_ops = warmup_.ops();
    }
    return;
  }
  if (timed()) {
    return;  // the set-up that carried on into the loop
  }
  const double share = meter_.next();
  timed_.emplace_back(share, seconds);
  quiet_ += share <= QuietWindows::kMaxInterference ? 1 : 0;
  if (timed()) {
    std::sort(timed_.begin(), timed_.end());
    for (std::size_t i = 0; i < count_; ++i) {
      out.setup_s.push_back(timed_[i].second);
    }
    out.setups_timed = timed_.size();
    out.setups_noisy_kept = count_ - std::min(quiet_, count_);
  }
}

void move_samples(PhaseSamples& from, PhaseSamples& into) {
  const auto move = [](std::vector<double>& a, std::vector<double>& b) {
    b.insert(b.end(), a.begin(), a.end());
    a.clear();
  };
  move(from.ckpt_ms, into.ckpt_ms);
  move(from.restore_ms, into.restore_ms);
  move(from.stored_ratio, into.stored_ratio);
  move(from.job_s, into.job_s);
  for (auto& [name, series] : from.layer) {
    move(series, into.layer[name]);
  }
}

double HostMeter::next() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  // user nice system idle iowait irq softirq steal
  double f[8] = {};
  in >> cpu;
  for (double& v : f) {
    in >> v;
  }
  if (!in || cpu != "cpu") {
    return 0.0;
  }
  const double tick = 1.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
  double total = 0.0;
  for (const double v : f) {
    total += v * tick;
  }
  const double busy = (f[0] + f[1] + f[2] + f[5] + f[6]) * tick;
  const double steal = f[7] * tick;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  const double own = seconds(ru.ru_utime) + seconds(ru.ru_stime);
  const double d_total = total - total_s_;
  const double foreign = std::max(0.0, (busy - busy_s_) - (own - own_s_));
  const double share =
      d_total > 0.0 ? ((steal - steal_s_) + foreign) / d_total : 0.0;
  total_s_ = total;
  busy_s_ = busy;
  steal_s_ = steal;
  own_s_ = own;
  return share;
}

void QuietWindows::start(Clock::time_point now) {
  started_ = true;
  start_ = window_start_ = now;
  (void)meter_.next();
}

void QuietWindows::close(Clock::time_point now, PhaseSamples& out) {
  const double share = meter_.next();
  out.window_interference.push_back(share);
  if (share <= kMaxInterference) {
    quiet_s_ += s_between(window_start_, now);
    move_samples(pending_, out);
  } else {
    ++out.windows_dropped;
    Noisy noisy{share, s_between(window_start_, now), {}};
    move_samples(pending_, noisy.samples);
    noisy_.push_back(std::move(noisy));
  }
  window_start_ = now;
}

void QuietWindows::poll(Clock::time_point now, PhaseSamples& out) {
  if (started_ && s_between(window_start_, now) >= kWindowSeconds) {
    close(now, out);
  }
}

bool QuietWindows::done(Clock::time_point now) const {
  return started_ && (quiet_s_ >= seconds_ ||
                      s_between(start_, now) >= kMaxStretch * seconds_);
}

void QuietWindows::finish(Clock::time_point now, PhaseSamples& out) {
  if (!started_) {
    return;
  }
  close(now, out);
  std::sort(noisy_.begin(), noisy_.end(),
            [](const Noisy& a, const Noisy& b) { return a.share < b.share; });
  double kept_s = quiet_s_;
  for (Noisy& noisy : noisy_) {
    if (kept_s >= min_kept_s_) {
      break;
    }
    move_samples(noisy.samples, out);
    kept_s += noisy.seconds;
    --out.windows_dropped;
    ++out.noisy_windows_kept;
  }
  out.quiet_s = quiet_s_;
  out.measured_s = s_between(start_, now);
}

drms::sim::Placement placement_for(int tasks) {
  return drms::sim::Placement::one_per_node(drms::sim::Machine::paper_sp16(),
                                            tasks);
}

double seed_offset(std::uint64_t seed, int array_index) {
  const std::uint64_t x =
      mix64(seed ^ (static_cast<std::uint64_t>(array_index + 1) << 32));
  return 0.01 * static_cast<double>(x >> 11) * 0x1p-53;
}

void fill_solver_field(drms::core::LocalArray& local, std::uint64_t seed,
                       int array_index) {
  const std::span<double> v = local.as_f64();
  const double offset = seed_offset(seed, array_index);
  std::size_t e = 0;
  for_each_point(local.mapped(), [&](drms::core::Index c, drms::core::Index x,
                                     drms::core::Index y, drms::core::Index z) {
    v[e++] = solver_value(array_index, c, x, y, z, offset);
  });
}

std::uint64_t state_digest(drms::rt::TaskContext& ctx,
                           const std::vector<drms::core::DistArray*>& arrays) {
  using drms::core::Index;
  std::uint64_t acc = 0;
  std::vector<std::byte> buf;
  for (std::size_t a = 0; a < arrays.size(); ++a) {
    const drms::core::DistArray& array = *arrays[a];
    const drms::core::Slice& box = array.global_box();
    const drms::core::Slice& mine =
        array.distribution().assigned(ctx.rank());
    if (mine.empty()) {
      continue;
    }
    const int rank = box.rank();
    std::vector<Index> gstride(static_cast<std::size_t>(rank), 1);
    for (int k = 1; k < rank; ++k) {
      gstride[static_cast<std::size_t>(k)] =
          gstride[static_cast<std::size_t>(k - 1)] * box.range(k - 1).size();
    }
    // Per-axis global offsets of the assigned coordinates.
    std::vector<std::vector<Index>> offs(static_cast<std::size_t>(rank));
    for (int k = 0; k < rank; ++k) {
      const auto& r = mine.range(k);
      for (Index i = 0; i < r.size(); ++i) {
        offs[static_cast<std::size_t>(k)].push_back(
            (r.at(i) - box.range(k).first()) *
            gstride[static_cast<std::size_t>(k)]);
      }
    }
    buf.resize(static_cast<std::size_t>(mine.element_count()) *
               array.elem_size());
    array.local(ctx.rank()).extract(mine, buf);
    const std::uint64_t salt = mix64(0x5eed0000ull + a);
    std::vector<Index> pos(static_cast<std::size_t>(rank), 0);
    const std::size_t n = static_cast<std::size_t>(mine.element_count());
    const std::size_t inner = offs[0].size();
    std::size_t e = 0;
    while (e < n) {
      Index outer_off = 0;
      for (int k = 1; k < rank; ++k) {
        outer_off += offs[static_cast<std::size_t>(k)]
                         [static_cast<std::size_t>(pos[static_cast<std::size_t>(k)])];
      }
      for (std::size_t i = 0; i < inner; ++i, ++e) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, buf.data() + e * sizeof(bits), sizeof(bits));
        const auto lin =
            static_cast<std::uint64_t>(outer_off + offs[0][i]);
        acc += mix64(bits ^ mix64(lin ^ salt));
      }
      for (int k = 1; k < rank; ++k) {
        auto& p = pos[static_cast<std::size_t>(k)];
        if (++p < static_cast<Index>(offs[static_cast<std::size_t>(k)].size())) {
          break;
        }
        p = 0;
      }
    }
  }
  return drms::rt::all_reduce_sum_u64(ctx, acc);
}

void FailureLog::fail(const std::string& what) {
  failed_.fetch_add(1);
  const std::lock_guard<std::mutex> lock(mutex_);
  if (messages_.size() < 8) {
    messages_.push_back(what);
  }
}

std::vector<std::string> FailureLog::messages() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return messages_;
}

drms::apps::AppSpec sp_spec() { return drms::apps::AppSpec::sp(); }

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
