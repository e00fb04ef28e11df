// The benchmark's three closed-loop workloads and the per-layer probes.
//
// A "phase" is one measured stretch of a workload: set-up (optionally
// warmed up until its times settle, then repeated `setups` times, the last
// one kept), warm-up until per-op times settle,
// then `seconds` of measurement. The untraced phase feeds the end-to-end
// metrics; the traced phase (timing decorator on the storage, bench spans,
// obs::Recorder attached) feeds the per-layer metrics.
#pragma once

#include <cstdint>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct PhaseRequest {
  const Config* config = nullptr;
  bool traced = false;
  double seconds = 10.0;
  int setups = 1;
  /// Repeat the set-up until its times settle before the timed ones (see
  /// SetupRuns).
  bool warm_up_setup = false;
  /// Run inside another workload's traced phase: no layer probes and no
  /// recorder export of its own.
  bool embedded = false;
  FailureLog* failures = nullptr;
  SpanLog* spans = nullptr;
};

/// Bulk data plane: SP class-A state, 4 tasks, memory backend, full
/// generations, periodic reconfigured restart at 3 tasks.
PhaseSamples full_cycle_phase(const PhaseRequest& req);

/// Per-checkpoint fixed cost: the same state with delta generations, 3
/// tasks on a memory-over-PIOFS tiered backend, thin slab mutations, an
/// overlapped svc drain, periodic chain-tip restore at 4 tasks.
PhaseSamples delta_chain_phase(const PhaseRequest& req);

/// Recovery control path: supervised SP solver trials alternating a node
/// loss (partial scope, 4 -> 3) and a pool kill (full scope, 4 -> 4). Not
/// in the timed set (see METRICS.md); full_cycle's traced phase runs it
/// embedded for the recovery and apps layers.
PhaseSamples recover_phase(const PhaseRequest& req);

/// Layer microprobes at a workload's shape: TaskGroup launch, barrier,
/// gather/scatter, one exchange round, streaming one array, CRC and the
/// block codec over `codec_blocks` (block indices of array "u"'s stream;
/// empty: every block). Appends to `out`.
void run_layer_probes(int tasks, std::uint64_t seed,
                      const std::vector<std::uint64_t>& codec_blocks,
                      SpanLog& spans,
                      std::map<std::string, std::vector<double>>& out);

}  // namespace perfbench
