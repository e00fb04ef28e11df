// Content digest of a distributed array: the CRC-32C of its canonical
// column-major element stream — the same byte stream a full DRMS
// generation writes, so the digest equals the `stream_crc` that
// generation records. It depends only on the array's contents, never on
// its distribution: digests taken at different task counts (e.g. before
// a checkpoint and after a reconfigured restart) compare bitwise. The
// solvers' `field_crc` and the benches' restore checks use it.
//
// Skipping unchanged data at checkpoint time is the job of delta
// generations (DeltaOptions), which track dirty blocks per array.
#pragma once

#include <cstdint>

#include "core/dist_array.hpp"
#include "rt/task_context.hpp"

namespace drms::core {

/// COLLECTIVE: identical result on every task. Rank 0 receives the
/// stream through serial streaming and CRCs it in memory — no storage
/// backend is touched.
[[nodiscard]] std::uint32_t array_fingerprint(rt::TaskContext& ctx,
                                              const DistArray& array);

}  // namespace drms::core
