// Tests for the redundancy-encoded fast tier: fragment codec and naming,
// contiguous-split geometry, the RedundantBackend staged/encoded life
// cycle, a seeded sweep of lost-node subsets per scheme (scavenged
// content must be bit-identical to the failure-free run), the
// beyond-tolerance fallback through the tiered backend, the background
// encode service and offline fragment-set auditing.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "core/checkpoint_catalog.hpp"
#include "obs/instrumented_backend.hpp"
#include "obs/recorder.hpp"
#include "store/memory_backend.hpp"
#include "store/redundancy.hpp"
#include "store/redundant_backend.hpp"
#include "store/tiered_backend.hpp"
#include "support/crc32.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "svc/drain_service.hpp"
#include "svc/io_scheduler.hpp"

namespace {

using namespace drms;
using store::MemoryBackend;
using store::RedundancyKind;
using store::RedundancyScheme;
using store::RedundantBackend;
using store::TieredBackend;

constexpr RedundancyScheme kPartner{RedundancyKind::kPartner, 2};
constexpr RedundancyScheme kXor4{RedundancyKind::kXor, 4};

std::vector<std::byte> bytes_of(const std::string& s) {
  std::vector<std::byte> out(s.size());
  std::memcpy(out.data(), s.data(), s.size());
  return out;
}

std::string string_of(const std::vector<std::byte>& b) {
  std::string out(b.size(), '\0');
  std::memcpy(out.data(), b.data(), b.size());
  return out;
}

/// Seeded payload, deliberately non-multiple-of-group sizes included.
std::vector<std::byte> seeded_payload(std::uint64_t seed, std::size_t size) {
  support::Rng rng(seed);
  std::vector<std::byte> out(size);
  for (auto& b : out) {
    b = static_cast<std::byte>(rng.next_u64() & 0xff);
  }
  return out;
}

std::uint32_t stream_crc(const store::StorageBackend& storage,
                         const std::string& name) {
  const auto file = storage.open(name);
  const std::vector<std::byte> content = file.read_at(0, file.size());
  return support::crc32c(content);
}

// ---- fragment naming and codec ----------------------------------------------

TEST(Redundancy, FragmentNameRoundTrip) {
  EXPECT_EQ(store::fragment_name("ckpt.g3.segment", 2), "ckpt.g3.segment#f2");
  const auto parsed = store::parse_fragment_name("ckpt.g3.segment#f2");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->base, "ckpt.g3.segment");
  EXPECT_EQ(parsed->index, 2);
  EXPECT_FALSE(store::parse_fragment_name("ckpt.g3.segment").has_value());
  EXPECT_FALSE(store::parse_fragment_name("ckpt#fx").has_value());
  EXPECT_FALSE(store::parse_fragment_name("#f1").has_value());
}

TEST(Redundancy, FragmentExtentsTileTheFileContiguously) {
  for (const std::uint64_t total : {0ull, 1ull, 7ull, 64ull, 1000ull}) {
    for (const int pieces : {1, 2, 3, 4, 7}) {
      std::uint64_t expect_offset = 0;
      for (int i = 0; i < pieces; ++i) {
        const auto ext = store::fragment_extent(total, pieces, i);
        EXPECT_EQ(ext.offset, expect_offset);
        expect_offset += ext.length;
      }
      EXPECT_EQ(expect_offset, total);
      // Parity index sits past the data and carries no extent.
      EXPECT_EQ(store::fragment_extent(total, pieces, pieces).length, 0u);
    }
  }
}

TEST(Redundancy, FragmentCodecRoundTripRejectsCorruption) {
  MemoryBackend storage;
  const std::vector<std::byte> payload = seeded_payload(7, 100);
  store::FragmentHeader header;
  header.kind = RedundancyKind::kXor;
  header.index = 1;
  header.fragment_count = 4;
  header.payload_bytes = payload.size();
  header.total_bytes = 300;
  header.payload_crc = support::crc32c(payload);
  store::write_fragment(storage, "f#f1", header, payload);

  const auto back = store::read_fragment_header(storage, "f#f1");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->index, 1u);
  EXPECT_EQ(back->fragment_count, 4u);
  EXPECT_EQ(back->total_bytes, 300u);
  const auto data = store::read_fragment_payload(storage, "f#f1", *back);
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ(support::crc32c(data->bytes()), header.payload_crc);

  // Flip a payload byte: the CRC check must reject it.
  auto file = storage.open("f#f1");
  std::vector<std::byte> byte =
      file.read_at(store::kFragmentHeaderBytes + 10, 1);
  byte[0] ^= std::byte{0xff};
  file.write_at(store::kFragmentHeaderBytes + 10, byte);
  EXPECT_FALSE(store::read_fragment_payload(storage, "f#f1", *back)
                   .has_value());

  EXPECT_FALSE(store::read_fragment_header(storage, "missing").has_value());
  storage.create("tiny").write_at(0, bytes_of("xy"));
  EXPECT_FALSE(store::read_fragment_header(storage, "tiny").has_value());
}

// ---- RedundantBackend life cycle --------------------------------------------

TEST(RedundantBackend, StagedFilesBehaveLikeAMemoryTier) {
  RedundantBackend storage(4, kPartner);
  auto f = storage.create("dir/a");
  f.write_at(0, bytes_of("hello"));
  f.append(bytes_of(" world"));
  EXPECT_EQ(f.size(), 11u);
  EXPECT_EQ(string_of(storage.open("dir/a").read_at(0, 11)), "hello world");
  EXPECT_TRUE(storage.exists("dir/a"));
  EXPECT_EQ(storage.file_size("dir/a"), 11u);
  EXPECT_EQ(storage.list("dir/").size(), 1u);
  EXPECT_GE(storage.staged_node_of("dir/a"), 0);
  EXPECT_TRUE(storage.fragment_nodes_of("dir/a").empty());
  storage.remove("dir/a");
  EXPECT_FALSE(storage.exists("dir/a"));
}

TEST(RedundantBackend, EncodeFragmentsTheStagedCopy) {
  for (const auto& scheme : {kPartner, kXor4}) {
    RedundantBackend storage(4, scheme);
    const std::vector<std::byte> payload = seeded_payload(11, 1003);
    storage.create("ckpt.seg").write_at(0, payload);
    const std::uint32_t before = stream_crc(storage, "ckpt.seg");

    ASSERT_EQ(storage.encode_work().size(), 1u);
    const auto encoded = storage.encode_file("ckpt.seg");
    ASSERT_TRUE(encoded.has_value()) << scheme.describe();
    EXPECT_EQ(*encoded, payload.size());
    EXPECT_TRUE(storage.encode_work().empty());
    EXPECT_FALSE(storage.encode_file("ckpt.seg").has_value());

    // Fully encoded: no staged copy, one fragment per group slot, and
    // the logical content is unchanged.
    EXPECT_EQ(storage.staged_node_of("ckpt.seg"), -1);
    EXPECT_EQ(storage.fragment_nodes_of("ckpt.seg").size(),
              static_cast<std::size_t>(scheme.fragment_count()));
    EXPECT_TRUE(storage.exists("ckpt.seg"));
    EXPECT_EQ(storage.file_size("ckpt.seg"), payload.size());
    EXPECT_EQ(stream_crc(storage, "ckpt.seg"), before);

    // Redundancy overhead: partner doubles, xor adds one parity stripe.
    if (scheme.kind == RedundancyKind::kPartner) {
      EXPECT_EQ(storage.encoded_bytes(900), 1800u);
    } else {
      EXPECT_EQ(storage.encoded_bytes(900), 1200u);
    }
  }
}

TEST(RedundantBackend, WritingAnEncodedFileMaterializesItBack) {
  RedundantBackend storage(4, kXor4);
  storage.create("a").write_at(0, bytes_of("checkpoint state"));
  ASSERT_TRUE(storage.encode_file("a").has_value());
  storage.open("a").write_at(0, bytes_of("CHECK"));
  EXPECT_GE(storage.staged_node_of("a"), 0);
  EXPECT_TRUE(storage.fragment_nodes_of("a").empty());
  EXPECT_EQ(string_of(storage.open("a").read_at(0, 16)),
            "CHECKpoint state");
}

TEST(RedundantBackend, ReadRepairRebuildsAMissingFragmentOnFirstTouch) {
  RedundantBackend storage(4, kXor4);
  const std::vector<std::byte> payload = seeded_payload(23, 4096);
  storage.create("a").write_at(0, payload);
  ASSERT_TRUE(storage.encode_file("a").has_value());
  const std::vector<int> before = storage.fragment_nodes_of("a");
  storage.fail_node(before[0]);

  // The encoded file is still readable; the read reconstructs the dead
  // node's fragment and re-homes it onto a live node.
  EXPECT_TRUE(storage.exists("a"));
  EXPECT_EQ(stream_crc(storage, "a"),
            support::crc32c(std::span<const std::byte>(payload)));
  const std::vector<int> after = storage.fragment_nodes_of("a");
  for (const int node : after) {
    EXPECT_TRUE(storage.node_up(node));
  }
}

// ---- seeded scavenge sweep (satellite 4) ------------------------------------

/// All subsets of {0..3} of the given size.
std::vector<std::vector<int>> node_subsets(int size) {
  std::vector<std::vector<int>> out;
  for (int a = 0; a < 4; ++a) {
    if (size == 1) {
      out.push_back({a});
      continue;
    }
    for (int b = a + 1; b < 4; ++b) {
      out.push_back({a, b});
    }
  }
  return out;
}

/// Whether a lost-node subset stays within the scheme's per-group
/// tolerance on a 4-node tier.
bool within_tolerance(const RedundancyScheme& scheme,
                      const std::vector<int>& lost) {
  std::map<int, int> per_group;
  for (const int n : lost) {
    ++per_group[n / scheme.group_size];
  }
  for (const auto& [group, down] : per_group) {
    if (down > scheme.tolerated_losses()) {
      return false;
    }
  }
  return true;
}

TEST(RedundantBackend, ScavengeSweepRestoresEveryTolerableLossSubset) {
  constexpr int kFiles = 6;
  for (const auto& scheme : {kPartner, kXor4}) {
    // Failure-free fingerprints, once per scheme.
    std::map<std::string, std::uint32_t> baseline;
    for (int f = 0; f < kFiles; ++f) {
      baseline["job.g3.file" + std::to_string(f)] = support::crc32c(
          std::span<const std::byte>(seeded_payload(
              100 + static_cast<std::uint64_t>(f), 512 + f * 131)));
    }

    for (int size = 1; size <= 2; ++size) {
      for (const auto& lost : node_subsets(size)) {
        RedundantBackend storage(4, scheme);
        for (int f = 0; f < kFiles; ++f) {
          storage
              .create("job.g3.file" + std::to_string(f))
              .write_at(0, seeded_payload(
                              100 + static_cast<std::uint64_t>(f),
                              512 + f * 131));
        }
        ASSERT_EQ(storage.encode_all(), kFiles);
        for (const int node : lost) {
          storage.fail_node(node);
        }
        const store::ScavengeReport report = storage.scavenge();
        const std::string label =
            scheme.describe() + " lost={" + std::to_string(lost.front()) +
            (lost.size() > 1 ? "," + std::to_string(lost.back()) : "") +
            "}";

        if (within_tolerance(scheme, lost)) {
          // Every file rebuilt: content bit-identical to the
          // failure-free run, full fragment sets on live nodes.
          EXPECT_TRUE(report.complete()) << label;
          EXPECT_EQ(report.files_lost, 0) << label;
          EXPECT_EQ(report.crc_failures, 0) << label;
          for (const auto& [name, crc] : baseline) {
            ASSERT_TRUE(storage.exists(name)) << label << " " << name;
            EXPECT_EQ(stream_crc(storage, name), crc) << label << " "
                                                      << name;
          }
        } else {
          // Beyond tolerance: the overwhelmed group's files are dropped
          // (restores fall back to the slow tier), the others survive.
          EXPECT_GT(report.files_lost, 0) << label;
          for (const auto& name : report.lost) {
            EXPECT_FALSE(storage.exists(name)) << label << " " << name;
          }
          for (const auto& [name, crc] : baseline) {
            if (storage.exists(name)) {
              EXPECT_EQ(stream_crc(storage, name), crc) << label << " "
                                                        << name;
            }
          }
        }
      }
    }
  }
}

TEST(RedundantBackend, ScavengeReportCountsTheRebuild) {
  RedundantBackend storage(4, kPartner);
  const std::vector<std::byte> payload = seeded_payload(31, 2048);
  storage.create("a").write_at(0, payload);
  ASSERT_TRUE(storage.encode_file("a").has_value());

  const std::vector<int> nodes = storage.fragment_nodes_of("a");
  storage.fail_node(nodes[0]);
  const store::ScavengeReport report = storage.scavenge();
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.files_rebuilt, 1);
  EXPECT_EQ(report.fragments_rebuilt, 1);
  EXPECT_EQ(report.bytes_recovered, payload.size());
  EXPECT_EQ(stream_crc(storage, "a"),
            support::crc32c(std::span<const std::byte>(payload)));
}

// ---- beyond tolerance: tiered fallback --------------------------------------

TEST(RedundantBackend, BeyondToleranceLossFallsBackToTheSlowTier) {
  obs::Recorder rec;
  MemoryBackend slow_store;
  obs::InstrumentedBackend slow(slow_store, &rec, "slow");
  RedundantBackend fast(4, kPartner);
  TieredBackend tiered(fast, slow);

  const std::vector<std::byte> payload = seeded_payload(47, 3000);
  tiered.create("job.g3.seg").write_at(0, payload);
  ASSERT_EQ(fast.encode_all(), 1);
  tiered.drain();  // the slow tier holds the safety copy

  // Lose the file's whole partner pair: beyond tolerance.
  const std::vector<int> nodes = fast.fragment_nodes_of("job.g3.seg");
  ASSERT_EQ(nodes.size(), 2u);
  fast.fail_node(nodes[0]);
  fast.fail_node(nodes[1]);
  const store::ScavengeReport report = fast.scavenge();
  EXPECT_EQ(report.files_lost, 1);
  EXPECT_FALSE(report.complete());
  EXPECT_FALSE(fast.exists("job.g3.seg"));
  EXPECT_EQ(tiered.reconcile_fast_tier(), 1);

  // The tiered read now comes from the slow tier, bit-identical.
  const std::uint64_t slow_reads_before = rec.counter("store.slow.read_at.ops");
  EXPECT_EQ(stream_crc(tiered, "job.g3.seg"),
            support::crc32c(std::span<const std::byte>(payload)));
  EXPECT_GT(rec.counter("store.slow.read_at.ops"), slow_reads_before);
}

// ---- background encode service ----------------------------------------------

TEST(RedundantBackend, SubmitEncodeRunsTheWorkListThroughTheScheduler) {
  svc::IoScheduler::Options opts;
  opts.shard_count = 2;
  opts.force_async = true;
  svc::IoScheduler scheduler(opts);
  svc::JobToken job = scheduler.register_job("ckpt");
  RedundantBackend fast(4, kXor4);
  for (int f = 0; f < 5; ++f) {
    fast.create("job.g3.file" + std::to_string(f))
        .write_at(0, seeded_payload(static_cast<std::uint64_t>(f), 700));
  }

  const svc::EncodeTicket ticket = svc::submit_encode(scheduler, job, fast);
  EXPECT_EQ(ticket.files_submitted(), 5u);
  const svc::EncodeReport report = ticket.wait();
  EXPECT_EQ(report.files_encoded, 5);
  EXPECT_EQ(report.bytes_encoded, 5u * 700u);
  EXPECT_TRUE(fast.encode_work().empty());
  for (int f = 0; f < 5; ++f) {
    EXPECT_EQ(fast.staged_node_of("job.g3.file" + std::to_string(f)), -1);
  }

  // Races drop out of the report instead of erroring: a second submit
  // over the now-clean list is a no-op ticket.
  const svc::EncodeTicket empty = svc::submit_encode(scheduler, job, fast);
  EXPECT_EQ(empty.files_submitted(), 0u);
  EXPECT_EQ(empty.wait().files_encoded, 0);
}

// ---- offline fragment-set audit (fsck) --------------------------------------

TEST(RedundantBackend, MirrorExportsFragmentSetsForOfflineFsck) {
  RedundantBackend fast(4, kXor4);
  fast.create("job.g3.segment")
      .write_at(0, seeded_payload(61, 2000));
  fast.create("job.g3.meta").write_at(0, seeded_payload(62, 100));
  ASSERT_EQ(fast.encode_all(), 2);

  MemoryBackend exported;
  fast.mirror_to(exported);
  const auto states = core::fsck_scan(exported);
  ASSERT_EQ(states.size(), 1u);
  EXPECT_EQ(states[0].prefix, "job.g3");
  EXPECT_TRUE(states[0].encoded_only);
  EXPECT_TRUE(states[0].problems.empty());
  ASSERT_EQ(states[0].fragment_sets.size(), 2u);
  for (const auto& fs : states[0].fragment_sets) {
    EXPECT_EQ(fs.present, 4);
    EXPECT_EQ(fs.expected, 4);
    EXPECT_TRUE(fs.recoverable) << fs.base;
  }

  // One missing fragment: still recoverable. Two: beyond tolerance, and
  // the scan says so.
  exported.remove("job.g3.segment#f0");
  auto one_down = core::fsck_scan(exported);
  ASSERT_EQ(one_down.size(), 1u);
  for (const auto& fs : one_down[0].fragment_sets) {
    EXPECT_TRUE(fs.recoverable) << fs.base;
  }
  exported.remove("job.g3.segment#f2");
  auto two_down = core::fsck_scan(exported);
  ASSERT_EQ(two_down.size(), 1u);
  bool found = false;
  for (const auto& fs : two_down[0].fragment_sets) {
    if (fs.base == "job.g3.segment") {
      found = true;
      EXPECT_EQ(fs.present, 2);
      EXPECT_FALSE(fs.recoverable);
    }
  }
  EXPECT_TRUE(found);
  EXPECT_FALSE(two_down[0].problems.empty());
}

TEST(RedundantBackend, FsckIgnoresFragmentsOnACommittedStateVolume) {
  // A plain committed state plus stray fragments of the same prefix: the
  // fragments must neither flag the state torn nor count as strays.
  MemoryBackend storage;
  storage.create("app.meta").write_at(0, bytes_of("not a real meta"));
  // No commit manifest: the state is torn regardless; what matters here
  // is that the fragments attach as a set instead of as state files.
  const std::vector<std::byte> payload = seeded_payload(71, 64);
  store::FragmentHeader header;
  header.kind = RedundancyKind::kPartner;
  header.index = 0;
  header.fragment_count = 2;
  header.payload_bytes = payload.size();
  header.total_bytes = payload.size();
  header.payload_crc = support::crc32c(payload);
  store::write_fragment(storage, "app.segment#f0", header, payload);
  header.index = 1;
  store::write_fragment(storage, "app.segment#f1", header, payload);

  const auto states = core::fsck_scan(storage);
  ASSERT_EQ(states.size(), 1u);
  EXPECT_EQ(states[0].prefix, "app");
  EXPECT_FALSE(states[0].encoded_only);
  ASSERT_EQ(states[0].fragment_sets.size(), 1u);
  EXPECT_EQ(states[0].fragment_sets[0].base, "app.segment");
  EXPECT_EQ(states[0].fragment_sets[0].present, 2);
  EXPECT_TRUE(states[0].fragment_sets[0].recoverable);
  // The fragments are never reclaimable: scavenge owns their lifecycle.
  for (const auto& f : states[0].reclaimable) {
    EXPECT_EQ(f.find("#f"), std::string::npos) << f;
  }
}

}  // namespace
