#include "core/array_fingerprint.hpp"

#include "core/sequential_channel.hpp"
#include "core/streamer.hpp"
#include "rt/collectives.hpp"
#include "support/crc32.hpp"

namespace drms::core {

namespace {

/// Sequential sink that folds the stream into a CRC instead of keeping it.
class CrcSink final : public SequentialSink {
 public:
  void write(std::span<const std::byte> data) override { crc_.update(data); }
  [[nodiscard]] std::uint32_t value() const noexcept { return crc_.value(); }

 private:
  support::Crc32c crc_;
};

}  // namespace

std::uint32_t array_fingerprint(rt::TaskContext& ctx,
                                const DistArray& array) {
  CrcSink sink;
  const ArrayStreamer streamer(nullptr, {});
  (void)streamer.write_section_sequential(ctx, array, array.global_box(),
                                          sink);
  support::ByteBuffer result;
  if (ctx.rank() == 0) {
    result.put_u32(sink.value());
  }
  rt::broadcast(ctx, result, 0);
  result.rewind();
  return result.get_u32();
}

}  // namespace drms::core
