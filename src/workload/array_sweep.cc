#include "src/workload/array_sweep.h"

#include <cstddef>
#include <vector>

#include "src/common/rng.h"
#include "src/workload/payload.h"

namespace vlog::workload {

namespace {

// The deterministic block payload: byte j of block b is (b * 131 + j * 7) & 0xFF — the tag
// the closed-loop update driver writes, so goldens stay familiar.
void FillPattern(uint32_t block, std::vector<std::byte>& payload) {
  FillAffinePayload(payload, block * 131u);
}

}  // namespace

common::Status PrepopulateArray(array::VldArray& array, uint32_t region_blocks) {
  const uint32_t block_sectors = array.block_sectors();
  const uint32_t device_blocks = static_cast<uint32_t>(array.SectorCount() / block_sectors);
  const uint32_t blocks = region_blocks != 0 ? region_blocks : device_blocks / 2;
  if (blocks == 0 || blocks > device_blocks) {
    return common::InvalidArgument("array prepopulate: region out of range");
  }
  std::vector<std::byte> payload(static_cast<size_t>(block_sectors) * array.SectorBytes());
  for (uint32_t b = 0; b < blocks; ++b) {
    FillPattern(b, payload);
    RETURN_IF_ERROR(array.Write(static_cast<simdisk::Lba>(b) * block_sectors, payload));
  }
  return common::OkStatus();
}

common::StatusOr<ArrayReadResult> RunArrayRandomReads(array::VldArray& array, int reads,
                                                      uint64_t seed, uint32_t region_blocks) {
  const uint32_t block_sectors = array.block_sectors();
  const uint32_t device_blocks = static_cast<uint32_t>(array.SectorCount() / block_sectors);
  const uint32_t blocks = region_blocks != 0 ? region_blocks : device_blocks / 2;
  if (blocks == 0 || blocks > device_blocks) {
    return common::InvalidArgument("array reads: region out of range");
  }
  common::Rng rng(seed);
  std::vector<std::byte> got(static_cast<size_t>(block_sectors) * array.SectorBytes());
  std::vector<std::byte> want(got.size());

  bool payloads_ok = true;
  std::vector<common::Duration> latencies;
  latencies.reserve(static_cast<size_t>(reads));
  const common::Time start = array.Now();
  for (int i = 0; i < reads; ++i) {
    const uint32_t b = static_cast<uint32_t>(rng.Below(blocks));
    const common::Time before = array.Now();
    RETURN_IF_ERROR(array.Read(static_cast<simdisk::Lba>(b) * block_sectors, got));
    latencies.push_back(array.Now() - before);
    FillPattern(b, want);
    payloads_ok &= got == want;
  }
  ArrayReadResult result;
  static_cast<LatencySummary&>(result) = SummarizeLatencies(latencies, array.Now() - start);
  result.payloads_ok = payloads_ok;
  return result;
}

}  // namespace vlog::workload
