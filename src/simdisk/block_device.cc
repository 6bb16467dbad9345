#include "src/simdisk/block_device.h"

namespace vlog::simdisk {

// The refusing defaults: a device without the queued, trim or atomic extension says so
// instead of emulating it, so a stack never silently loses the group commit or the
// all-or-nothing guarantee a caller asked for.

common::StatusOr<uint64_t> BlockDevice::SubmitWrite(Lba, std::span<const std::byte>) {
  return common::FailedPrecondition("SubmitWrite: device has no queued path");
}

common::StatusOr<uint64_t> BlockDevice::SubmitRead(Lba, uint64_t) {
  return common::FailedPrecondition("SubmitRead: device has no queued path");
}

common::StatusOr<std::vector<QueuedCompletion>> BlockDevice::FlushQueue() {
  return common::FailedPrecondition("FlushQueue: device has no queued path");
}

common::Status BlockDevice::Trim(Lba, uint64_t) {
  return common::FailedPrecondition("Trim: device has no trim extension");
}

common::Status BlockDevice::WriteAtomic(std::span<const AtomicWrite>) {
  return common::FailedPrecondition("WriteAtomic: device has no atomic extension");
}

}  // namespace vlog::simdisk
