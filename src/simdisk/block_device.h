// The narrow device-driver interface shared by every disk in the system.
//
// A regular simulated disk and a Virtual Log Disk both export this interface, which is the
// point of the paper's VLD design: an unmodified file system gets eager writing for free.
//
// Beyond Read/Write/Flush the interface carries the extensions the VLD motivates (§4.2): a
// queued path whose batch shares one map commit, an all-or-nothing multi-extent write, and an
// explicit delete hint. A device that does not implement an extension refuses it with
// kFailedPrecondition (and reports queue_depth() 0), so a layer stacked on top — an NVM stage,
// a shadow model — forwards every call to the one device below it without asking what it is.
#ifndef SRC_SIMDISK_BLOCK_DEVICE_H_
#define SRC_SIMDISK_BLOCK_DEVICE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/status.h"
#include "src/common/time.h"
#include "src/simdisk/geometry.h"

namespace vlog::simdisk {

// One extent of an all-or-nothing WriteAtomic batch.
struct AtomicWrite {
  Lba lba;                          // Must be physical-block aligned.
  std::span<const std::byte> data;  // Whole blocks.
};

// Per-request acknowledgement from FlushQueue, timestamped on the device's Now() clock.
struct QueuedCompletion {
  uint64_t id = 0;
  bool is_write = true;
  Lba lba = 0;
  common::Time submit_time = 0;  // When SubmitRead/SubmitWrite accepted the request.
  // Writes: when the group's map commit reached the media (on an array, the cross-disk
  // barrier: the last touched member's commit). Reads: when the data was assembled.
  common::Time complete_time = 0;
  common::Time dispatch_time = 0;  // When its controller work finished and media work began.
  uint64_t span_id = 0;            // Trace span (0 when none was opened).
  std::vector<std::byte> data;     // Read payload (empty for writes).
  common::Duration Latency() const { return complete_time - submit_time; }
  // Time the request spent behind other queue entries before its own controller work began.
  common::Duration QueueDelay() const { return dispatch_time - submit_time; }
};

class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  // Reads `out.size()` bytes starting at sector `lba`. The size must be a whole number of
  // sectors. Charges simulated time to the device's clock.
  virtual common::Status Read(Lba lba, std::span<std::byte> out) = 0;

  // Writes `in.size()` bytes starting at sector `lba` (whole sectors). Acknowledged: when the
  // call returns the data is readable and, on a device without a volatile write cache,
  // durable. A device with a write-back cache may hold acknowledged writes in volatile state
  // until Flush() — a crash can lose them or destage them out of order.
  virtual common::Status Write(Lba lba, std::span<const std::byte> in) = 0;

  // Durability barrier: when Flush() returns, every write acknowledged before it is on stable
  // media. Devices without a volatile cache are always durable, hence the default no-op.
  virtual common::Status Flush() { return common::OkStatus(); }

  virtual uint64_t SectorCount() const = 0;
  virtual uint32_t SectorBytes() const = 0;

  // The device's current time: what its queued completions are stamped on and what a driver
  // measures elapsed time against.
  virtual common::Time Now() const = 0;

  // --- Queued I/O ---
  // Enqueues a write (the payload is copied) or a read of `sectors` sectors without media
  // work and returns a completion id; FlushQueue services every queued request and returns
  // their completions in submission order. Fails with kFailedPrecondition once queue_depth()
  // requests are outstanding.
  virtual common::StatusOr<uint64_t> SubmitWrite(Lba lba, std::span<const std::byte> in);
  virtual common::StatusOr<uint64_t> SubmitRead(Lba lba, uint64_t sectors);
  virtual common::StatusOr<std::vector<QueuedCompletion>> FlushQueue();
  virtual size_t QueuedRequests() const { return 0; }
  virtual uint32_t queue_depth() const { return 0; }

  // Explicitly frees the whole blocks covered by [lba, lba + sectors): the delete hint the
  // paper notes is missing from the classic interface.
  virtual common::Status Trim(Lba lba, uint64_t sectors);
  // All-or-nothing multi-extent write: one command, one transaction.
  virtual common::Status WriteAtomic(std::span<const AtomicWrite> writes);
};

}  // namespace vlog::simdisk

#endif  // SRC_SIMDISK_BLOCK_DEVICE_H_
