#include "src/crashsim/array_harness.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/common/time.h"
#include "src/simdisk/sim_disk.h"

namespace vlog::crashsim {
namespace {

// Chunked memcmp against a static zero block; see harness.cc (the sweep's hottest loop).
bool IsZero(std::span<const std::byte> bytes) {
  static constexpr size_t kChunk = 4096;
  static const std::array<std::byte, kChunk> kZeros{};
  size_t off = 0;
  while (off < bytes.size()) {
    const size_t n = std::min(kChunk, bytes.size() - off);
    if (std::memcmp(bytes.data() + off, kZeros.data(), n) != 0) {
      return false;
    }
    off += n;
  }
  return true;
}

bool ContentMatches(std::span<const std::byte> got, const std::vector<std::byte>& expect) {
  if (expect.empty()) {
    return IsZero(got);
  }
  return got.size() == expect.size() &&
         std::memcmp(got.data(), expect.data(), expect.size()) == 0;
}

// One member stack the sweep rebuilds per crash point. Heap-held so the pointers handed to the
// VldArray stay stable.
struct MemberStack {
  std::unique_ptr<common::Clock> clock;
  std::unique_ptr<simdisk::SimDisk> disk;
  std::unique_ptr<core::Vld> vld;
};

}  // namespace

ArrayCrashSim::ArrayCrashSim(simdisk::DiskParams params, core::VldConfig member_config,
                             array::VldArrayConfig array_config, uint32_t member_count)
    : params_(std::move(params)),
      member_config_(member_config),
      array_config_(array_config),
      member_count_(member_count) {}

std::vector<uint32_t> ArrayCrashSim::MembersOfBlock(uint32_t block) const {
  if (array_config_.mode == array::ArrayMode::kMirrored) {
    std::vector<uint32_t> all(member_count_);
    for (uint32_t m = 0; m < member_count_; ++m) {
      all[m] = m;
    }
    return all;
  }
  const uint64_t chunk = static_cast<uint64_t>(block) * block_sectors_ / chunk_sectors_;
  return {static_cast<uint32_t>(chunk % member_count_)};
}

void ArrayCrashSim::RecordOp(Workload& w, const std::vector<uint32_t>& blocks,
                             const std::vector<std::vector<std::byte>>& before,
                             const std::vector<std::vector<std::byte>>& after) {
  ArrayOp op;
  op.end_writes = trace_.size();
  for (size_t i = 0; i < blocks.size(); ++i) {
    for (const uint32_t m : MembersOfBlock(blocks[i])) {
      Group* group = nullptr;
      for (Group& g : op.groups) {
        if (g.member == m) {
          group = &g;
          break;
        }
      }
      if (group == nullptr) {
        op.groups.push_back(Group{m, {}, {}, {}});
        group = &op.groups.back();
      }
      group->blocks.push_back(blocks[i]);
      group->before.push_back(before[i]);
      group->after.push_back(after[i]);
    }
    w.shadow_[blocks[i]] = after[i];
  }
  ops_.push_back(std::move(op));
}

common::Status ArrayCrashSim::Workload::WriteBlock(uint32_t array_block,
                                                   std::span<const std::byte> data) {
  const std::vector<std::byte> before = shadow_[array_block];
  RETURN_IF_ERROR(array_->Write(
      static_cast<simdisk::Lba>(array_block) * sim_->block_sectors_, data));
  sim_->RecordOp(*this, {array_block}, {before}, {{data.begin(), data.end()}});
  return common::OkStatus();
}

common::Status ArrayCrashSim::Workload::QueuedBatch(
    std::span<const core::Vld::AtomicWrite> writes) {
  // Decompose the extents into blocks; a block written twice keeps the last payload (the
  // member VLD's queued-batch semantics: later submissions win).
  std::vector<uint32_t> blocks;
  std::vector<std::vector<std::byte>> before;
  std::vector<std::vector<std::byte>> after;
  const uint32_t block_sectors = sim_->block_sectors_;
  const uint32_t block_bytes = sim_->block_bytes_;
  for (const core::Vld::AtomicWrite& w : writes) {
    if (w.lba % block_sectors != 0 || w.data.size() % block_bytes != 0) {
      return common::InvalidArgument("array workload: extents must be whole aligned blocks");
    }
    for (uint64_t i = 0; i < w.data.size() / block_bytes; ++i) {
      const uint32_t b = static_cast<uint32_t>(w.lba / block_sectors + i);
      std::vector<std::byte> payload(w.data.begin() + i * block_bytes,
                                     w.data.begin() + (i + 1) * block_bytes);
      const auto it = std::find(blocks.begin(), blocks.end(), b);
      if (it != blocks.end()) {
        after[static_cast<size_t>(it - blocks.begin())] = std::move(payload);
        continue;
      }
      blocks.push_back(b);
      before.push_back(shadow_[b]);
      after.push_back(std::move(payload));
    }
    RETURN_IF_ERROR(
        array_->SubmitWrite(w.lba, w.data).status());
  }
  auto completions = array_->FlushQueue();
  RETURN_IF_ERROR(completions.status());
  if (completions->size() != writes.size()) {
    return common::Corruption("array workload: batch completion count mismatch");
  }
  sim_->RecordOp(*this, blocks, before, after);
  return common::OkStatus();
}

common::Status ArrayCrashSim::Workload::ReadVerify(uint32_t array_block) {
  std::vector<std::byte> got(sim_->block_bytes_);
  RETURN_IF_ERROR(
      array_->Read(static_cast<simdisk::Lba>(array_block) * sim_->block_sectors_, got));
  if (!ContentMatches(got, shadow_[array_block])) {
    return common::Corruption("array workload: read of block " + std::to_string(array_block) +
                              " disagrees with the shadow at record time");
  }
  return common::OkStatus();
}

common::Status ArrayCrashSim::Record(
    const std::function<common::Status(Workload&)>& workload) {
  std::vector<MemberStack> stacks(member_count_);
  std::vector<core::Vld*> members;
  for (uint32_t m = 0; m < member_count_; ++m) {
    stacks[m].clock = std::make_unique<common::Clock>();
    stacks[m].disk = std::make_unique<simdisk::SimDisk>(params_, stacks[m].clock.get());
    stacks[m].vld = std::make_unique<core::Vld>(stacks[m].disk.get(), member_config_);
    members.push_back(stacks[m].vld.get());
  }
  array::VldArray array(members, array_config_);
  RETURN_IF_ERROR(array.Format());
  block_sectors_ = array.block_sectors();
  block_bytes_ = block_sectors_ * array.SectorBytes();
  array_blocks_ = static_cast<uint32_t>(array.SectorCount() / block_sectors_);
  chunk_sectors_ = array.chunk_sectors();
  // Recording starts after Format: per-member base images, then every member media write into
  // one global trace tagged with the member index.
  trace_.set_write_back(params_.cache.capacity_sectors > 0);
  bases_.clear();
  for (uint32_t m = 0; m < member_count_; ++m) {
    bases_.push_back(SnapshotMedia(*stacks[m].disk));
    stacks[m].disk->set_write_observer(
        [this, m](simdisk::Lba lba, std::span<const std::byte> data, bool durable) {
          trace_.Append(lba, data, durable, m);
        });
    stacks[m].disk->set_flush_observer([this] { trace_.AppendBarrier(); });
  }
  Workload w;
  w.sim_ = this;
  w.array_ = &array;
  w.shadow_.assign(array_blocks_, {});
  common::Status status = workload(w);
  for (MemberStack& stack : stacks) {
    stack.disk->set_write_observer(nullptr);
    stack.disk->set_flush_observer(nullptr);
  }
  return status;
}

CrashSweepReport ArrayCrashSim::Sweep(const CrashSweepOptions& options) const {
  const std::vector<CrashPoint> points =
      AllCrashPoints(trace_, params_.geometry.sector_bytes, options);
  return RunShardedSweep(points.size(), options.enumerate.seed, options,
                         [&](size_t begin, size_t end) {
                           return SweepRange(points, begin, end, options);
                         });
}

CrashSweepReport ArrayCrashSim::SweepRange(const std::vector<CrashPoint>& points, size_t begin,
                                           size_t end, const CrashSweepOptions& options) const {
  CrashSweepReport report;
  const uint32_t sector_bytes = params_.geometry.sector_bytes;

  // Rolling per-member images plus the committed array-block shadow, advanced monotonically.
  // A range starting mid-sweep catches up via the first iteration's replay loop.
  std::vector<std::vector<std::byte>> images = bases_;
  uint64_t applied = 0;
  size_t op_idx = 0;
  std::vector<std::vector<std::byte>> committed(array_blocks_);

  std::vector<std::byte> probe_block(block_bytes_, std::byte{0xA5});
  std::vector<std::byte> readback(block_bytes_);
  // Per-member crashed images, recycled through each point's member SimDisks (media-adopting
  // constructor + TakeMedia) and kept in sync with the rolling images by *difference*: trace
  // records are applied to both copies, and each member's divergences — crash-variant bytes
  // plus every write its recovered stack made (via the disk's write observer) — are restored
  // from the rolling image before the next point instead of re-copying whole media.
  std::vector<std::vector<std::byte>> scratch(member_count_);
  std::vector<std::vector<std::pair<size_t, size_t>>> dirty(member_count_);

  for (size_t pi = begin; pi < end; ++pi) {
    const CrashPoint& point = points[pi];
    while (applied < point.writes_applied) {
      ApplyWrite(images[trace_[applied].disk], trace_[applied], sector_bytes);
      if (!scratch[trace_[applied].disk].empty()) {
        ApplyWrite(scratch[trace_[applied].disk], trace_[applied], sector_bytes);
      }
      ++applied;
    }
    while (op_idx < ops_.size() && ops_[op_idx].end_writes <= applied) {
      for (const Group& g : ops_[op_idx].groups) {
        for (size_t i = 0; i < g.blocks.size(); ++i) {
          committed[g.blocks[i]] = g.after[i];
        }
      }
      ++op_idx;
    }
    // In-flight array ops. Unlike the single-disk sweep, an array op's records span several
    // barrier epochs (per member: data epoch, then packed-commit epoch), so a reorder epoch in
    // the *middle* of the op — say member 0's commit, with member 1 still unwritten — must
    // still treat the op as in flight: the first unfinished op always is. Later ops can join
    // only if they also acknowledged inside the same epoch.
    std::vector<const ArrayOp*> inflight_ops;
    if (op_idx < ops_.size()) {
      inflight_ops.push_back(&ops_[op_idx]);
      if (point.kind == CrashKind::kReorder) {
        for (size_t i = op_idx + 1; i < ops_.size() && ops_[i].end_writes <= point.epoch_end;
             ++i) {
          inflight_ops.push_back(&ops_[i]);
        }
      }
    }

    switch (point.kind) {
      case CrashKind::kClean:
        ++report.clean_points;
        break;
      case CrashKind::kCorruptTail:
        ++report.corrupt_points;
        break;
      case CrashKind::kReorder:
        ++report.reorder_points;
        break;
      default:
        ++report.torn_points;
    }
    if (options.only_ordinal >= 0 &&
        static_cast<int64_t>(point.ordinal) != options.only_ordinal) {
      continue;  // Replay mode: count every point but recover/check only the requested one.
    }

    // Reconstruct every member's crashed media. Only the member that owns the cut (or the
    // reordered epoch) diverges from its barrier state — the others are exactly clean.
    for (uint32_t m = 0; m < member_count_; ++m) {
      if (scratch[m].empty()) {
        scratch[m] = images[m];  // First recovered point in this range: one full copy.
      } else {
        for (const auto& [off, len] : dirty[m]) {
          std::memcpy(scratch[m].data() + off, images[m].data() + off, len);
        }
      }
      dirty[m].clear();
    }
    if (point.kind == CrashKind::kReorder) {
      for (const uint64_t idx : point.extra) {
        ApplyWrite(scratch[trace_[idx].disk], trace_[idx], sector_bytes);
        dirty[trace_[idx].disk].emplace_back(trace_[idx].lba * sector_bytes,
                                             trace_[idx].data.size());
      }
    } else if (point.kind != CrashKind::kClean) {
      // Every crash variant mutates only bytes inside the record's own range.
      ApplyCrashedWrite(scratch[trace_[applied].disk], trace_[applied], sector_bytes, point);
      dirty[trace_[applied].disk].emplace_back(trace_[applied].lba * sector_bytes,
                                               trace_[applied].data.size());
    }

    // Fresh member stacks over the crashed images, then the array's stitched recovery.
    std::vector<MemberStack> stacks(member_count_);
    std::vector<core::Vld*> members;
    for (uint32_t m = 0; m < member_count_; ++m) {
      stacks[m].clock = std::make_unique<common::Clock>();
      stacks[m].disk = std::make_unique<simdisk::SimDisk>(params_, stacks[m].clock.get(),
                                                          std::move(scratch[m]));
      stacks[m].disk->set_write_observer(
          [&dirty, m, sector_bytes](simdisk::Lba lba, std::span<const std::byte> data,
                                    bool /*durable*/) {
            dirty[m].emplace_back(lba * sector_bytes, data.size());
          });
      stacks[m].vld = std::make_unique<core::Vld>(stacks[m].disk.get(), member_config_);
      members.push_back(stacks[m].vld.get());
    }
    // Reclaims every member's media buffer before the stacks die, whatever path exits the
    // point's checks.
    const auto reclaim = [&] {
      for (uint32_t m = 0; m < member_count_; ++m) {
        scratch[m] = std::move(*stacks[m].disk).TakeMedia();
      }
    };
    array::VldArray array(members, array_config_);
    auto info = array.Recover();
    report.recovery_times.push_back(array.now());  // Fresh clocks start at zero.
    if (!info.ok()) {
      report.AddViolation(point, "array recovery failed: " + info.status().ToString(),
                          options.max_violation_details);
      reclaim();
      continue;
    }
    for (const core::VldRecoveryInfo& mi : info->members) {
      (mi.used_scan ? report.scan_recoveries : report.park_recoveries) += 1;
      report.checkpoint_recoveries += mi.from_checkpoint ? 1 : 0;
      report.rolled_back_recoveries += mi.discarded_txn_sectors > 0 ? 1 : 0;
      report.repaired_pieces += mi.repaired_pieces;
    }

    auto read_block = [&](uint32_t b) {
      return array.Read(static_cast<simdisk::Lba>(b) * block_sectors_, readback);
    };

    // Invariant 2a: blocks no in-flight op touches read back their committed contents.
    std::unordered_set<uint32_t> inflight_blocks;
    for (const ArrayOp* op : inflight_ops) {
      for (const Group& g : op->groups) {
        inflight_blocks.insert(g.blocks.begin(), g.blocks.end());
      }
    }
    bool content_ok = true;
    for (uint32_t b = 0; b < array_blocks_ && content_ok; ++b) {
      if (inflight_blocks.count(b) > 0) {
        continue;
      }
      if (!read_block(b).ok()) {
        report.AddViolation(point, "read of array block " + std::to_string(b) + " failed",
                            options.max_violation_details);
        content_ok = false;
        break;
      }
      if (!ContentMatches(readback, committed[b])) {
        report.AddViolation(point,
                            "committed array block " + std::to_string(b) +
                                " has wrong contents after recovery",
                            options.max_violation_details);
        content_ok = false;
      }
    }
    // Invariant 2b: the in-flight op is atomic per member group. Striped members crash
    // independently — one member's group may have committed while another rolled back — but
    // within one member the group's packed commit must be all-old or all-new. Mirrored groups
    // all hold the full op and must agree after resync.
    for (const ArrayOp* op : inflight_ops) {
      for (const Group& g : op->groups) {
        bool all_old = true;
        bool all_new = true;
        bool reads_ok = true;
        for (size_t i = 0; i < g.blocks.size() && reads_ok; ++i) {
          if (!read_block(g.blocks[i]).ok()) {
            report.AddViolation(point,
                                "read of in-flight array block " + std::to_string(g.blocks[i]) +
                                    " failed",
                                options.max_violation_details);
            reads_ok = false;
            break;
          }
          all_old = all_old && ContentMatches(readback, g.before[i]);
          all_new = all_new && ContentMatches(readback, g.after[i]);
        }
        if (reads_ok && !(all_old || all_new)) {
          report.AddViolation(point,
                              "in-flight array op partially applied on member " +
                                  std::to_string(g.member) + " (group atomicity violated)",
                              options.max_violation_details);
        }
      }
    }

    // Invariants 3 and 4, per member: injective map, mapped blocks live, and free-space
    // accounting equal to mapped data + live map pieces + pinned blocks.
    for (uint32_t m = 0; m < member_count_; ++m) {
      const core::Vld& vld = *stacks[m].vld;
      const std::string who = "member " + std::to_string(m) + ": ";
      uint64_t mapped = 0;
      if (const auto violation = MapInvariantViolation(vld, mapped)) {
        report.AddViolation(point, who + *violation, options.max_violation_details);
      }
      std::unordered_set<uint32_t> map_blocks;
      for (uint32_t k = 0; k < vld.vlog().config().pieces; ++k) {
        if (const auto block = vld.vlog().LiveBlockOfPiece(k)) {
          map_blocks.insert(*block);
        }
      }
      for (const uint32_t block : vld.vlog().PinnedBlocks()) {
        map_blocks.insert(block);
      }
      if (mapped + map_blocks.size() != vld.space().live_blocks()) {
        report.AddViolation(point,
                            who + "free-space accounting mismatch: " + std::to_string(mapped) +
                                " mapped + " + std::to_string(map_blocks.size()) +
                                " map blocks != " + std::to_string(vld.space().live_blocks()) +
                                " live",
                            options.max_violation_details);
      }
    }

    // Invariant 5: the recovered array still accepts and serves writes (striped: exercises the
    // member that owns block 0; mirrored: fans out to every replica).
    if (options.probe_after_recovery) {
      const common::Status w = array.Write(0, probe_block);
      const common::Status r = w.ok() ? array.Read(0, readback) : w;
      if (!r.ok() || !ContentMatches(readback, probe_block)) {
        report.AddViolation(point, "post-recovery array probe write/read failed",
                            options.max_violation_details);
      }
    }
    reclaim();
  }
  return report;
}

}  // namespace vlog::crashsim
