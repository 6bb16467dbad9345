#include "src/workload/platform.h"

#include <cassert>

#include "src/simdisk/disk_params.h"

namespace vlog::workload {
namespace {

simdisk::DiskParams DiskFor(const PlatformConfig& config) {
  const bool hp = config.disk_model == DiskModel::kHp97560;
  simdisk::DiskParams params = hp ? simdisk::Hp97560() : simdisk::SeagateSt19101();
  uint32_t cylinders = config.cylinders;
  if (cylinders == 0) {
    cylinders = hp ? 36 : 11;  // The paper's 24 MB kernel-ramdisk truncation.
  }
  simdisk::DiskParams truncated = simdisk::Truncated(params, cylinders);
  truncated.cache = config.cache;
  return truncated;
}

simdisk::HostParams HostFor(HostKind kind) {
  switch (kind) {
    case HostKind::kSparc10:
      return simdisk::SparcStation10();
    case HostKind::kUltra170:
      return simdisk::UltraSparc170();
    case HostKind::kZeroCost:
      return simdisk::ZeroCostHost();
  }
  return simdisk::ZeroCostHost();
}

// FFS cylinder groups sized to the physical cylinder.
uint32_t BlocksPerCylinder(const simdisk::DiskParams& params) {
  return params.geometry.tracks_per_cylinder * params.geometry.sectors_per_track *
         params.geometry.sector_bytes / ufs::kBlockBytes;
}

}  // namespace

std::string PlatformConfig::Name() const {
  std::string name = fs_kind == FsKind::kUfs ? "UFS" : "LFS";
  name += disk_kind == DiskKind::kVld ? "/VLD" : "/regular";
  name += disk_model == DiskModel::kHp97560 ? " (HP97560" : " (ST19101";
  switch (host_kind) {
    case HostKind::kSparc10:
      name += ", SPARC-10)";
      break;
    case HostKind::kUltra170:
      name += ", Ultra-170)";
      break;
    case HostKind::kZeroCost:
      name += ", zero-host)";
      break;
  }
  return name;
}

Platform::Platform(const PlatformConfig& config) : config_(config) {
  const simdisk::DiskParams params = DiskFor(config_);
  raw_ = std::make_unique<simdisk::SimDisk>(params, &clock_);
  host_ = std::make_unique<simdisk::HostModel>(HostFor(config_.host_kind), &clock_);

  simdisk::BlockDevice* device = raw_.get();
  if (config_.disk_kind == DiskKind::kVld) {
    vld_ = std::make_unique<core::Vld>(raw_.get(), config_.vld);
    device = vld_.get();
  }
  if (config_.fs_kind == FsKind::kUfs) {
    ufs::UfsConfig ufs_config;
    ufs_config.blocks_per_cg = BlocksPerCylinder(params);
    ufs_ = std::make_unique<ufs::Ufs>(device, host_.get(), ufs_config);
    fs_ = ufs_.get();
  } else {
    lld_ = std::make_unique<lfs::LogStructuredDisk>(device, config_.lld);
    simple_fs_ = std::make_unique<lfs::SimpleFs>(lld_.get(), host_.get(), config_.simple_fs);
    fs_ = simple_fs_.get();
  }
}

common::Status Platform::Format() {
  if (vld_) {
    RETURN_IF_ERROR(vld_->Format());
  }
  if (lld_) {
    RETURN_IF_ERROR(lld_->Format());
  }
  if (ufs_) {
    return ufs_->Format();
  }
  return simple_fs_->Format();
}

uint64_t Platform::DeviceBytes() const {
  if (vld_) {
    return vld_->SectorCount() * vld_->SectorBytes();
  }
  return raw_->SectorCount() * raw_->SectorBytes();
}

double Platform::FsUtilization() const {
  return ufs_ ? ufs_->Utilization() : simple_fs_->Utilization();
}

void Platform::RunIdle(common::Duration budget) {
  const common::Time deadline = clock_.Now() + budget;
  if (simple_fs_ != nullptr) {
    // LFS idle work: push dirty buffers out (filling segments), then clean ahead. Both are
    // bounded by the idle budget; failures are counted in SimpleFsStats.
    simple_fs_->RunIdle(deadline, &clock_);
  }
  if (vld_ != nullptr && clock_.Now() < deadline) {
    vld_->RunIdle(deadline - clock_.Now());
  }
  clock_.AdvanceTo(deadline);
}

}  // namespace vlog::workload
