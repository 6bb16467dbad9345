// A MinixUFS-style file system over the log-structured logical disk (§4.4's "LFS" stack).
//
// Block-granularity only (4 KB, no fragments), flat metadata layout in *logical* blocks:
// superblock, inode table, allocation bitmaps, then data. The log-structured logical disk
// underneath turns every write into a log append, so this pair reproduces the paper's ported
// MIT LLD + MinixUFS configuration: a 6.1 MB file buffer cache (optionally treated as NVRAM),
// all writes asynchronous until Sync()/eviction, and no read-ahead (disabled by the LLD port
// because logically contiguous blocks are not physically contiguous).
#ifndef SRC_LFS_SIMPLE_FS_H_
#define SRC_LFS_SIMPLE_FS_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/fs/file_system.h"
#include "src/lfs/log_disk.h"
#include "src/simdisk/host_model.h"
#include "src/ufs/layout.h"

namespace vlog::lfs {

struct SimpleFsConfig {
  uint32_t cache_blocks = 1562;  // ~6.1 MB of 4 KB buffers, as in the paper.
  bool cache_is_nvram = true;    // Documentation of the reliability assumption in Figures 8/10.
  uint32_t inode_blocks = 96;    // 32 inodes per block.
};

struct SimpleFsStats {
  uint64_t creates = 0;
  uint64_t removes = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t evictions = 0;
  uint64_t sync_writes = 0;
  // Best-effort work whose failure is counted rather than returned: delete hints (TrimBlock)
  // for freed blocks, and RunIdle's buffer flush and segment cleaning.
  uint64_t trim_failures = 0;
  uint64_t idle_flush_failures = 0;
  uint64_t idle_clean_failures = 0;
};

class SimpleFs : public fs::FileSystem {
 public:
  SimpleFs(LogStructuredDisk* disk, simdisk::HostModel* host, SimpleFsConfig config = {});

  common::Status Format();

  common::Status Create(const std::string& path) override;
  common::Status Mkdir(const std::string& path) override;
  common::Status Remove(const std::string& path) override;
  common::Status Write(const std::string& path, uint64_t offset, std::span<const std::byte> data,
                       fs::WritePolicy policy) override;
  common::StatusOr<uint64_t> Read(const std::string& path, uint64_t offset,
                                  std::span<std::byte> out) override;
  common::StatusOr<fs::FileInfo> Stat(const std::string& path) override;
  common::StatusOr<std::vector<std::string>> List(const std::string& dir_path) override;
  common::Status Sync() override;
  common::Status DropCaches() override;

  // Idle-time write-back: pushes dirty buffers to the log disk (oldest block numbers first)
  // until `deadline`. Unlike Sync(), it never overruns the idle budget by more than one
  // segment write, which is what Figure 10's idle-interval sweep measures.
  common::Status FlushDuringIdle(common::Time deadline, common::Clock* clock);
  // One idle interval for the whole LFS stack: FlushDuringIdle, then the log disk's
  // CleanDuringIdle, both bounded by `deadline`. A failure of either is counted in stats()
  // and the interval goes on.
  void RunIdle(common::Time deadline, common::Clock* clock);
  uint64_t DirtyBlocks() const;

  double Utilization() const;
  uint64_t FreeBlocks() const;
  const SimpleFsStats& stats() const { return stats_; }
  LogStructuredDisk& log_disk() { return *disk_; }

 private:
  struct Buffer {
    std::vector<std::byte> data;
    bool dirty = false;
    uint64_t lru = 0;
  };

  uint32_t DataStart() const { return 1 + config_.inode_blocks; }
  uint32_t InodeCount() const { return config_.inode_blocks * ufs::kInodesPerBlock; }

  common::StatusOr<Buffer*> GetBlock(uint32_t lblock, bool read_from_disk);
  common::Status FlushBlock(uint32_t lblock, Buffer& buffer);
  common::Status EvictIfNeeded();

  common::StatusOr<ufs::Inode> ReadInode(uint32_t ino);
  common::Status StoreInode(uint32_t ino, const ufs::Inode& inode, bool sync);

  common::StatusOr<uint32_t> LookupPath(const std::string& path);
  common::StatusOr<uint32_t> ResolveParent(const std::string& path, std::string* leaf);
  common::StatusOr<uint32_t> DirFind(const ufs::Inode& dir, const std::string& name);
  common::Status DirAdd(uint32_t dir_ino, ufs::Inode& dir, const std::string& name,
                        uint32_t child, bool sync);
  common::Status DirRemove(const ufs::Inode& dir, const std::string& name, bool sync);
  common::Status CreateNode(const std::string& path, ufs::InodeType type);

  common::StatusOr<uint32_t> BmapRead(const ufs::Inode& inode, uint64_t fbi);
  common::StatusOr<uint32_t> BmapAlloc(ufs::Inode& inode, uint64_t fbi);
  common::Status FreeFileBlocks(ufs::Inode& inode);

  common::StatusOr<uint32_t> AllocBlock();
  void FreeBlock(uint32_t lblock);
  common::StatusOr<uint32_t> AllocInodeNumber();

  LogStructuredDisk* disk_;
  simdisk::HostModel* host_;
  SimpleFsConfig config_;
  std::vector<bool> block_used_;
  std::vector<bool> inode_used_;
  uint64_t free_blocks_ = 0;
  uint32_t alloc_rotor_ = 0;
  std::unordered_map<uint32_t, Buffer> cache_;
  uint64_t lru_tick_ = 0;
  SimpleFsStats stats_;
};

}  // namespace vlog::lfs

#endif  // SRC_LFS_SIMPLE_FS_H_
