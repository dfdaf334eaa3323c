// In-process distributed file system modeling HDFS/S3 for the runtime.
//
// Files are sequences of text lines, split into fixed-size blocks. Each
// block is replicated onto `replication` distinct virtual data nodes
// (Table 2: replication ratio 3); replicas share one payload in host
// memory, while placement metadata drives data-locality scheduling and the
// per-node storage accounting reported by the elasticity benchmark.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace dasc {
class FaultInjector;
class MetricsRegistry;
}  // namespace dasc

namespace dasc::mapreduce {

struct DfsConfig {
  std::size_t num_nodes = 5;          ///< virtual data nodes
  std::size_t replication = 3;        ///< replicas per block (Table 2)
  std::size_t block_size_bytes = 64 * 1024;  ///< small blocks: more splits
  std::uint64_t seed = 99;            ///< placement randomization
  /// Attempts per block read before IoError — HDFS clients fall back to
  /// another replica when a checksum mismatch is detected.
  std::size_t read_attempts = 3;
  /// Optional fault source (site `dfs.read`): kError fails an attempt,
  /// kCorruption flips payload bytes for the CRC check to catch. Null = no
  /// faults and no per-read verification cost.
  FaultInjector* faults = nullptr;
  /// Counts `retry.dfs_read` per re-read (null = off).
  MetricsRegistry* metrics = nullptr;
};

/// Location metadata of one block.
struct BlockInfo {
  std::size_t size_bytes = 0;
  std::size_t num_lines = 0;
  std::vector<std::size_t> replica_nodes;  ///< distinct node ids
};

/// Thread-safe in-memory DFS.
class Dfs {
 public:
  explicit Dfs(const DfsConfig& config);

  const DfsConfig& config() const { return config_; }

  /// Create/overwrite a file from lines, splitting into replicated blocks.
  void write_file(const std::string& path,
                  const std::vector<std::string>& lines);

  /// Append lines as new blocks to an existing or new file.
  void append(const std::string& path, const std::vector<std::string>& lines);

  /// Read the whole file back as lines. Throws IoError if missing.
  std::vector<std::string> read_file(const std::string& path) const;

  /// Lines of one block (for split-local map tasks).
  std::vector<std::string> read_block(const std::string& path,
                                      std::size_t block) const;

  bool exists(const std::string& path) const;
  void remove(const std::string& path);

  /// Paths with the given prefix, sorted.
  std::vector<std::string> list(const std::string& prefix) const;

  /// Block metadata of a file (drives input splits + locality).
  std::vector<BlockInfo> block_locations(const std::string& path) const;

  /// Logical bytes stored on one node, counting every replica.
  std::size_t node_bytes(std::size_t node) const;

  /// Logical bytes across all nodes (i.e. replication-multiplied).
  std::size_t total_bytes() const;

 private:
  struct Block {
    std::shared_ptr<const std::vector<std::string>> lines;
    std::size_t size_bytes = 0;
    std::uint32_t checksum = 0;  ///< crc32_lines of the payload at write
    std::vector<std::size_t> replica_nodes;
  };
  struct File {
    std::vector<Block> blocks;
  };

  std::vector<std::size_t> place_replicas();
  void append_locked(File& file, const std::vector<std::string>& lines);
  /// Fetch one block's payload, injecting `dfs.read` faults and verifying
  /// the stored CRC when an injector is attached; re-reads (as if from
  /// another replica) up to config.read_attempts times.
  std::vector<std::string> verified_read_locked(const Block& block,
                                                const std::string& path) const;

  DfsConfig config_;
  mutable std::mutex mutex_;
  std::map<std::string, File> files_;
  Rng placement_rng_;
};

}  // namespace dasc::mapreduce
