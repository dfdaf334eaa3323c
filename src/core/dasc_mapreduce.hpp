// DASC as MapReduce jobs (paper Section 3.3, Algorithms 1 and 2).
//
// Stage 1 ("dasc-lsh"): the mapper hashes each member with the fitted hash
// parameters broadcast from the driver (Algorithm 1) and emits (signature,
// point index) pairs; the point itself stays with the driver, which holds
// every point already.
// Between the stages the driver reads the signatures from stage 1's output
// and merges buckets whose signatures share at least P bits, exactly where
// the paper performs the merge ("before applying the reducer"). It then
// builds one member per stage-1 record, in stage 1's output order, and
// hands the members to stage 2.
// Stage 2 ("dasc-cluster"): its mapper keys each member with its merged
// bucket from a broadcast point -> bucket table, and the reducer receives
// one bucket per key, builds the bucket's Gram matrix (Algorithm 2, Eq. 1)
// and runs spectral clustering on it, emitting (index, bucket + local
// label) pairs.
// The driver densifies the (bucket, local label) pairs into global labels.
//
// Records are fixed-width little-endian binary, not text (DESIGN.md §5,
// "Record formats"): a member is a u64 index followed by the raw doubles;
// a stage-1 record is a packed u64 signature key and a u64 index value.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "core/dasc_params.hpp"
#include "core/kernel_approximator.hpp"
#include "data/point_set.hpp"
#include "lsh/signature.hpp"
#include "mapreduce/job.hpp"

namespace dasc::core {

struct MapReduceDascParams {
  DascParams dasc;
  mapreduce::JobConf conf;  ///< virtual cluster for both stages
};

struct MapReduceDascResult {
  std::vector<int> labels;
  std::size_t num_clusters = 0;
  std::size_t requested_k = 0;

  /// Bucketing statistics (resolved M/P, bucket counts, Gram bytes).
  ApproximatorStats stats;

  /// Stage 1 accounting: (signature, index) records, one per point. Its
  /// output is released once stage 2's input is built, so it is empty.
  mapreduce::JobResult lsh_job;
  mapreduce::JobResult cluster_job;  ///< stage 2 accounting
  double simulated_seconds = 0.0;    ///< both stages on the virtual cluster
  double real_seconds = 0.0;
};

/// Run the two-stage MapReduce DASC pipeline on a dataset. Only the
/// random-projection family is supported on this path (the hash parameters
/// must serialize into mapper configuration, as in the paper).
MapReduceDascResult dasc_cluster_mapreduce(const data::PointSet& points,
                                           const MapReduceDascParams& params,
                                           Rng& rng);

/// DFS-backed variant: the dataset lives in `dfs` at `input_path` (one
/// point record per line, as written by point_to_record), stage 1 reads
/// block-local splits directly from the DFS, and the final (index,
/// clusterId) assignment is persisted to `<output_path>/part-r-00000`.
MapReduceDascResult dasc_cluster_mapreduce_dfs(
    mapreduce::Dfs& dfs, const std::string& input_path,
    const std::string& output_path, const MapReduceDascParams& params,
    Rng& rng);

/// Member value codec shared with tests: u64 LE index, then each
/// coordinate's IEEE-754 bits as u64 LE (8 + 8 * dim bytes, bit-exact).
std::string encode_member(std::size_t index, std::span<const double> point);
/// Inverse of encode_member; throws InvalidArgument unless the value is
/// 8 + 8 * dim bytes long.
std::pair<std::size_t, std::vector<double>> decode_member(
    const std::string& value);

/// Per-point signatures from stage 1's output over `n` points: each record
/// is (u64 LE signature, u64 LE index). Throws InternalError unless every
/// key and value is 8 bytes and every index in [0, n) appears exactly once
/// (a lost point would keep signature 0 and a duplicate would reach stage 2
/// twice).
std::vector<lsh::Signature> read_stage1_signatures(
    const mapreduce::JobOutput& output, std::size_t n);

}  // namespace dasc::core
