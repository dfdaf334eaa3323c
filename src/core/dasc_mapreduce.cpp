#include "core/dasc_mapreduce.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdint>
#include <memory>
#include <string_view>
#include <unordered_map>

#include "common/error.hpp"
#include "common/spool.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "core/bucket_embedder.hpp"
#include "core/dasc_clusterer.hpp"
#include "data/dataset_io.hpp"
#include "lsh/bucket_table.hpp"

namespace dasc::core {

namespace {

// Every record field is a fixed-width little-endian word (DESIGN.md §5,
// "Record formats"): u64 indices and signatures, raw IEEE-754 doubles.
constexpr std::size_t kWord = 8;
static_assert(sizeof(std::size_t) == kWord, "member indices are u64");

void store_u64(char* out, std::uint64_t value) {
  for (std::size_t b = 0; b < kWord; ++b) {
    out[b] = static_cast<char>((value >> (8 * b)) & 0xFF);
  }
}

std::uint64_t load_u64(const char* in) {
  std::uint64_t value = 0;
  for (std::size_t b = 0; b < kWord; ++b) {
    value |= std::uint64_t{static_cast<unsigned char>(in[b])} << (8 * b);
  }
  return value;
}

std::string u64_bytes(std::uint64_t value) {
  std::string bytes(kWord, '\0');
  store_u64(bytes.data(), value);
  return bytes;
}

/// Coordinates in a member value (u64 index, then the doubles); throws
/// InvalidArgument unless the size is 8 + 8 * dim.
std::size_t member_dim(std::string_view value) {
  DASC_EXPECT(value.size() >= kWord && (value.size() - kWord) % kWord == 0,
              "member value: not a u64 index plus whole doubles");
  return (value.size() - kWord) / kWord;
}

/// Write a point's coordinates as raw IEEE-754 bits at `out` (the member
/// value's bytes after its index).
void store_point(char* out, std::span<const double> point) {
  for (std::size_t d = 0; d < point.size(); ++d) {
    store_u64(out + kWord * d, std::bit_cast<std::uint64_t>(point[d]));
  }
}

/// Decode a member's coordinates into `out` (member_dim(value) long) and
/// return its index.
std::uint64_t read_member(std::string_view value, std::span<double> out) {
  for (std::size_t d = 0; d < out.size(); ++d) {
    out[d] = std::bit_cast<double>(load_u64(value.data() + kWord * (d + 1)));
  }
  return load_u64(value.data());
}

/// A whole decimal u64 field; throws InternalError naming `what` otherwise.
std::uint64_t parse_u64(std::string_view text, const std::string& what) {
  std::uint64_t value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  DASC_ENSURE(ec == std::errc() && end == text.data() + text.size(),
              "dasc_mapreduce: malformed " + what);
  return value;
}

/// Write point `index`'s member value into `value`, resizing it to
/// 8 + 8 * dim bytes (a buffer reused across points allocates once).
void store_member(std::string& value, std::size_t index,
                  std::span<const double> point) {
  value.resize(kWord * (1 + point.size()));
  store_u64(value.data(), index);
  store_point(value.data() + kWord, point);
}

}  // namespace

std::string encode_member(std::size_t index, std::span<const double> point) {
  std::string value;
  store_member(value, index, point);
  return value;
}

std::pair<std::size_t, std::vector<double>> decode_member(
    const std::string& value) {
  std::vector<double> point(member_dim(value));
  const std::size_t index = read_member(value, point);
  return {index, std::move(point)};
}

std::vector<lsh::Signature> read_stage1_signatures(
    const mapreduce::JobOutput& output, std::size_t n) {
  DASC_ENSURE(output.size() == n,
              "dasc_cluster_mapreduce: stage 1 lost or duplicated points");
  std::vector<lsh::Signature> signatures(n);
  std::vector<bool> seen(n, false);
  output.for_each([&](std::string_view key, std::string_view value) {
    DASC_ENSURE(key.size() == kWord && value.size() == kWord,
                "dasc_cluster_mapreduce: malformed stage-1 record");
    const std::uint64_t index = load_u64(value.data());
    DASC_ENSURE(index < n, "dasc_cluster_mapreduce: bad stage-1 index");
    DASC_ENSURE(!seen[index],
                "dasc_cluster_mapreduce: stage 1 duplicated a point");
    seen[index] = true;
    signatures[index].bits = load_u64(key.data());
  });
  // n records, none repeated, all below n: every index appeared.
  return signatures;
}

namespace {

/// Algorithm 1: per-record signature generation with broadcast hash
/// parameters (one hasher copy per map task). Emits (packed signature,
/// u64 index): the driver holds the points, so only the index travels on.
class SignatureMapper final : public mapreduce::Mapper {
 public:
  explicit SignatureMapper(lsh::RandomProjectionHasher hasher)
      : hasher_(std::move(hasher)) {}

  void map(const std::string& /*key*/, const std::string& value,
           mapreduce::Emitter& out) override {
    point_.resize(member_dim(value));
    const std::uint64_t index = read_member(value, point_);
    out.emit(u64_bytes(hasher_.hash(point_).bits), u64_bytes(index));
  }

 private:
  lsh::RandomProjectionHasher hasher_;
  std::vector<double> point_;  ///< reused decode buffer
};

/// Algorithm 1 over a DFS text file: the key is the global line number, which
/// is the point index, and the value a point_to_record line. Emits (packed
/// signature, u64 index) like SignatureMapper.
class TextSignatureMapper final : public mapreduce::Mapper {
 public:
  explicit TextSignatureMapper(lsh::RandomProjectionHasher hasher)
      : hasher_(std::move(hasher)) {}

  void map(const std::string& key, const std::string& value,
           mapreduce::Emitter& out) override {
    const std::vector<double> point = data::record_to_point(value);
    out.emit(u64_bytes(hasher_.hash(point).bits),
             u64_bytes(parse_u64(key, "DFS line number")));
  }

 private:
  lsh::RandomProjectionHasher hasher_;
};

/// Identity reducer: stage 1 only groups point indices per signature.
class IdentityReducer final : public mapreduce::Reducer {
 public:
  void reduce(const std::string& key, const std::vector<std::string>& values,
              mapreduce::Emitter& out) override {
    for (const auto& value : values) out.emit(key, value);
  }
};

/// What the driver broadcasts to stage 2's mappers: each point's bucket
/// ordinal and each bucket's reduce key.
struct BucketKeys {
  std::vector<std::uint32_t> ordinal;  ///< point index -> bucket ordinal
  std::vector<std::string> key;        ///< bucket ordinal -> reduce key
};

/// Stage 2's mapper over the members the driver rewrote from stage 1's
/// output: keys each member with its merged, balanced bucket's key, passing
/// the member value through unchanged.
class BucketKeyMapper final : public mapreduce::Mapper {
 public:
  explicit BucketKeyMapper(std::shared_ptr<const BucketKeys> keys)
      : keys_(std::move(keys)) {}

  void map(const std::string& /*key*/, const std::string& value,
           mapreduce::Emitter& out) override {
    DASC_ENSURE(value.size() >= kWord,
                "BucketKeyMapper: member value has no index");
    const std::uint64_t index = load_u64(value.data());
    DASC_ENSURE(index < keys_->ordinal.size(),
                "BucketKeyMapper: bad member index");
    out.emit(keys_->key[keys_->ordinal[index]], value);
  }

 private:
  std::shared_ptr<const BucketKeys> keys_;
};

/// Algorithm 2 plus the spectral step: one bucket per reduce group,
/// clustered by core::cluster_buckets — the in-process driver's own step
/// 4 — so the reduce stage runs the exact per-bucket path of the other
/// drivers.
class BucketClusterReducer final : public mapreduce::Reducer {
 public:
  BucketClusterReducer(DascParams dasc, double sigma, std::size_t global_k,
                       std::size_t total_points)
      : dasc_(dasc),
        sigma_(sigma),
        global_k_(global_k),
        total_points_(total_points) {}

  void reduce(const std::string& key, const std::vector<std::string>& values,
              mapreduce::Emitter& out) override {
    // Members in point-index order, the order of the driver's bucket lists
    // (merged buckets hold sorted indices and balancing keeps their order),
    // whatever order the shuffle delivered them in: the clustering of a
    // bucket depends on its member order.
    const std::size_t n = values.size();
    const std::size_t dim = member_dim(values.front());
    std::vector<std::pair<std::uint64_t, std::size_t>> order(n);
    for (std::size_t i = 0; i < n; ++i) {
      DASC_EXPECT(member_dim(values[i]) == dim,
                  "BucketClusterReducer: ragged bucket records");
      order[i] = {load_u64(values[i].data()), i};
    }
    std::sort(order.begin(), order.end());
    std::vector<std::uint64_t> indices(n);
    data::PointSet group(n, dim);
    for (std::size_t i = 0; i < n; ++i) {
      indices[i] = read_member(values[order[i].second], group.point(i));
    }

    // The whole reduce group is one bucket: build its sub-similarity
    // matrix (Algorithm 2, Eq. 1), cluster, discard. Seed derived from the
    // bucket key so results are independent of which reduce task
    // processes the bucket; label offset 0 leaves the local labels.
    std::vector<lsh::Bucket> buckets(1);
    buckets[0].indices.resize(n);
    for (std::size_t i = 0; i < n; ++i) buckets[0].indices[i] = i;
    BucketJob job;
    job.seed = dasc_.seed ^ std::hash<std::string>{}(key);
    job.k_bucket = bucket_cluster_count(global_k_, n, total_points_);
    ApproximatorStats stats;
    const std::vector<int> local =
        cluster_buckets(group, buckets, {job}, dasc_, sigma_, stats);

    // (u64 index, u32 bucket ordinal + i32 local label): the ordinal is
    // the key's "#b" suffix, so the pair names the cluster uniquely.
    const std::size_t hash_mark = key.rfind('#');
    DASC_ENSURE(hash_mark != std::string::npos,
                "BucketClusterReducer: bucket key has no ordinal");
    const std::uint64_t ordinal = parse_u64(
        std::string_view(key).substr(hash_mark + 1), "bucket ordinal");
    DASC_ENSURE(ordinal <= UINT32_MAX,
                "BucketClusterReducer: bucket ordinal exceeds u32");
    for (std::size_t i = 0; i < n; ++i) {
      const auto label = static_cast<std::uint32_t>(local[i]);
      out.emit(u64_bytes(indices[i]),
               u64_bytes(ordinal | std::uint64_t{label} << 32));
    }
  }

 private:
  DascParams dasc_;
  double sigma_;
  std::size_t global_k_;
  std::size_t total_points_;
};

}  // namespace

namespace {

/// Driver-side setup shared by both entry points: resolved M and sigma,
/// and the hash parameters fitted over the dataset (the paper computes
/// spans and thresholds, then broadcasts them to mappers).
struct DriverSetup {
  std::size_t m = 0;
  double sigma = 0.0;
  lsh::RandomProjectionHasher hasher;
};

/// Resolve M, K (into `result`) and sigma, then fit the hasher — the one
/// RNG draw before stage 1.
DriverSetup driver_setup(const data::PointSet& points,
                         const MapReduceDascParams& params, Rng& rng,
                         MapReduceDascResult& result) {
  DASC_EXPECT(params.dasc.family == HashFamily::kRandomProjection,
              "dasc_cluster_mapreduce: only random projection is supported");
  const std::size_t m = resolve_signature_bits(params.dasc, points.size());
  result.requested_k = resolve_cluster_count(params.dasc, points.size());
  return {m, resolve_bandwidth(params.dasc, points),
          lsh::RandomProjectionHasher::fit(points, m, params.dasc.selection,
                                           rng)};
}

/// Everything after stage 1: bucket merge, balancing, stage 2, densify.
/// `result` arrives with lsh_job populated.
void finish_pipeline(const data::PointSet& points,
                     const MapReduceDascParams& params,
                     const DriverSetup& setup, MapReduceDascResult& result);

/// The DascParams spill knob covers the whole MapReduce run: when the job
/// conf leaves spilling unset, inherit the pipeline's budget so the
/// shuffles and the reduce-side Gram blocks honor one knob.
mapreduce::JobConf with_spill(mapreduce::JobConf conf,
                              const DascParams& dasc) {
  if (conf.spill_budget_bytes == 0) {
    conf.spill_budget_bytes = dasc.spill_budget_bytes;
  }
  if (conf.spill_dir.empty()) conf.spill_dir = dasc.spill_dir;
  return conf;
}

/// A job's input splits of members: record i is ("", member of point
/// index_at(i)) for i in [0, count), and split s holds records
/// [split_records * s, split_records * (s + 1)) — the splits run_job would
/// cut from the same records. Each split is framed straight from `points`,
/// in parallel over the splits.
template <typename IndexAt>
std::vector<mapreduce::RecordRun> member_splits(const data::PointSet& points,
                                                std::size_t count,
                                                std::size_t split_records,
                                                std::size_t threads,
                                                const IndexAt& index_at) {
  DASC_EXPECT(split_records >= 1, "JobConf: split_records must be >= 1");
  std::vector<mapreduce::RecordRun> splits(
      (count + split_records - 1) / split_records);
  const std::size_t frame_bytes = 2 * 4 + kWord * (1 + points.dim());
  parallel_for(0, splits.size(), threads, [&](std::size_t s) {
    const std::size_t begin = s * split_records;
    const std::size_t end = std::min(count, begin + split_records);
    mapreduce::RecordRun& split = splits[s];
    split.records = end - begin;
    split.run.reserve(split.records * frame_bytes);
    std::string member;
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t index = index_at(i);
      store_member(member, index, points.point(index));
      append_record_frame(split.run, "", member);
    }
  });
  return splits;
}

/// Stage 1 with `Mapper` (SignatureMapper over member values, or
/// TextSignatureMapper over DFS text lines).
template <typename Mapper>
mapreduce::JobSpec make_stage1_spec(const MapReduceDascParams& params,
                                    const lsh::RandomProjectionHasher& hasher) {
  mapreduce::JobSpec lsh_spec;
  lsh_spec.conf = with_spill(params.conf, params.dasc);
  lsh_spec.conf.job_name = "dasc-lsh";
  lsh_spec.conf.enable_combiner = false;
  lsh_spec.mapper_factory = [hasher] {
    return std::make_unique<Mapper>(hasher);
  };
  lsh_spec.reducer_factory = [] {
    return std::make_unique<IdentityReducer>();
  };
  lsh_spec.metrics = params.dasc.metrics;
  lsh_spec.faults = params.dasc.faults;
  return lsh_spec;
}

}  // namespace

MapReduceDascResult dasc_cluster_mapreduce(const data::PointSet& points,
                                           const MapReduceDascParams& params,
                                           Rng& rng) {
  DASC_EXPECT(!points.empty(), "dasc_cluster_mapreduce: empty dataset");
  Stopwatch total_clock;

  MapReduceDascResult result;
  const std::size_t n = points.size();
  const DriverSetup setup = driver_setup(points, params, rng, result);

  // ---- Stage 1: LSH signatures (Algorithm 1). ----
  // Record i is point i's member.
  result.lsh_job = mapreduce::run_job_splits(
      make_stage1_spec<SignatureMapper>(params, setup.hasher),
      member_splits(points, n, params.conf.split_records,
                    params.dasc.threads, [](std::size_t i) { return i; }));

  finish_pipeline(points, params, setup, result);
  result.real_seconds = total_clock.seconds();
  return result;
}

MapReduceDascResult dasc_cluster_mapreduce_dfs(
    mapreduce::Dfs& dfs, const std::string& input_path,
    const std::string& output_path, const MapReduceDascParams& params,
    Rng& rng) {
  Stopwatch total_clock;

  // Driver-side analysis pass over the DFS dataset (spans + thresholds,
  // as in the in-memory variant).
  const std::vector<std::string> lines = dfs.read_file(input_path);
  DASC_EXPECT(!lines.empty(), "dasc_cluster_mapreduce_dfs: empty input");
  const std::vector<double> first = data::record_to_point(lines[0]);
  data::PointSet points(lines.size(), first.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::vector<double> values = data::record_to_point(lines[i]);
    DASC_EXPECT(values.size() == first.size(),
                "dasc_cluster_mapreduce_dfs: ragged records");
    std::copy(values.begin(), values.end(), points.point(i).begin());
  }

  MapReduceDascResult result;
  const std::size_t n = points.size();
  const DriverSetup setup = driver_setup(points, params, rng, result);

  // ---- Stage 1 over DFS blocks (data-local splits). The DFS job keys
  // records by global line number, which is exactly the point index. ----
  result.lsh_job = mapreduce::run_job_dfs(
      make_stage1_spec<TextSignatureMapper>(params, setup.hasher), dfs,
      input_path, output_path + "/_stage1");

  finish_pipeline(points, params, setup, result);
  result.real_seconds = total_clock.seconds();

  // Persist the final assignment.
  std::vector<std::string> out_lines;
  out_lines.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out_lines.push_back(std::to_string(i) + "\t" +
                        std::to_string(result.labels[i]));
  }
  dfs.write_file(output_path + "/part-r-00000", out_lines);
  return result;
}

namespace {

void finish_pipeline(const data::PointSet& points,
                     const MapReduceDascParams& params,
                     const DriverSetup& setup, MapReduceDascResult& result) {
  const std::size_t n = points.size();
  const std::size_t m = setup.m;
  const double sigma = setup.sigma;

  // ---- Bucket merge between stages (Eq. 6 / star merge). ----
  // Read the per-point signatures from stage 1's output, rebuild the bucket
  // table over them (identical to the in-process path, since points are
  // revisited in index order), and merge near-duplicate buckets.
  const mapreduce::JobOutput& stage1 = result.lsh_job.output;
  const lsh::BucketTable table = lsh::BucketTable::from_signatures(
      read_stage1_signatures(stage1, n), m, params.dasc.metrics);
  const std::vector<lsh::Bucket> merged =
      merge_buckets(points, table, params.dasc, &result.stats);

  // Balanced-split children share the parent signature, so the reduce key
  // carries the bucket ordinal to keep the groups distinct.
  DASC_ENSURE(merged.size() <= UINT32_MAX,
              "dasc_cluster_mapreduce: bucket ordinal exceeds u32");
  BucketKeys keys;
  keys.ordinal.resize(n);
  keys.key.reserve(merged.size());
  for (std::size_t b = 0; b < merged.size(); ++b) {
    keys.key.push_back(lsh::to_string(merged[b].signature, m) + "#" +
                       std::to_string(b));
    for (std::size_t point_index : merged[b].indices) {
      keys.ordinal[point_index] = static_cast<std::uint32_t>(b);
    }
  }
  // Eq. 12 bytes under the run's backend policy (identical to the dense
  // sum-Ni^2 accounting when every bucket selects the dense backend).
  result.stats.gram_bytes =
      EmbedderSet(params.dasc, sigma).total_gram_bytes(merged, points.dim());

  // ---- Stage 2: per-bucket similarity + spectral clustering. ----
  // Its input is one member per stage-1 record, in stage 1's output order:
  // each (signature, index) record becomes ("", index + point). The point
  // indices are gathered in parallel, each part from its own offset; stage
  // 1's output is released, and the splits are framed before stage 2 runs.
  std::vector<std::size_t> part_begin(stage1.num_parts() + 1, 0);
  for (std::size_t p = 0; p < stage1.num_parts(); ++p) {
    part_begin[p + 1] = part_begin[p] + stage1.part_size(p);
  }
  std::vector<std::uint64_t> order(n);
  parallel_for(0, stage1.num_parts(), params.dasc.threads, [&](std::size_t p) {
    std::size_t next = part_begin[p];
    for_each_record_frame(stage1.part(p),
                          [&](std::string_view, std::string_view value) {
                            order[next++] = load_u64(value.data());
                          });
  });
  result.lsh_job.output = mapreduce::JobOutput();
  std::vector<mapreduce::RecordRun> members =
      member_splits(points, n, params.conf.split_records, params.dasc.threads,
                    [&order](std::size_t i) { return order[i]; });
  std::vector<std::uint64_t>().swap(order);
  mapreduce::JobSpec cluster_spec;
  cluster_spec.conf = with_spill(params.conf, params.dasc);
  cluster_spec.conf.job_name = "dasc-cluster";
  cluster_spec.conf.enable_combiner = false;
  cluster_spec.mapper_factory =
      [keys = std::make_shared<const BucketKeys>(std::move(keys))] {
        return std::make_unique<BucketKeyMapper>(keys);
      };
  const std::size_t global_k = result.requested_k;
  const DascParams dasc = params.dasc;
  cluster_spec.reducer_factory = [=] {
    return std::make_unique<BucketClusterReducer>(dasc, sigma, global_k, n);
  };
  cluster_spec.metrics = params.dasc.metrics;
  cluster_spec.faults = params.dasc.faults;
  result.cluster_job =
      mapreduce::run_job_splits(cluster_spec, std::move(members));

  // ---- Densify (bucket ordinal, local label) pairs into labels. ----
  result.labels.assign(n, 0);
  std::unordered_map<std::uint64_t, int> cluster_ids;
  const auto densify = [&](std::string_view key, std::string_view value) {
    DASC_ENSURE(key.size() == kWord && value.size() == kWord,
                "dasc_cluster_mapreduce: malformed stage-2 record");
    const std::uint64_t index = load_u64(key.data());
    DASC_ENSURE(index < n, "dasc_cluster_mapreduce: bad output index");
    auto [it, inserted] = cluster_ids.try_emplace(
        load_u64(value.data()), static_cast<int>(cluster_ids.size()));
    result.labels[index] = it->second;
  };
  result.cluster_job.output.for_each(densify);
  result.num_clusters = cluster_ids.size();

  result.simulated_seconds =
      result.lsh_job.simulated_seconds + result.cluster_job.simulated_seconds;
}

}  // namespace

}  // namespace dasc::core
