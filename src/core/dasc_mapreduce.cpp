#include "core/dasc_mapreduce.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdint>
#include <memory>
#include <string_view>
#include <unordered_map>

#include "clustering/kernel.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/stopwatch.hpp"
#include "core/bucket_embedder.hpp"
#include "core/bucket_pipeline.hpp"
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

}  // namespace

std::string encode_member(std::size_t index, std::span<const double> point) {
  std::string value(kWord * (1 + point.size()), '\0');
  store_u64(value.data(), index);
  for (std::size_t d = 0; d < point.size(); ++d) {
    store_u64(value.data() + kWord * (d + 1),
              std::bit_cast<std::uint64_t>(point[d]));
  }
  return value;
}

std::pair<std::size_t, std::vector<double>> decode_member(
    const std::string& value) {
  std::vector<double> point(member_dim(value));
  const std::size_t index = read_member(value, point);
  return {index, std::move(point)};
}

namespace {

/// Algorithm 1: per-record signature generation with broadcast hash
/// parameters (one hasher copy per map task). Emits (packed signature,
/// member value), passing the member value through unchanged.
class SignatureMapper final : public mapreduce::Mapper {
 public:
  explicit SignatureMapper(lsh::RandomProjectionHasher hasher)
      : hasher_(std::move(hasher)) {}

  void map(const std::string& /*key*/, const std::string& value,
           mapreduce::Emitter& out) override {
    point_.resize(member_dim(value));
    read_member(value, point_);
    out.emit(u64_bytes(hasher_.hash(point_).bits), value);
  }

 private:
  lsh::RandomProjectionHasher hasher_;
  std::vector<double> point_;  ///< reused decode buffer
};

/// Algorithm 1 over a DFS text file: the key is the global line number and
/// the value a point_to_record line, parsed once into the member value.
class TextSignatureMapper final : public mapreduce::Mapper {
 public:
  explicit TextSignatureMapper(lsh::RandomProjectionHasher hasher)
      : hasher_(std::move(hasher)) {}

  void map(const std::string& key, const std::string& value,
           mapreduce::Emitter& out) override {
    const std::vector<double> point = data::record_to_point(value);
    out.emit(u64_bytes(hasher_.hash(point).bits),
             encode_member(parse_u64(key, "DFS line number"), point));
  }

 private:
  lsh::RandomProjectionHasher hasher_;
};

/// Identity reducer: stage 1 only groups members per signature.
class IdentityReducer final : public mapreduce::Reducer {
 public:
  void reduce(const std::string& key, const std::vector<std::string>& values,
              mapreduce::Emitter& out) override {
    for (const auto& value : values) out.emit(key, value);
  }
};

/// Identity mapper for stage 2 (buckets were already formed).
class IdentityMapper final : public mapreduce::Mapper {
 public:
  void map(const std::string& key, const std::string& value,
           mapreduce::Emitter& out) override {
    out.emit(key, value);
  }
};

/// Algorithm 2 plus the spectral step: one bucket per reduce group. The
/// Gram build + cluster + discard runs through the shared bucket pipeline
/// (one task, one-block budget), so the reduce stage exercises the exact
/// orchestration path of the in-process drivers.
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
    const std::size_t n = values.size();
    std::vector<std::uint64_t> indices(n);
    data::PointSet group(n, member_dim(values.front()));
    for (std::size_t i = 0; i < n; ++i) {
      DASC_EXPECT(member_dim(values[i]) == group.dim(),
                  "BucketClusterReducer: ragged bucket records");
      indices[i] = read_member(values[i], group.point(i));
    }

    // One pipeline task over the whole reduce group: build the bucket's
    // sub-similarity matrix (Algorithm 2, Eq. 1), cluster, discard. Seed
    // derived from the bucket key so results are independent of which
    // reduce task processes the bucket.
    std::vector<lsh::Bucket> buckets(1);
    buckets[0].indices.resize(n);
    for (std::size_t i = 0; i < n; ++i) buckets[0].indices[i] = i;
    BucketJob job;
    job.index = 0;
    job.seed = dasc_.seed ^ std::hash<std::string>{}(key);
    job.k_bucket = bucket_cluster_count(global_k_, n, total_points_);
    job.label_offset = 0;

    const EmbedderSet embedder_set(dasc_, sigma_);
    BucketPipelineOptions options;
    options.sigma = sigma_;
    options.threads = 1;  // the reducer is already one parallel task
    options.max_inflight_blocks = 1;
    options.spill_budget_bytes = dasc_.spill_budget_bytes;
    options.spill_dir = dasc_.spill_dir;
    options.metrics = dasc_.metrics;
    options.faults = dasc_.faults;
    options.max_bucket_attempts = dasc_.max_bucket_attempts;
    options.embedders = embedder_set.plan(buckets);
    std::vector<int> local;
    run_bucket_pipeline(
        group, buckets, {job}, options,
        [&](linalg::DenseMatrix&& block, const lsh::Bucket& task_bucket,
            const BucketJob& task) {
          Rng rng(task.seed);
          local = options.embedders[0]
                      ->fit_with_block(group, task_bucket.indices,
                                       task.k_bucket, rng,
                                       /*want_factor=*/false, std::move(block))
                      .fit.labels;
        });

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

/// Everything after stage 1: bucket merge, balancing, stage 2, densify.
/// `result` arrives with lsh_job populated.
void finish_pipeline(const data::PointSet& points,
                     const MapReduceDascParams& params, std::size_t m,
                     std::size_t p, double sigma,
                     MapReduceDascResult& result);

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
  DASC_EXPECT(params.dasc.family == HashFamily::kRandomProjection,
              "dasc_cluster_mapreduce: only random projection is supported");
  Stopwatch total_clock;

  MapReduceDascResult result;
  const std::size_t n = points.size();
  const std::size_t m = resolve_signature_bits(params.dasc, n);
  const std::size_t p = resolve_merge_bits(params.dasc, m);
  result.requested_k = resolve_cluster_count(params.dasc, n);
  const double sigma = params.dasc.sigma > 0.0
                           ? params.dasc.sigma
                           : clustering::suggest_bandwidth(points);

  // Driver-side fit of the hash parameters (the paper computes spans and
  // thresholds over the dataset, then broadcasts them to mappers).
  const lsh::RandomProjectionHasher hasher = lsh::RandomProjectionHasher::fit(
      points, m, params.dasc.selection, rng);

  // ---- Stage 1: LSH signatures (Algorithm 1). ----
  std::vector<mapreduce::Record> input;
  input.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    input.push_back({std::string(), encode_member(i, points.point(i))});
  }
  result.lsh_job = mapreduce::run_job(
      make_stage1_spec<SignatureMapper>(params, hasher), input);

  finish_pipeline(points, params, m, p, sigma, result);
  result.real_seconds = total_clock.seconds();
  return result;
}

MapReduceDascResult dasc_cluster_mapreduce_dfs(
    mapreduce::Dfs& dfs, const std::string& input_path,
    const std::string& output_path, const MapReduceDascParams& params,
    Rng& rng) {
  DASC_EXPECT(params.dasc.family == HashFamily::kRandomProjection,
              "dasc_cluster_mapreduce_dfs: only random projection supported");
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
  const std::size_t m = resolve_signature_bits(params.dasc, n);
  const std::size_t p = resolve_merge_bits(params.dasc, m);
  result.requested_k = resolve_cluster_count(params.dasc, n);
  const double sigma = params.dasc.sigma > 0.0
                           ? params.dasc.sigma
                           : clustering::suggest_bandwidth(points);
  const lsh::RandomProjectionHasher hasher = lsh::RandomProjectionHasher::fit(
      points, m, params.dasc.selection, rng);

  // ---- Stage 1 over DFS blocks (data-local splits). The DFS job keys
  // records by global line number, which is exactly the point index. ----
  result.lsh_job = mapreduce::run_job_dfs(
      make_stage1_spec<TextSignatureMapper>(params, hasher), dfs, input_path,
      output_path + "/_stage1");

  finish_pipeline(points, params, m, p, sigma, result);
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
                     const MapReduceDascParams& params, std::size_t m,
                     std::size_t p, double sigma,
                     MapReduceDascResult& result) {
  const std::size_t n = points.size();

  // ---- Bucket merge between stages (Eq. 6 / star merge). ----
  // Reassemble the per-point signatures from stage 1's output, rebuild the
  // bucket table over them (identical to the in-process path, since points
  // are revisited in index order), and merge near-duplicate buckets.
  std::vector<lsh::Signature> signatures(n);
  std::vector<std::string> member_payload(n);
  for (auto& record : result.lsh_job.output) {
    DASC_ENSURE(record.key.size() == kWord && record.value.size() >= kWord,
                "dasc_cluster_mapreduce: malformed stage-1 record");
    const std::uint64_t index = load_u64(record.value.data());
    DASC_ENSURE(index < n, "dasc_cluster_mapreduce: bad stage-1 index");
    signatures[index].bits = load_u64(record.key.data());
    member_payload[index] = std::move(record.value);
  }
  const lsh::BucketTable table =
      lsh::BucketTable::from_signatures(signatures, m, params.dasc.metrics);
  const lsh::MergeStrategy strategy =
      p == m ? lsh::MergeStrategy::kNone : params.dasc.merge;
  std::vector<lsh::Bucket> merged =
      table.merged_buckets(p, strategy, params.dasc.metrics);
  if (params.dasc.max_bucket_points > 0) {
    ScopedTimer balance_timer(params.dasc.metrics, "lsh.bucketing");
    merged = balance_buckets(
        points, std::move(merged),
        std::max<std::size_t>(params.dasc.max_bucket_points, 2));
  }

  std::vector<mapreduce::Record> stage2_input;
  stage2_input.reserve(n);
  std::size_t gram_entries = 0;
  result.stats.signature_bits = m;
  result.stats.merge_bits = p;
  result.stats.raw_buckets = table.raw_bucket_count();
  result.stats.merged_buckets = merged.size();
  for (std::size_t b = 0; b < merged.size(); ++b) {
    const auto& bucket = merged[b];
    // Balanced-split children share the parent signature, so the reduce
    // key carries the bucket ordinal to keep the groups distinct.
    const std::string merged_key =
        lsh::to_string(bucket.signature, m) + "#" + std::to_string(b);
    for (std::size_t point_index : bucket.indices) {
      stage2_input.push_back(
          {merged_key, std::move(member_payload[point_index])});
    }
    gram_entries += bucket.indices.size() * bucket.indices.size();
    result.stats.largest_bucket =
        std::max(result.stats.largest_bucket, bucket.indices.size());
  }
  // Eq. 12 bytes under the run's backend policy (identical to the dense
  // sum-Ni^2 accounting when every bucket selects the dense backend).
  result.stats.gram_bytes =
      EmbedderSet(params.dasc, sigma).total_gram_bytes(merged, points.dim());
  result.stats.full_gram_bytes = linalg::gram_entry_bytes(n * n);
  result.stats.fill_ratio = static_cast<double>(gram_entries) /
                            (static_cast<double>(n) * static_cast<double>(n));

  // ---- Stage 2: per-bucket similarity + spectral clustering. ----
  mapreduce::JobSpec cluster_spec;
  cluster_spec.conf = with_spill(params.conf, params.dasc);
  cluster_spec.conf.job_name = "dasc-cluster";
  cluster_spec.conf.enable_combiner = false;
  cluster_spec.mapper_factory = [] {
    return std::make_unique<IdentityMapper>();
  };
  const std::size_t global_k = result.requested_k;
  const DascParams dasc = params.dasc;
  cluster_spec.reducer_factory = [=] {
    return std::make_unique<BucketClusterReducer>(dasc, sigma, global_k, n);
  };
  cluster_spec.metrics = params.dasc.metrics;
  cluster_spec.faults = params.dasc.faults;
  result.cluster_job = mapreduce::run_job(cluster_spec, stage2_input);

  // ---- Densify (bucket ordinal, local label) pairs into labels. ----
  result.labels.assign(n, 0);
  std::unordered_map<std::uint64_t, int> cluster_ids;
  for (const auto& record : result.cluster_job.output) {
    DASC_ENSURE(record.key.size() == kWord && record.value.size() == kWord,
                "dasc_cluster_mapreduce: malformed stage-2 record");
    const std::uint64_t index = load_u64(record.key.data());
    DASC_ENSURE(index < n, "dasc_cluster_mapreduce: bad output index");
    auto [it, inserted] = cluster_ids.try_emplace(
        load_u64(record.value.data()), static_cast<int>(cluster_ids.size()));
    result.labels[index] = it->second;
  }
  result.num_clusters = cluster_ids.size();

  result.simulated_seconds =
      result.lsh_job.simulated_seconds + result.cluster_job.simulated_seconds;
}

}  // namespace

}  // namespace dasc::core
