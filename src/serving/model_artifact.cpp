#include "serving/model_artifact.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <fstream>
#include <span>
#include <utility>

#include "common/checksum.hpp"
#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "core/bucket_pipeline.hpp"
#include "core/kernel_approximator.hpp"
#include "lsh/random_projection.hpp"

namespace dasc::serving {

namespace {

constexpr char kMagic[8] = {'D', 'A', 'S', 'C', 'M', 'D', 'L', '1'};

enum SectionId : std::uint32_t {
  kSectionHasher = 1,
  kSectionMeta = 2,
  kSectionRoutes = 3,
  kSectionBuckets = 4,
  kSectionFactors = 5,  // since format version 2
};

/// Sections a given format version carries, in order.
std::uint32_t section_count_for(std::uint32_t version) {
  return version >= 2 ? 5 : 4;
}

using dasc::crc32;  // shared CRC-32 (common/checksum.hpp); the artifact
                    // format predates it, and the bytes are identical

/// Append-only little-endian byte sink.
class Writer {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) {
    for (int b = 0; b < 4; ++b) bytes_.push_back(char((v >> (8 * b)) & 0xFF));
  }
  void u64(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) bytes_.push_back(char((v >> (8 * b)) & 0xFF));
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void f64_span(std::span<const double> values) {
    for (double v : values) f64(v);
  }
  const std::string& bytes() const { return bytes_; }

 private:
  std::string bytes_;
};

/// Bounds-checked little-endian reader over a loaded payload.
class Reader {
 public:
  Reader(const std::string& bytes, const std::string& path)
      : bytes_(bytes), path_(path) {}

  std::uint8_t u8() {
    require(1, "u8");
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }
  std::uint32_t u32() {
    require(4, "u32");
    std::uint32_t v = 0;
    for (int b = 0; b < 4; ++b) {
      v |= std::uint32_t(static_cast<unsigned char>(bytes_[pos_ + b]))
           << (8 * b);
    }
    pos_ += 4;
    return v;
  }
  std::uint64_t u64() {
    require(8, "u64");
    std::uint64_t v = 0;
    for (int b = 0; b < 8; ++b) {
      v |= std::uint64_t(static_cast<unsigned char>(bytes_[pos_ + b]))
           << (8 * b);
    }
    pos_ += 8;
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  double f64() { return std::bit_cast<double>(u64()); }
  void f64_fill(std::span<double> out) {
    for (double& v : out) v = f64();
  }
  void skip(std::size_t n) {
    require(n, "skip");
    pos_ += n;
  }
  std::string slice(std::size_t n) {
    require(n, "section payload");
    std::string out = bytes_.substr(pos_, n);
    pos_ += n;
    return out;
  }
  bool done() const { return pos_ == bytes_.size(); }
  std::size_t pos() const { return pos_; }

  [[noreturn]] void fail(const std::string& what) const {
    throw IoError("model artifact " + path_ + ": " + what);
  }

 private:
  void require(std::size_t n, const char* what) {
    if (bytes_.size() - pos_ < n) {
      fail(std::string("truncated payload while reading ") + what);
    }
  }

  const std::string& bytes_;
  const std::string& path_;
  std::size_t pos_ = 0;
};

Writer encode_hasher(const ModelArtifact& model) {
  Writer w;
  w.u64(model.dim);
  w.u64(model.hash_dims.size());
  for (std::uint64_t d : model.hash_dims) w.u64(d);
  w.f64_span(model.hash_thresholds);
  return w;
}

Writer encode_meta(const ModelArtifact& model) {
  Writer w;
  w.u64(model.train_points);
  w.u64(model.num_clusters);
  w.u64(model.requested_k);
  w.u64(model.signature_bits);
  w.u64(model.merge_bits);
  w.f64(model.sigma);
  return w;
}

Writer encode_routes(const ModelArtifact& model) {
  Writer w;
  w.u64(model.routes.size());
  for (const RouteEntry& route : model.routes) {
    w.u64(route.signature);
    w.u32(route.bucket);
  }
  return w;
}

Writer encode_buckets(const ModelArtifact& model) {
  Writer w;
  w.u64(model.buckets.size());
  for (const BucketModel& bucket : model.buckets) {
    const std::size_t landmarks = bucket.landmarks.rows();
    w.u64(bucket.signature.bits);
    w.u64(bucket.label_offset);
    w.u64(bucket.member_count);
    w.u64(landmarks);
    w.u64(bucket.k_eff);
    for (std::size_t i = 0; i < landmarks; ++i) {
      w.f64_span(bucket.landmarks.row(i));
    }
    for (std::int32_t label : bucket.landmark_labels) w.i32(label);
    w.f64_span(bucket.degrees);
    w.f64_span(bucket.eigenvalues);
    for (std::size_t i = 0; i < bucket.eigenvectors.rows(); ++i) {
      w.f64_span(bucket.eigenvectors.row(i));
    }
    for (std::size_t i = 0; i < bucket.centroids.rows(); ++i) {
      w.f64_span(bucket.centroids.row(i));
    }
  }
  return w;
}

bool bucket_has_factor(const BucketModel& bucket) {
  switch (bucket.backend) {
    case core::GramBackend::kNystrom:
      return bucket.nystrom.map.rows() > 0;
    case core::GramBackend::kRbfBinning:
      return bucket.binning.map.rows() > 0;
    case core::GramBackend::kDense:
      break;
  }
  return false;
}

Writer encode_factors(const ModelArtifact& model) {
  Writer w;
  w.u64(model.buckets.size());
  for (const BucketModel& bucket : model.buckets) {
    w.u8(static_cast<std::uint8_t>(bucket.backend));
    const bool has_factor = bucket_has_factor(bucket);
    w.u8(has_factor ? 1 : 0);
    if (!has_factor) continue;
    if (bucket.backend == core::GramBackend::kNystrom) {
      const auto& f = bucket.nystrom;
      w.u64(f.anchors.rows());
      w.u64(f.map.cols());
      for (std::size_t i = 0; i < f.anchors.rows(); ++i) {
        w.f64_span(f.anchors.row(i));
      }
      for (std::size_t i = 0; i < f.map.rows(); ++i) w.f64_span(f.map.row(i));
      w.f64_span(f.dvec);
    } else {
      const auto& f = bucket.binning;
      w.u64(f.widths.rows());
      w.u64(f.features);
      w.u64(f.hash_seed);
      w.u64(f.map.cols());
      for (std::size_t i = 0; i < f.widths.rows(); ++i) {
        w.f64_span(f.widths.row(i));
      }
      for (std::size_t i = 0; i < f.shifts.rows(); ++i) {
        w.f64_span(f.shifts.row(i));
      }
      for (std::size_t i = 0; i < f.map.rows(); ++i) w.f64_span(f.map.row(i));
      w.f64_span(f.dvec);
    }
  }
  return w;
}

void decode_hasher(Reader& r, ModelArtifact& model) {
  model.dim = r.u64();
  const std::uint64_t bits = r.u64();
  if (bits == 0 || bits > lsh::kMaxSignatureBits) {
    r.fail("hasher section has invalid signature width");
  }
  model.hash_dims.resize(bits);
  for (std::uint64_t& d : model.hash_dims) d = r.u64();
  model.hash_thresholds.resize(bits);
  r.f64_fill(model.hash_thresholds);
  for (std::uint64_t d : model.hash_dims) {
    if (d >= model.dim) r.fail("hasher dimension index out of range");
  }
}

void decode_meta(Reader& r, ModelArtifact& model) {
  model.train_points = r.u64();
  model.num_clusters = r.u64();
  model.requested_k = r.u64();
  model.signature_bits = r.u64();
  model.merge_bits = r.u64();
  model.sigma = r.f64();
  if (model.signature_bits != model.hash_dims.size()) {
    r.fail("meta signature width disagrees with hasher section");
  }
  if (!(model.sigma > 0.0)) r.fail("meta has non-positive sigma");
}

void decode_routes(Reader& r, ModelArtifact& model) {
  const std::uint64_t count = r.u64();
  model.routes.resize(count);
  for (RouteEntry& route : model.routes) {
    route.signature = r.u64();
    route.bucket = r.u32();
  }
}

void decode_buckets(Reader& r, ModelArtifact& model) {
  const std::uint64_t count = r.u64();
  model.buckets.resize(count);
  for (BucketModel& bucket : model.buckets) {
    bucket.signature.bits = r.u64();
    bucket.label_offset = r.u64();
    bucket.member_count = r.u64();
    const std::uint64_t landmarks = r.u64();
    bucket.k_eff = r.u64();
    if (landmarks == 0) r.fail("bucket has zero landmarks");
    bucket.landmarks = linalg::DenseMatrix(landmarks, model.dim);
    for (std::uint64_t i = 0; i < landmarks; ++i) {
      r.f64_fill(bucket.landmarks.row(i));
    }
    bucket.landmark_labels.resize(landmarks);
    for (std::int32_t& label : bucket.landmark_labels) label = r.i32();
    bucket.degrees.resize(landmarks);
    r.f64_fill(bucket.degrees);
    bucket.eigenvalues.resize(bucket.k_eff);
    r.f64_fill(bucket.eigenvalues);
    bucket.eigenvectors =
        linalg::DenseMatrix(bucket.k_eff > 0 ? landmarks : 0, bucket.k_eff);
    for (std::size_t i = 0; i < bucket.eigenvectors.rows(); ++i) {
      r.f64_fill(bucket.eigenvectors.row(i));
    }
    bucket.centroids = linalg::DenseMatrix(bucket.k_eff, bucket.k_eff);
    for (std::size_t i = 0; i < bucket.centroids.rows(); ++i) {
      r.f64_fill(bucket.centroids.row(i));
    }
  }
  for (const RouteEntry& route : model.routes) {
    if (route.bucket >= model.buckets.size()) {
      r.fail("route entry points past the bucket table");
    }
  }
}

void decode_factors(Reader& r, ModelArtifact& model) {
  const std::uint64_t count = r.u64();
  if (count != model.buckets.size()) {
    r.fail("factor section bucket count disagrees with bucket section");
  }
  for (BucketModel& bucket : model.buckets) {
    const std::uint8_t tag = r.u8();
    if (tag > static_cast<std::uint8_t>(core::GramBackend::kRbfBinning)) {
      r.fail("unknown Gram backend tag " + std::to_string(tag));
    }
    bucket.backend = static_cast<core::GramBackend>(tag);
    const std::uint8_t has_factor = r.u8();
    if (has_factor > 1) r.fail("invalid factor-presence flag");
    if (has_factor == 0) continue;
    if (bucket.backend == core::GramBackend::kDense) {
      r.fail("dense bucket carries a factor payload");
    }
    if (bucket.k_eff == 0) {
      r.fail("trivial bucket carries a factor payload");
    }
    if (bucket.backend == core::GramBackend::kNystrom) {
      auto& f = bucket.nystrom;
      const std::uint64_t anchors = r.u64();
      const std::uint64_t cols = r.u64();
      if (anchors == 0) r.fail("nystrom factor has zero anchors");
      if (cols != bucket.k_eff) {
        r.fail("nystrom factor width disagrees with bucket k_eff");
      }
      f.anchors = linalg::DenseMatrix(anchors, model.dim);
      for (std::uint64_t i = 0; i < anchors; ++i) {
        r.f64_fill(f.anchors.row(i));
      }
      f.map = linalg::DenseMatrix(anchors, cols);
      for (std::uint64_t i = 0; i < anchors; ++i) r.f64_fill(f.map.row(i));
      f.dvec.resize(anchors);
      r.f64_fill(f.dvec);
    } else {
      auto& f = bucket.binning;
      const std::uint64_t reps = r.u64();
      f.features = r.u64();
      f.hash_seed = r.u64();
      const std::uint64_t cols = r.u64();
      if (reps == 0) r.fail("binning factor has zero repetitions");
      if (f.features == 0) r.fail("binning factor has zero features");
      if (cols != bucket.k_eff) {
        r.fail("binning factor width disagrees with bucket k_eff");
      }
      f.widths = linalg::DenseMatrix(reps, model.dim);
      for (std::uint64_t i = 0; i < reps; ++i) r.f64_fill(f.widths.row(i));
      f.shifts = linalg::DenseMatrix(reps, model.dim);
      for (std::uint64_t i = 0; i < reps; ++i) r.f64_fill(f.shifts.row(i));
      f.map = linalg::DenseMatrix(f.features, cols);
      for (std::uint64_t i = 0; i < f.features; ++i) r.f64_fill(f.map.row(i));
      f.dvec.resize(f.features);
      r.f64_fill(f.dvec);
    }
  }
}

}  // namespace

void save_model(const ModelArtifact& model, const std::string& path,
                std::uint32_t format_version) {
  if (format_version == 0 || format_version > kFormatVersion) {
    throw IoError("model artifact " + path + ": cannot write format version " +
                  std::to_string(format_version));
  }
  if (format_version < 2) {
    // The legacy layout has no backend/factor encoding; exporting a
    // factored model as version 1 would silently drop serving state.
    for (const BucketModel& bucket : model.buckets) {
      if (bucket.backend != core::GramBackend::kDense ||
          bucket_has_factor(bucket)) {
        throw IoError("model artifact " + path +
                      ": version 1 cannot encode non-dense bucket backends");
      }
    }
  }

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw IoError("model artifact " + path + ": cannot open for write");

  out.write(kMagic, sizeof(kMagic));
  Writer header;
  header.u32(format_version);
  header.u32(section_count_for(format_version));
  out.write(header.bytes().data(),
            static_cast<std::streamsize>(header.bytes().size()));

  std::vector<std::pair<std::uint32_t, Writer>> sections;
  sections.emplace_back(kSectionHasher, encode_hasher(model));
  sections.emplace_back(kSectionMeta, encode_meta(model));
  sections.emplace_back(kSectionRoutes, encode_routes(model));
  sections.emplace_back(kSectionBuckets, encode_buckets(model));
  if (format_version >= 2) {
    sections.emplace_back(kSectionFactors, encode_factors(model));
  }
  for (const auto& [id, payload] : sections) {
    Writer frame;
    frame.u32(id);
    frame.u64(payload.bytes().size());
    out.write(frame.bytes().data(),
              static_cast<std::streamsize>(frame.bytes().size()));
    out.write(payload.bytes().data(),
              static_cast<std::streamsize>(payload.bytes().size()));
    Writer crc;
    crc.u32(crc32(payload.bytes()));
    out.write(crc.bytes().data(),
              static_cast<std::streamsize>(crc.bytes().size()));
  }
  out.flush();
  if (!out) throw IoError("model artifact " + path + ": write failed");
}

ModelArtifact load_model(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("model artifact " + path + ": cannot open");
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());

  Reader body(bytes, path);
  if (bytes.size() < sizeof(kMagic)) {
    body.fail("truncated before magic header");
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    body.fail("bad magic (not a DASC model artifact)");
  }
  body.skip(sizeof(kMagic));
  const std::uint32_t version = body.u32();
  if (version > kFormatVersion) {
    body.fail("format version " + std::to_string(version) +
              " is newer than supported version " +
              std::to_string(kFormatVersion));
  }
  const std::uint32_t sections = body.u32();
  if (sections != section_count_for(version)) {
    body.fail("expected " + std::to_string(section_count_for(version)) +
              " sections, found " + std::to_string(sections));
  }

  ModelArtifact model;
  std::vector<std::uint32_t> expected_ids = {kSectionHasher, kSectionMeta,
                                             kSectionRoutes, kSectionBuckets};
  if (version >= 2) expected_ids.push_back(kSectionFactors);
  for (std::uint32_t id : expected_ids) {
    const std::uint32_t got = body.u32();
    if (got != id) {
      body.fail("unexpected section id " + std::to_string(got) +
                " (expected " + std::to_string(id) + ")");
    }
    const std::uint64_t size = body.u64();
    if (bytes.size() - body.pos() < size) {
      body.fail("truncated section " + std::to_string(id));
    }
    const std::string payload = body.slice(size);
    const std::uint32_t stored_crc = body.u32();
    if (stored_crc != crc32(payload)) {
      body.fail("CRC mismatch in section " + std::to_string(id));
    }
    Reader section(payload, path);
    switch (id) {
      case kSectionHasher:
        decode_hasher(section, model);
        break;
      case kSectionMeta:
        decode_meta(section, model);
        break;
      case kSectionRoutes:
        decode_routes(section, model);
        break;
      case kSectionBuckets:
        decode_buckets(section, model);
        break;
      case kSectionFactors:
        decode_factors(section, model);
        break;
      default:
        body.fail("unknown section id");
    }
    if (!section.done()) {
      body.fail("section " + std::to_string(id) + " has trailing bytes");
    }
  }
  if (!body.done()) body.fail("trailing bytes after final section");
  return model;
}

namespace {

BucketModel build_bucket_model(const data::PointSet& points,
                               const lsh::Bucket& bucket,
                               const core::BucketJob& job,
                               core::BucketEmbedding&& embedding,
                               std::size_t max_landmarks) {
  const clustering::SpectralGramDetail& fit = embedding.fit;
  const std::size_t members = bucket.indices.size();
  const std::size_t dim = points.dim();

  BucketModel bm;
  bm.signature = bucket.signature;
  bm.label_offset = job.label_offset;
  bm.member_count = members;
  bm.backend = embedding.backend;

  const std::size_t landmarks =
      (max_landmarks == 0 || max_landmarks >= members) ? members
                                                       : max_landmarks;
  // Deterministic stride subsample over the bucket's (sorted) members.
  std::vector<std::size_t> picks(landmarks);
  for (std::size_t i = 0; i < landmarks; ++i) {
    picks[i] = i * members / landmarks;
  }

  bm.landmarks = linalg::DenseMatrix(landmarks, dim);
  bm.landmark_labels.resize(landmarks);
  bm.degrees.assign(landmarks, 0.0);
  for (std::size_t i = 0; i < landmarks; ++i) {
    const std::size_t local = picks[i];
    const auto src = points.point(bucket.indices[local]);
    std::copy(src.begin(), src.end(), bm.landmarks.row(i).begin());
    bm.landmark_labels[i] = static_cast<std::int32_t>(
        job.label_offset + static_cast<std::size_t>(fit.labels[local]));
  }

  if (fit.k > 0) {
    bm.k_eff = fit.k;
    bm.eigenvalues = fit.spectral.eigenvalues;
    bm.eigenvectors = linalg::DenseMatrix(landmarks, fit.k);
    for (std::size_t i = 0; i < landmarks; ++i) {
      const auto src = fit.spectral.eigenvectors.row(picks[i]);
      std::copy(src.begin(), src.end(), bm.eigenvectors.row(i).begin());
      bm.degrees[i] = fit.spectral.degrees[picks[i]];
    }
    bm.centroids = linalg::DenseMatrix(fit.k, fit.k);
    for (std::size_t c = 0; c < fit.k; ++c) {
      std::copy(fit.centroids[c].begin(), fit.centroids[c].end(),
                bm.centroids.row(c).begin());
    }
    // The factored serving state rides along as-is: out-of-sample queries
    // route through it, training queries stay on the exact-landmark path.
    bm.nystrom = std::move(embedding.nystrom);
    bm.binning = std::move(embedding.binning);
  }
  return bm;
}

}  // namespace

FitResult fit_model(const data::PointSet& points,
                    const core::DascParams& params, Rng& rng,
                    const FitOptions& options) {
  DASC_EXPECT(!points.empty(), "fit_model: empty dataset");
  DASC_EXPECT(params.family == core::HashFamily::kRandomProjection,
              "fit_model: only random-projection hashing has a serializable "
              "signature spec");
  Stopwatch total_clock;

  FitResult out;
  core::DascResult& result = out.offline;
  result.requested_k = core::resolve_cluster_count(params, points.size());

  // Identical flow (and RNG stream) to dasc_cluster: bucket, plan, run the
  // fused pipeline — additionally capturing the fitted hasher and the
  // per-bucket spectral/K-means state.
  std::unique_ptr<lsh::LshHasher> hasher;
  const std::vector<lsh::Bucket> buckets =
      core::bucket_points(points, params, rng, &result.stats, &hasher);
  const double sigma = core::resolve_bandwidth(params, points);
  const std::vector<core::BucketJob> jobs =
      core::plan_bucket_jobs(buckets, result.requested_k, points.size(), rng);
  result.num_clusters = core::total_label_count(jobs);

  const auto* projection =
      dynamic_cast<const lsh::RandomProjectionHasher*>(hasher.get());
  DASC_ENSURE(projection != nullptr,
              "fit_model: random-projection family produced a different "
              "hasher type");

  ModelArtifact& model = out.model;
  model.dim = points.dim();
  model.train_points = points.size();
  model.num_clusters = result.num_clusters;
  model.requested_k = result.requested_k;
  model.signature_bits = result.stats.signature_bits;
  model.merge_bits = result.stats.merge_bits;
  model.sigma = sigma;
  model.hash_dims.assign(projection->dimensions().begin(),
                         projection->dimensions().end());
  model.hash_thresholds = projection->thresholds();
  model.buckets.resize(buckets.size());

  Stopwatch cluster_clock;
  result.labels = core::cluster_buckets(
      points, buckets, jobs, params, sigma, result.stats,
      [&](const core::BucketJob& job, core::BucketEmbedding&& embedding) {
        model.buckets[job.index] =
            build_bucket_model(points, buckets[job.index], job,
                               std::move(embedding), options.max_landmarks);
      });
  result.cluster_seconds = cluster_clock.seconds();

  // Raw-signature routing table: every signature observed at fit time maps
  // to the merged (and possibly balance-split) bucket its points landed in,
  // so a training query re-finds its exact bucket without replaying the
  // merge heuristics.
  std::vector<RouteEntry> routes;
  routes.reserve(buckets.size());
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    for (std::size_t idx : buckets[b].indices) {
      routes.push_back({projection->hash(points.point(idx)).bits,
                        static_cast<std::uint32_t>(b)});
    }
  }
  std::sort(routes.begin(), routes.end(),
            [](const RouteEntry& a, const RouteEntry& b) {
              return a.signature != b.signature ? a.signature < b.signature
                                                : a.bucket < b.bucket;
            });
  routes.erase(std::unique(routes.begin(), routes.end()), routes.end());
  model.routes = std::move(routes);

  result.total_seconds = total_clock.seconds();
  return out;
}

}  // namespace dasc::serving
