// Core key/value types of the MapReduce runtime.
//
// Keys and values are byte strings, as in Hadoop streaming; algorithm
// layers serialize their records (binary in core/dasc_mapreduce, text via
// data/dataset_io.hpp point_to_record in core/mapreduce_kmeans). The
// runtime executes for real on the host machine while a virtual cluster
// (virtual_cluster.hpp) accounts slots and simulated time — see DESIGN.md.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace dasc::mapreduce {

/// One key/value record.
struct Record {
  std::string key;
  std::string value;

  friend bool operator==(const Record&, const Record&) = default;
};

/// Collects records emitted by a mapper, combiner, or reducer.
class Emitter {
 public:
  virtual ~Emitter() = default;
  virtual void emit(std::string key, std::string value) = 0;
};

/// Emitter backed by a plain vector (used throughout the runtime).
class VectorEmitter final : public Emitter {
 public:
  void emit(std::string key, std::string value) override {
    records_.push_back({std::move(key), std::move(value)});
  }

  std::vector<Record>& records() { return records_; }
  const std::vector<Record>& records() const { return records_; }

 private:
  std::vector<Record> records_;
};

/// A user mapper: called once per input record.
class Mapper {
 public:
  virtual ~Mapper() = default;
  virtual void map(const std::string& key, const std::string& value,
                   Emitter& out) = 0;
};

/// A user reducer (also usable as a combiner): called once per key group.
class Reducer {
 public:
  virtual ~Reducer() = default;
  virtual void reduce(const std::string& key,
                      const std::vector<std::string>& values,
                      Emitter& out) = 0;
};

/// Job counters, mirroring the familiar Hadoop counter groups.
struct Counters {
  std::uint64_t map_input_records = 0;
  std::uint64_t map_output_records = 0;
  std::uint64_t combine_input_records = 0;
  std::uint64_t combine_output_records = 0;
  std::uint64_t shuffle_bytes = 0;
  std::uint64_t reduce_input_groups = 0;
  std::uint64_t reduce_input_records = 0;
  std::uint64_t reduce_output_records = 0;
  /// Task attempts that threw and were retried (Hadoop's "failed task
  /// attempts" counter).
  std::uint64_t failed_task_attempts = 0;
};

}  // namespace dasc::mapreduce
