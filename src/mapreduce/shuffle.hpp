// Shuffle building blocks: the partitioner, a map output's framed
// partition runs, the fetch-and-retry loop and the shuffle spool's knobs.
// A reduce task shuffles its own partition: execute_reduce_task
// (task_exec.hpp) appends run p of every map output to a sort-on-seal
// spool, in either execution mode; the spill budget only decides where
// sealed pages live (DESIGN.md section 12).
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/spool.hpp"
#include "mapreduce/types.hpp"

namespace dasc {
class FaultInjector;
}  // namespace dasc

namespace dasc::mapreduce {

/// Default Hadoop-style partitioner: hash(key) mod num_partitions.
std::size_t partition_for_key(const std::string& key,
                              std::size_t num_partitions);

/// One reduce group: a key and all values emitted for it, in map order
/// within each map task and sorted by (key, task) across tasks.
struct KeyGroup {
  std::string key;
  std::vector<std::string> values;
};

/// A map task's output: records in the spool's framing, one run per
/// partition. Run p holds, in output order, the records partition_for_key
/// sends to p, and ends at run_end[p].
struct MapOutput {
  std::string bytes;
  std::vector<std::size_t> run_end;

  std::size_t num_partitions() const { return run_end.size(); }
  /// Run `partition`'s bytes. Throws InvalidArgument past the last run.
  std::string_view run(std::size_t partition) const;
};

/// The fetch-and-retry loop every reduce task runs per map output — in
/// process and in a worker's pull client — so a fault plan exercises them
/// identically whichever process fetches. The transfer's own hop
/// checks the bytes (the frame CRC on a socket); this loop adds no check of
/// its own. Each attempt makes one `shuffle.fetch` check (`faults` may be
/// null): an error fails the attempt without calling `transfer`; a
/// corruption calls it and then fails the attempt, standing for the hop's
/// check failing on what arrived. A failed attempt calls `on_retry` and
/// goes again; after `max_attempts` the loop throws IoError. Exceptions
/// from `transfer` propagate untouched.
void fetch_verified(std::size_t map_task, FaultInjector* faults,
                    std::size_t max_attempts,
                    const std::function<void()>& transfer,
                    const std::function<void()>& on_retry);

/// Sort-on-seal spool knobs for a shuffle partition — the one place the
/// budget conventions meet: JobConf's 0 ("never spill") becomes an
/// unbounded SpoolConfig budget (whose 0 spills every page), and page I/O
/// gets at least `max_fetch_attempts` attempts. Faults/metrics are unset.
SpoolConfig shuffle_spool_config(std::size_t spill_budget_bytes,
                                 const std::string& spill_dir,
                                 std::size_t max_fetch_attempts);

/// Sort one partition's records by key and group equal keys (the
/// combiner's in-task grouping).
std::vector<KeyGroup> sort_and_group(std::vector<Record> partition);

}  // namespace dasc::mapreduce
