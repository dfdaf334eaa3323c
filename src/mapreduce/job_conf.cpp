#include "mapreduce/job_conf.hpp"

#include "common/error.hpp"

namespace dasc::mapreduce {

ExecutionMode parse_execution_mode(const std::string& text) {
  if (text == "in_process") return ExecutionMode::kInProcess;
  if (text == "multi_process") return ExecutionMode::kMultiProcess;
  throw InvalidArgument(
      "execution mode must be in_process or multi_process, got '" + text + "'");
}

const char* to_string(ExecutionMode mode) {
  return mode == ExecutionMode::kInProcess ? "in_process" : "multi_process";
}

void JobConf::validate() const {
  DASC_EXPECT(num_nodes >= 1, "JobConf: num_nodes must be >= 1");
  DASC_EXPECT(map_slots_per_node >= 1,
              "JobConf: map_slots_per_node must be >= 1");
  DASC_EXPECT(reduce_slots_per_node >= 1,
              "JobConf: reduce_slots_per_node must be >= 1");
  DASC_EXPECT(dfs_replication >= 1, "JobConf: dfs_replication must be >= 1");
  DASC_EXPECT(num_reducers >= 1, "JobConf: num_reducers must be >= 1");
  DASC_EXPECT(split_records >= 1, "JobConf: split_records must be >= 1");
  DASC_EXPECT(max_task_attempts >= 1,
              "JobConf: max_task_attempts must be >= 1");
  DASC_EXPECT(max_fetch_attempts >= 1,
              "JobConf: max_fetch_attempts must be >= 1");
  DASC_EXPECT(speculative_slowdown >= 1.0,
              "JobConf: speculative_slowdown must be >= 1");
  DASC_EXPECT(speculative_min_ms >= 0.0,
              "JobConf: speculative_min_ms must be >= 0");
  if (execution_mode == ExecutionMode::kMultiProcess) {
    DASC_EXPECT(num_workers >= 1,
                "JobConf: multi_process needs num_workers >= 1");
  }
}

}  // namespace dasc::mapreduce
