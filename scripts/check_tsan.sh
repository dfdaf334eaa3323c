#!/usr/bin/env bash
# Build and run the tier-1 test suite under ThreadSanitizer.
# Usage: scripts/check_tsan.sh [extra ctest args...]
#
# The multi-process runtime forks every worker before the job spawns any
# threads (WorkerSupervisor's fork-safety-by-construction contract), which
# is exactly the discipline TSan's fork checking enforces — this suite is
# the gate that keeps it honest.
set -euo pipefail
cd "$(dirname "$0")/.."

# Route compiles through ccache when available (CI caches CCACHE_DIR).
if command -v ccache >/dev/null 2>&1; then
  export CMAKE_CXX_COMPILER_LAUNCHER=ccache
fi

cmake --preset tsan
cmake --build --preset tsan -j "$(nproc)"
ctest --preset tsan "$@"

# The transport suite runs concurrent sender/receiver threads over one
# transport pair (a frame larger than the socket buffer, death mid-frame),
# and the connection-pool suite mixes leases with owner kills/restarts
# across threads; hammer both so a racy write, shutdown, or give-back path
# cannot hide behind a lucky interleaving. So must a stalled reduce and its
# speculative backup, each shuffling the partition into its own spool, and
# parallel_for's thread-local nested-region flag (set on pool and loop
# workers, restored on the caller), the bucket balance that splits buckets
# on parallel_for threads, and the MapReduce driver whose stage 2 maps
# stage 1's output on worker threads and processes. So must the checksum
# every frame and page goes through, and a worker's partitioned map
# outputs, whose runs several data-plane threads serve at once while the
# serve loop re-stores outputs, and a reducer that re-dials an owner
# thread after a kFetchData frame fails its CRC. So must a reducer that
# answers kPullFailed and keeps serving, and the dead-owner recovery that
# re-executes map tasks from a phase-pool thread while other reduce
# attempts read the owner table. So must a listener
# woken from another thread while it waits to accept (how a worker's data
# plane stops), worker shutdown and its SIGKILL escalation, the job output
# parts that reduce commits install from the phase pool's threads, and the
# kReducePullDone decode of a reducer's output run. So must in-process
# reduce attempts, which read the shared map outputs, spill their own
# spools and count fetch retries on the task pool's threads at once. So
# must map tasks, which read views into the shared split runs from the
# task pool's threads (framed by the driver or the Record adapter, or cut
# from DFS blocks), and a worker mapping a kMapAssign tail in place.
ctest --preset tsan --tests-regex \
  '^(TransportFuzz|WireFuzz|Transport|Listener|WorkerShutdown|JobOutput|PullReport|ConnPool|SpoolBuffer|SpilledShuffle|InProcessShuffle|ParallelFor|BalanceBuckets|Checksum)\.|^JobRetry\.(SpeculativeBackupReStreams|InProcessFetchChecksArePerReduceTask)|^MapReduceDascGolden\.MemberOrderIgnoresSplitsReducersAndMode|^Job\.DfsSplitsKeyEachLineByItsGlobalLineNumber|^JobSplits\.|^MultiprocW2W\.(MapAssignCutMidFrameFailsTheTaskNotTheWorker|ReducePullCarriesOwnerSlotsNotPaths|OwnerServesEachPartitionOfItsOutputInOutputOrder|DamagedFetchDataFrameRestartsTheOwnerStream|PullFailedNamesTheUnreachableOwner|WorkerKillMidReduceReexecutesLostMapOutputs)' \
  --repeat until-fail:3
