#!/usr/bin/env bash
# Build and run the tier-1 test suite under AddressSanitizer + UBSan.
# Usage: scripts/check_asan.sh [extra ctest args...]
set -euo pipefail
cd "$(dirname "$0")/.."

# Route compiles through ccache when available (CI caches CCACHE_DIR).
if command -v ccache >/dev/null 2>&1; then
  export CMAKE_CXX_COMPILER_LAUNCHER=ccache
fi

cmake --preset asan
cmake --build --preset asan -j "$(nproc)"
ctest --preset asan "$@"

# Deflake gate: the SIMD differential suite asserts bitwise invariants that
# must hold on every run, so hammer it until-fail under the sanitizers.
ctest --preset asan --tests-regex 'SimdDifferential' --repeat until-fail:3

# The transport, transport fuzz/property and connection-pool suites drive
# the framing layer with malformed, truncated, and bit-flipped input and
# the data-plane pool through kill/restart/invalidation churn; every
# rejection and teardown path must be allocation-clean under ASan, so
# hammer them too, with the spool and shuffle suites (the in-process
# corrupt-fetch path over partition runs included), the checksum's
# unaligned and split inputs, a worker's partitioned map outputs, whose
# runs are served and appended to spools as untrusted bytes, and a reducer
# that reads a kFetchData frame damaged in flight and re-dials its owner.
# So must the kReducePullDone decode, which checks a reducer's output run
# as untrusted framing (truncated, overrunning and miscounted runs), the
# job output parts walked as framed runs, the listener wake, worker
# shutdown with its SIGKILL escalation, and in-process reduce tasks, each
# spooling its partition's runs out of the shared map outputs. So must map
# tasks reading views into split runs, a split cut mid-frame, a kMapAssign
# tail cut mid-frame, and the owner-slot kReducePull codec.
ctest --preset asan --tests-regex \
  '^(TransportFuzz|WireFuzz|Transport|Listener|WorkerShutdown|JobOutput|PullReport|ConnPool|SpoolBuffer|SpilledShuffle|ShuffleRetry|InProcessShuffle|Checksum)\.|^JobRetry\.(SpeculativeBackupReStreams|InProcessFetchChecksArePerReduceTask)|^Job\.DfsSplitsKeyEachLineByItsGlobalLineNumber|^JobSplits\.|^MultiprocW2W\.(MapAssignCutMidFrameFailsTheTaskNotTheWorker|ReducePullCarriesOwnerSlotsNotPaths|OwnerServesEachPartitionOfItsOutputInOutputOrder|DamagedFetchDataFrameRestartsTheOwnerStream|PullFailedNamesTheUnreachableOwner|WorkerKillMidReduceReexecutesLostMapOutputs)' \
  --repeat until-fail:3

