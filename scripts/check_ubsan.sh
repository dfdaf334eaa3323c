#!/usr/bin/env bash
# Build the UBSan-only preset (optimized, so the compiler actually emits
# the vectorized code paths ASan's instrumentation tends to suppress) and
# run the linalg + clustering test groups — the suites that cover the SIMD
# dispatch layer and its consumers.
# Usage: scripts/check_ubsan.sh [extra ctest args...]
set -euo pipefail
cd "$(dirname "$0")/.."

# Route compiles through ccache when available (CI caches CCACHE_DIR).
if command -v ccache >/dev/null 2>&1; then
  export CMAKE_CXX_COMPILER_LAUNCHER=ccache
fi

cmake --preset ubsan
cmake --build --preset ubsan -j "$(nproc)" --target test_linalg test_clustering
ctest --preset ubsan --tests-regex '^(SimdDifferential|VectorOps|DenseMatrix|SparseCsr|SymmetricEigen|JacobiEigen|Lanczos|GaussianKernel|GaussianGram|SuggestBandwidth|KMeans|Spectral|KernelPca|Hungarian|Clustering)' "$@"
