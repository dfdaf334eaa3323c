// Deterministic fault injection for the virtual MapReduce cluster and the
// DASC pipelines.
//
// A FaultPlan names instrumented sites (`dfs.read`, `map.task`,
// `shuffle.fetch`, `reduce.task`, `alloc.gram_block`, `serving.assign`,
// `spill.page_io`) and
// attaches triggers: fire on every nth call to the site, or fire per call
// with a fixed probability. A FaultInjector evaluates the plan thread-safely;
// probability decisions are a pure function of (plan seed, site, spec
// ordinal, call index), so for a fixed seed the *number* of faults fired is
// identical across thread counts whenever every faulted operation is retried
// exactly once (each failure consumes one extra call index, and the firing
// index set is fixed up front — the total call count is the unique fixed
// point of D = tasks + #fires(D)).
//
// Fault kinds:
//   kError      — the site fails (maybe_throw raises FaultInjectedError)
//   kCorruption — the site's payload should be corrupted in flight; callers
//                 with checksummed payloads (DFS reads, spill pages) flip
//                 bytes and let verification catch it; shuffle fetches run
//                 the transfer and fail it, as the frame CRC would; other
//                 callers treat it as kError
//   kStall      — the call is delayed by stall_ms (straggler simulation for
//                 speculative re-execution); no failure is reported
//
// Every fire is observable: with a MetricsRegistry attached the injector
// counts `fault.injected` and `fault.injected.<site>`; the recovering
// runtimes count their `retry.*` work next to it (DESIGN.md section 9).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace dasc {

class MetricsRegistry;

/// Thrown by FaultInjector::maybe_throw when an injected fault fires.
class FaultInjectedError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class FaultKind {
  kError,       ///< operation fails outright
  kCorruption,  ///< payload is corrupted in transit (checksum-detectable)
  kStall,       ///< operation is delayed, not failed
};

/// One fault source: a site plus a trigger. Exactly one of `probability`
/// (per-call chance) or `every_nth` (every nth call to the site) must be
/// set; `max_faults` optionally caps how often the spec fires.
struct FaultSpec {
  std::string site;
  double probability = 0.0;      ///< fire chance per call, in [0, 1]
  std::uint64_t every_nth = 0;   ///< fire on calls n, 2n, 3n, ... (1-based)
  std::uint64_t max_faults = 0;  ///< cap on fires; 0 = unlimited
  FaultKind kind = FaultKind::kError;
  std::uint64_t stall_ms = 1;    ///< delay per fire when kind == kStall

  /// Throws InvalidArgument when the spec is inconsistent.
  void validate() const;
};

/// A seeded set of fault specs. Parseable from the compact text form used
/// by `dasc_tool --fault-plan`:
///
///   plan  := entry (';' entry)*
///   entry := 'seed=' int | site (':' field)*
///   field := 'prob=' float | 'nth=' int | 'max=' int
///          | 'kind=' ('error'|'corrupt'|'stall') | 'stall_ms=' int
///
/// e.g. "seed=7;map.task:nth=3:max=2;dfs.read:prob=0.25:kind=corrupt".
struct FaultPlan {
  std::uint64_t seed = 0;
  std::vector<FaultSpec> faults;

  bool empty() const { return faults.empty(); }

  static FaultPlan parse(const std::string& text);
  std::string to_string() const;
};

/// Thread-safe plan evaluator. Construct once, share by pointer through
/// DascParams / JobSpec / DfsConfig / BucketPipelineOptions /
/// ServerOptions; a null injector everywhere means faults are off.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan, MetricsRegistry* metrics = nullptr);

  /// Evaluate the plan for one call to `site`. Stall faults sleep here and
  /// report kNone; error/corruption faults are returned for the caller to
  /// realize. Unknown sites are free and fire nothing.
  enum class Outcome { kNone, kError, kCorruption };
  Outcome check(std::string_view site);

  /// check(), throwing FaultInjectedError on kError or kCorruption — for
  /// call sites with no payload to corrupt.
  void maybe_throw(std::string_view site);

  /// Calls observed / faults fired at one site (0 for unknown sites).
  std::uint64_t calls(std::string_view site) const;
  std::uint64_t fired(std::string_view site) const;
  /// Faults fired across all sites.
  std::uint64_t total_fired() const;

  /// Forked-worker hygiene: a child process inheriting this injector calls
  /// this (on its own copy-on-write copy) so fault evaluation keeps
  /// working — the state is all atomics, which fork preserves — without
  /// ever touching the parent-owned MetricsRegistry through the inherited
  /// pointer. Fault accounting stays single-homed in the supervisor.
  void detach_metrics() { metrics_ = nullptr; }

  /// Absorb `count` fires a worker process reported for `site` (the
  /// worker-to-worker shuffle's kReducePullDone accounting): bumps the
  /// site's fired count, total_fired, and the `fault.injected` /
  /// `fault.injected.<site>` counters, so supervisor-side accounting
  /// invariants (fired == fault.injected.<site> == retries) hold even
  /// when the site was evaluated in a child's copy-on-write injector.
  void record_remote_fires(std::string_view site, std::uint64_t count);

  const FaultPlan& plan() const { return plan_; }

 private:
  struct SpecState {
    FaultSpec spec;
    std::uint64_t ordinal = 0;  ///< position in the plan (hash salt)
    std::atomic<std::uint64_t> fired{0};
  };
  struct SiteState {
    std::vector<std::unique_ptr<SpecState>> specs;
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> fired{0};
  };

  FaultPlan plan_;
  MetricsRegistry* metrics_ = nullptr;
  std::map<std::string, SiteState, std::less<>> sites_;
  std::atomic<std::uint64_t> total_fired_{0};
};

}  // namespace dasc
