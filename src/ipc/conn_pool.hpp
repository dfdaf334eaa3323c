// Data-plane connection pool, keyed by map-output owner slot.
//
// Before this pool existed, every worker-to-worker pull attempt dialed a
// fresh AF_UNIX connection to the owner's data-plane listener and dropped
// it after one kFetchPart/kFetchData exchange. A reducer pulling M map
// outputs from W owners paid M dials for what is W conversations; the pool
// collapses that to one persistent connection per owner, reused across
// requests, reduce tasks, and re-attempts.
//
// Usage is lease-based:
//
//   ConnPool::Lease lease = pool.lease(slot, path);
//   lease->send(...); recv ...          // Lease derefs to the Transport
//   // lease destructor returns the connection to the pool
//
// A connection goes back to the pool only when the conversation on it
// finished cleanly. Any failure that can leave bytes in flight — EOF
// mid-reply, a CRC error, a request whose replies were not all read —
// must call lease.invalidate() so the destructor closes the socket
// instead: a pooled connection is a protocol-state invariant ("idle at a
// message boundary"), and a stale or desynchronized one must never serve
// another pull. The same applies pool-wide via invalidate(slot) when a
// reducer reports an owner dead (kPullFailed): the owner's next
// incarnation listens on a fresh accept queue, so the pooled socket is
// garbage by definition.
//
// Thread safety: all public methods are mutex-serialized. Concurrent
// lease() calls on one slot do not block each other — the second caller
// simply dials its own connection (the pool keeps at most one idle
// connection per slot; an extra returned connection is closed, not
// stacked). Dialing happens outside the lock.
//
// Metrics (null-safe): counters `shuffle.conns_opened` (dials) and
// `shuffle.conns_reused` (pool hits); the bench gate
// `shuffle.conns_opened_per_pull_ppm` is computed from the dial count the
// workers report in kReducePullDone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "ipc/transport.hpp"

namespace dasc {
class MetricsRegistry;
}  // namespace dasc

namespace dasc::ipc {

class ConnPool {
 public:
  explicit ConnPool(MetricsRegistry* metrics = nullptr)
      : metrics_(metrics) {}
  ~ConnPool() { clear(); }
  ConnPool(const ConnPool&) = delete;
  ConnPool& operator=(const ConnPool&) = delete;

  class Lease {
   public:
    Lease(ConnPool* pool, std::size_t slot, std::string path,
          std::unique_ptr<Transport> transport, bool reused)
        : pool_(pool), slot_(slot), path_(std::move(path)),
          transport_(std::move(transport)), reused_(reused) {}
    ~Lease() {
      if (pool_ != nullptr && transport_ != nullptr && !invalidated_) {
        pool_->give_back(slot_, path_, std::move(transport_));
      }
      // An invalidated lease drops the transport here: connection closed.
    }
    Lease(Lease&& other) noexcept
        : pool_(other.pool_), slot_(other.slot_),
          path_(std::move(other.path_)),
          transport_(std::move(other.transport_)),
          reused_(other.reused_), invalidated_(other.invalidated_) {
      other.pool_ = nullptr;
    }
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    Transport& operator*() { return *transport_; }
    Transport* operator->() { return transport_.get(); }

    /// The conversation broke (or may have left unconsumed bytes in
    /// flight): close the connection on release instead of pooling it.
    void invalidate() { invalidated_ = true; }
    /// True when this lease came off the pool rather than a fresh dial.
    bool reused() const { return reused_; }

   private:
    ConnPool* pool_;
    std::size_t slot_;
    std::string path_;
    std::unique_ptr<Transport> transport_;
    bool reused_;
    bool invalidated_ = false;
  };

  /// Borrow the connection to `slot`, dialing `path` when the pool holds
  /// none for that slot (or holds one dialed to a different path — the
  /// slot was re-homed). Throws IoError when the dial fails; the pool is
  /// left without an entry for the slot in that case.
  Lease lease(std::size_t slot, const std::string& path);

  /// Drop the pooled connection to `slot`, if any — the owner died or was
  /// re-homed, so the socket is stale. Leases already out are unaffected
  /// (their holders invalidate them when the breakage surfaces).
  void invalidate(std::size_t slot);

  /// Close every pooled connection (shutdown path). Idempotent.
  void clear();

  /// Idle connections currently held.
  std::size_t pooled() const;
  /// Total dials over the pool's life (reuse leaves this untouched).
  std::uint64_t opened() const;
  /// Total lease() calls served from the pool without a dial.
  std::uint64_t reused_count() const;

 private:
  friend class Lease;
  struct Entry {
    std::string path;
    std::unique_ptr<Transport> transport;
  };

  void give_back(std::size_t slot, const std::string& path,
                 std::unique_ptr<Transport> transport);

  mutable std::mutex mutex_;
  std::map<std::size_t, Entry> entries_;
  std::uint64_t opened_ = 0;
  std::uint64_t reused_ = 0;
  MetricsRegistry* metrics_ = nullptr;
};

}  // namespace dasc::ipc
