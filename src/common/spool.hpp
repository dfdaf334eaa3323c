// Out-of-core spool: page-based record buffers with an explicit byte
// budget and CRC-guarded spill-to-disk pages.
//
// The paper's target regime (2^20..2^30 points) does not fit a RAM-
// resident shuffle or a full set of dense Gram blocks, so both paths
// can spill through this layer (DESIGN.md section 12):
//
//   SpoolPager   -- the page store. Fixed-size payload pages written to a
//                   private temp file, each framed by a 16-byte header
//                   {magic 'DSPL', page index, payload bytes, CRC-32 of
//                   the payload}. Every write and read is an attempt-loop
//                   over the fault site `spill.page_io`: injected errors
//                   fail the attempt, injected corruption flips a payload
//                   byte so the CRC check catches it, and either way the
//                   attempt is retried (counter `retry.spill_page_io`)
//                   up to `max_attempts` before an IoError escapes.
//   SpoolBuffer  -- record-framed spooling on top of the pager. Records
//                   append into an open page; a page seals when the next
//                   record would overflow `page_bytes` (an oversized
//                   record gets a page of its own), and sealed pages
//                   spill to disk whenever resident payload exceeds
//                   `budget_bytes` (budget 0 = spill every sealed page).
//                   Each page is stable-sorted by key at seal time and
//                   finish() externally merges sorted runs (fan-in
//                   bounded) so that for_each_sorted() visits records in
//                   exactly the order a global std::stable_sort by key
//                   would produce -- the determinism contract the external
//                   shuffle relies on.
//
// Determinism: page boundaries depend only on `page_bytes` and the record
// sequence -- never on the budget, the spill directory, or which pages
// happen to be resident -- so spilling on vs off cannot change observable
// record order. The merge tie-breaks equal keys by run ordinal, and runs
// are numbered in append order, which reproduces stable sort exactly.
//
// Metrics: gauges `spill.bytes_written` / `spill.bytes_read` /
// `spill.pages` accumulate page traffic (header + payload); timer
// `spill.page_io` samples every I/O attempt.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace dasc {

class FaultInjector;
class MetricsRegistry;

/// Knobs shared by SpoolPager and SpoolBuffer. Defaults give a pure
/// out-of-core posture: any sealed page spills immediately.
struct SpoolConfig {
  /// Directory for spill files; "" = std::filesystem::temp_directory_path().
  std::string dir;
  /// Resident payload budget. A sealed page stays in RAM only while total
  /// sealed resident payload fits the budget; 0 spills every sealed page.
  std::size_t budget_bytes = 0;
  /// Payload capacity per page. A record whose framing is larger takes a
  /// page of its own.
  std::size_t page_bytes = 256 * 1024;
  /// Attempts per page write/read before IoError (fault site
  /// `spill.page_io`).
  std::size_t max_attempts = 4;
  /// Maximum runs merged per external-merge pass in finish().
  std::size_t fan_in = 8;
  FaultInjector* faults = nullptr;   ///< optional; null = no injection
  MetricsRegistry* metrics = nullptr;  ///< optional; null = no metrics
};

/// Page store over one private temp file ("dasc-spool-<pid>-<n>.spl").
/// The file is created O_EXCL and unlinked immediately after opening, so
/// its data lives only as long as this pager's descriptor: a crashed or
/// SIGKILLed process can never strand a spill file on disk (the
/// supervisor's sweep in ipc/worker_supervisor.hpp is the backstop for
/// filesystems where unlink-after-open is unavailable). Writes are
/// exclusive to the owning thread; read_page is const and thread-safe
/// (positional pread on the shared descriptor), so sealed spools can be
/// consumed by concurrent reduce attempts.
class SpoolPager {
 public:
  explicit SpoolPager(const SpoolConfig& config);
  ~SpoolPager();
  SpoolPager(const SpoolPager&) = delete;
  SpoolPager& operator=(const SpoolPager&) = delete;

  /// Append one page; returns its index. Retries injected `spill.page_io`
  /// failures; throws IoError when attempts are exhausted.
  std::size_t write_page(std::string_view payload);

  /// Read page `index` back, verifying its CRC-32. Corrupt or failed
  /// reads are retried; throws IoError when attempts are exhausted.
  std::string read_page(std::size_t index) const;

  std::size_t pages() const { return meta_.size(); }
  /// The (already unlinked) path the spill file was created under.
  const std::string& file_path() const { return path_; }
  /// The open descriptor — the file's only remaining name. Exposed so
  /// tests can tamper with on-disk bytes via pwrite.
  int fd() const { return fd_; }

 private:
  struct PageMeta {
    std::uint64_t offset = 0;
    std::uint32_t payload_bytes = 0;
    std::uint32_t crc = 0;
  };

  SpoolConfig config_;
  std::string path_;
  int fd_ = -1;
  std::uint64_t tail_offset_ = 0;
  std::vector<PageMeta> meta_;
};

/// Appends one record in the spool's framing: u32 key length, u32 value
/// length, key bytes, value bytes.
void append_record_frame(std::string& out, std::string_view key,
                         std::string_view value);

/// One record frame parsed out of a byte string: views of its key and
/// value, and the offset of the frame after it.
struct RecordFrame {
  std::string_view key;
  std::string_view value;
  std::size_t next = 0;
};

/// Parses the frame at `offset` (at most bytes.size()). Throws IoError on
/// a partial header or a length past the end: frames can be untrusted.
RecordFrame parse_record_frame(std::string_view bytes, std::size_t offset);

/// The number of record frames in `run`; throws as parse_record_frame does.
std::size_t count_record_frames(std::string_view run);

/// Calls visit(key, value) for each record frame of `run` in order; throws
/// as parse_record_frame does. The views alias `run`.
template <typename Visit>
void for_each_record_frame(std::string_view run, Visit&& visit) {
  for (std::size_t offset = 0; offset < run.size();) {
    const RecordFrame frame = parse_record_frame(run, offset);
    visit(frame.key, frame.value);
    offset = frame.next;
  }
}

/// One record visited during spool iteration. Views are valid only for
/// the duration of the visitor call.
using SpoolVisitor =
    std::function<void(std::string_view key, std::string_view value)>;

/// Record-framed external sort: append -> finish -> iterate in key order.
class SpoolBuffer {
 public:
  explicit SpoolBuffer(const SpoolConfig& config);

  /// Append one record. Throws InvalidArgument if the framed record
  /// (8-byte length header + key + value) overflows the u32 frame, or if
  /// called after finish().
  void append(std::string_view key, std::string_view value);

  /// Append every record of `run` (record frames, untrusted: malformed
  /// framing throws IoError before anything is appended), sealing pages
  /// exactly where per-record append would.
  void append_run(std::string_view run);

  /// Seal the open page, enforce the budget, and externally merge sorted
  /// runs down to at most fan_in. Idempotent.
  void finish();

  /// Visit records in stable-sorted key order (ties in append order).
  /// Requires finish(). Const and safe to call concurrently.
  void for_each_sorted(const SpoolVisitor& visit) const;

  std::size_t records() const { return records_; }
  /// Accounting bytes (key + value + 2 per record): the shuffle_bytes
  /// counter's convention.
  std::size_t record_bytes() const { return record_bytes_; }
  std::size_t pages_spilled() const;
  std::size_t resident_bytes() const { return resident_bytes_; }
  bool finished() const { return finished_; }
  /// Spill file path; empty while nothing has spilled yet. The file is
  /// unlinked at creation, so the path never resolves on disk.
  std::string file_path() const;
  /// Spill file descriptor; -1 while nothing has spilled yet.
  int spill_fd() const;

 private:
  // One sealed page: payload either resident or behind a pager index.
  struct Page {
    std::string payload;             ///< non-empty iff resident
    std::size_t payload_bytes = 0;   ///< size whether resident or spilled
    std::size_t pager_index = 0;
    bool spilled = false;
    std::size_t record_count = 0;
  };
  // A sorted run is a consecutive list of sealed pages whose concatenated
  // records are in stable key order.
  struct Run {
    std::vector<std::size_t> page_ids;
    std::size_t ordinal = 0;  ///< append-order rank; the merge tie-break
  };

  void reserve_frame(std::size_t framed);
  void seal_open_page();
  void enforce_budget();
  void spill_page(Page& page);
  std::string load_page(const Page& page) const;
  void merge_runs_down_to_fan_in();
  Run merge_run_group(const std::vector<Run>& group);

  SpoolConfig config_;
  mutable std::mutex pager_mutex_;   // guards lazy pager creation
  mutable std::unique_ptr<SpoolPager> pager_;
  std::vector<Page> pages_;
  std::vector<Run> runs_;
  std::string open_page_;
  std::size_t open_records_ = 0;
  std::size_t resident_bytes_ = 0;
  std::size_t records_ = 0;
  std::size_t record_bytes_ = 0;
  bool finished_ = false;
};

}  // namespace dasc
