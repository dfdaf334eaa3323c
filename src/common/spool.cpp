#include "common/spool.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <iterator>
#include <limits>
#include <utility>

#include "common/checksum.hpp"
#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"

namespace dasc {

namespace {

constexpr std::string_view kPageMagic = "DSPL";
constexpr std::size_t kPageHeaderBytes = 16;
constexpr std::string_view kFaultSite = "spill.page_io";

void put_u32(std::string& out, std::uint32_t value) {
  char bytes[4];
  std::memcpy(bytes, &value, sizeof(value));
  out.append(bytes, sizeof(value));
}

std::uint32_t get_u32(const char* bytes) {
  std::uint32_t value;
  std::memcpy(&value, bytes, sizeof(value));
  return value;
}

std::string next_spool_path(const std::string& dir) {
  static std::atomic<std::uint64_t> counter{0};
  namespace fs = std::filesystem;
  fs::path base = dir.empty() ? fs::temp_directory_path() : fs::path(dir);
  std::error_code ec;
  fs::create_directories(base, ec);  // best effort; open failure reports
  const auto pid =
      static_cast<unsigned long long>(::getpid());
  const auto n =
      static_cast<unsigned long long>(counter.fetch_add(1));
  return (base / ("dasc-spool-" + std::to_string(pid) + "-" +
                  std::to_string(n) + ".spl"))
      .string();
}

std::size_t framed_size(std::string_view key, std::string_view value) {
  return 8 + key.size() + value.size();
}

/// Positional full write; returns false on any error (caller retries).
bool pwrite_all(int fd, const char* data, std::size_t size,
                std::uint64_t offset) {
  while (size > 0) {
    const ssize_t n = ::pwrite(fd, data, size, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
    offset += static_cast<std::uint64_t>(n);
  }
  return true;
}

/// Positional full read; returns false on error or EOF before `size`.
bool pread_all(int fd, char* data, std::size_t size, std::uint64_t offset) {
  while (size > 0) {
    const ssize_t n = ::pread(fd, data, size, static_cast<off_t>(offset));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
    offset += static_cast<std::uint64_t>(n);
  }
  return true;
}

}  // namespace

void append_record_frame(std::string& out, std::string_view key,
                         std::string_view value) {
  put_u32(out, static_cast<std::uint32_t>(key.size()));
  put_u32(out, static_cast<std::uint32_t>(value.size()));
  out.append(key);
  out.append(value);
}

RecordFrame parse_record_frame(std::string_view bytes, std::size_t offset) {
  if (bytes.size() - offset < 8) {
    throw IoError("record frame: truncated header");
  }
  const std::uint32_t klen = get_u32(bytes.data() + offset);
  const std::uint32_t vlen = get_u32(bytes.data() + offset + 4);
  const std::size_t body = offset + 8;
  if (std::uint64_t{klen} + vlen > bytes.size() - body) {
    throw IoError("record frame: length past the end");
  }
  return {bytes.substr(body, klen), bytes.substr(body + klen, vlen),
          body + klen + vlen};
}

std::size_t count_record_frames(std::string_view run) {
  std::size_t count = 0;
  for (std::size_t offset = 0; offset < run.size(); ++count) {
    offset = parse_record_frame(run, offset).next;
  }
  return count;
}

// ---------------------------------------------------------------------------
// SpoolPager

SpoolPager::SpoolPager(const SpoolConfig& config)
    : config_(config), path_(next_spool_path(config.dir)) {
  DASC_EXPECT(config_.max_attempts >= 1,
              "spool: max_attempts must be >= 1");
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_EXCL | O_CLOEXEC, 0600);
  if (fd_ < 0) {
    throw IoError("spool: cannot open spill file " + path_);
  }
  // Unlink while the descriptor is open: the kernel reclaims the data when
  // the last descriptor closes, however this process exits — including
  // SIGKILL from the worker.kill fault site. Best effort: a filesystem
  // that refuses leaves the file for the supervisor's sweep.
  ::unlink(path_.c_str());
}

SpoolPager::~SpoolPager() {
  if (fd_ >= 0) ::close(fd_);
}

std::size_t SpoolPager::write_page(std::string_view payload) {
  const std::size_t index = meta_.size();
  const std::uint32_t payload_bytes =
      static_cast<std::uint32_t>(payload.size());
  const std::uint32_t crc = crc32(payload);

  std::string header;
  header.reserve(kPageHeaderBytes);
  header.append(kPageMagic);
  put_u32(header, static_cast<std::uint32_t>(index));
  put_u32(header, payload_bytes);
  put_u32(header, crc);

  for (std::size_t attempt = 1;; ++attempt) {
    try {
      ScopedTimer io_timer(config_.metrics, "spill.page_io");
      if (config_.faults != nullptr) {
        // Both error and corrupt kinds fail the write before anything is
        // durable: a corrupted write would only be detected on read, which
        // would double-charge the retry accounting when a page is read
        // more than once.
        if (config_.faults->check(kFaultSite) !=
            FaultInjector::Outcome::kNone) {
          throw IoError("spool: injected page write failure");
        }
      }
      if (!pwrite_all(fd_, header.data(), header.size(), tail_offset_) ||
          !pwrite_all(fd_, payload.data(), payload.size(),
                      tail_offset_ + kPageHeaderBytes)) {
        throw IoError("spool: page write failed on " + path_);
      }
      break;
    } catch (...) {
      if (attempt >= config_.max_attempts) {
        throw IoError("spool: page write failed after " +
                      std::to_string(config_.max_attempts) +
                      " attempts on " + path_);
      }
      if (config_.metrics != nullptr) {
        config_.metrics->counter("retry.spill_page_io").add();
      }
      DASC_LOG(kWarn) << "spool: page " << index << " write attempt "
                      << attempt << " failed; retrying";
    }
  }

  PageMeta meta;
  meta.offset = tail_offset_;
  meta.payload_bytes = payload_bytes;
  meta.crc = crc;
  meta_.push_back(meta);
  tail_offset_ += kPageHeaderBytes + payload.size();

  if (config_.metrics != nullptr) {
    config_.metrics->gauge("spill.bytes_written")
        .add(static_cast<std::int64_t>(kPageHeaderBytes + payload.size()));
    config_.metrics->gauge("spill.pages").add(1);
  }
  return index;
}

std::string SpoolPager::read_page(std::size_t index) const {
  DASC_EXPECT(index < meta_.size(), "spool: page index out of range");
  const PageMeta& meta = meta_[index];

  for (std::size_t attempt = 1;; ++attempt) {
    try {
      ScopedTimer io_timer(config_.metrics, "spill.page_io");
      FaultInjector::Outcome outcome = FaultInjector::Outcome::kNone;
      if (config_.faults != nullptr) {
        outcome = config_.faults->check(kFaultSite);
      }
      if (outcome == FaultInjector::Outcome::kError) {
        throw IoError("spool: injected page read failure");
      }

      // Positional reads on the shared descriptor (the file has no path
      // anymore), so sealed spools are safe to consume from concurrent
      // (speculative) reduce attempts.
      std::string header(kPageHeaderBytes, '\0');
      std::string payload(meta.payload_bytes, '\0');
      if (!pread_all(fd_, header.data(), kPageHeaderBytes, meta.offset) ||
          !pread_all(fd_, payload.data(), meta.payload_bytes,
                     meta.offset + kPageHeaderBytes)) {
        throw IoError("spool: short page read on " + path_);
      }
      if (outcome == FaultInjector::Outcome::kCorruption &&
          !payload.empty()) {
        payload[0] = static_cast<char>(payload[0] ^ 0x5A);
      }
      if (std::string_view(header).substr(0, 4) != kPageMagic ||
          get_u32(header.data() + 4) != static_cast<std::uint32_t>(index) ||
          get_u32(header.data() + 8) != meta.payload_bytes) {
        throw IoError("spool: page header mismatch on " + path_);
      }
      if (crc32(payload) != meta.crc) {
        throw IoError("spool: page checksum mismatch on " + path_);
      }
      if (config_.metrics != nullptr) {
        config_.metrics->gauge("spill.bytes_read")
            .add(static_cast<std::int64_t>(kPageHeaderBytes +
                                           payload.size()));
      }
      return payload;
    } catch (...) {
      if (attempt >= config_.max_attempts) {
        throw IoError("spool: page read failed after " +
                      std::to_string(config_.max_attempts) +
                      " attempts on " + path_);
      }
      if (config_.metrics != nullptr) {
        config_.metrics->counter("retry.spill_page_io").add();
      }
      DASC_LOG(kWarn) << "spool: page " << index << " read attempt "
                      << attempt << " failed; retrying";
    }
  }
}

// ---------------------------------------------------------------------------
// SpoolBuffer

SpoolBuffer::SpoolBuffer(const SpoolConfig& config) : config_(config) {
  DASC_EXPECT(config_.page_bytes >= 16,
              "spool: page_bytes too small to frame any record");
  DASC_EXPECT(config_.fan_in >= 2, "spool: merge fan_in must be >= 2");
  DASC_EXPECT(config_.max_attempts >= 1,
              "spool: max_attempts must be >= 1");
}

void SpoolBuffer::append(std::string_view key, std::string_view value) {
  DASC_EXPECT(!finished_, "spool: append after finish");
  const std::size_t framed = framed_size(key, value);
  DASC_EXPECT(framed <= std::numeric_limits<std::uint32_t>::max(),
              "spool: record too large for the u32 record frame");
  reserve_frame(framed);
  append_record_frame(open_page_, key, value);
}

void SpoolBuffer::append_run(std::string_view run) {
  DASC_EXPECT(!finished_, "spool: append after finish");
  count_record_frames(run);  // throws on malformed framing, appending nothing
  for (std::size_t offset = 0; offset < run.size();) {
    const std::size_t next = parse_record_frame(run, offset).next;
    reserve_frame(next - offset);
    open_page_.append(run.substr(offset, next - offset));
    offset = next;
  }
}

void SpoolBuffer::reserve_frame(std::size_t framed) {
  // A record larger than page_bytes seals the open page and then fills
  // the next one alone; the following append seals it in turn.
  if (open_page_.size() + framed > config_.page_bytes) {
    seal_open_page();
  }
  ++open_records_;
  ++records_;
  record_bytes_ += framed - 6;  // key + value + 2
}

void SpoolBuffer::seal_open_page() {
  if (open_records_ == 0) return;
  std::string payload = std::move(open_page_);
  open_page_.clear();

  {
    // Stable-sort the page's records by key; rebuilding the payload in
    // sorted order makes each sealed page a sorted run of length one. Each
    // frame is parsed once, into its key and its byte range.
    struct Entry {
      std::string_view key;
      std::size_t begin = 0;
      std::size_t end = 0;
    };
    std::vector<Entry> entries;
    entries.reserve(open_records_);
    for (std::size_t cursor = 0; cursor < payload.size();) {
      const RecordFrame record = parse_record_frame(payload, cursor);
      entries.push_back({record.key, cursor, record.next});
      cursor = record.next;
    }
    std::stable_sort(entries.begin(), entries.end(),
                     [](const Entry& a, const Entry& b) {
                       return a.key < b.key;
                     });
    std::string sorted;
    sorted.reserve(payload.size());
    for (const Entry& entry : entries) {
      sorted.append(payload, entry.begin, entry.end - entry.begin);
    }
    payload = std::move(sorted);
  }

  Page page;
  page.payload_bytes = payload.size();
  page.record_count = open_records_;
  page.payload = std::move(payload);
  const std::size_t page_id = pages_.size();
  resident_bytes_ += page.payload_bytes;
  pages_.push_back(std::move(page));
  Run run;
  run.page_ids.push_back(page_id);
  run.ordinal = runs_.size();
  runs_.push_back(std::move(run));
  open_records_ = 0;
  enforce_budget();
}

void SpoolBuffer::enforce_budget() {
  if (resident_bytes_ <= config_.budget_bytes) return;
  // Spill resident pages oldest-first until the budget holds again. Page
  // content is identical resident or spilled, so the choice cannot affect
  // observable record order.
  for (Page& page : pages_) {
    if (resident_bytes_ <= config_.budget_bytes) break;
    if (page.payload.empty() || page.spilled) continue;
    spill_page(page);
  }
}

void SpoolBuffer::spill_page(Page& page) {
  {
    std::lock_guard lock(pager_mutex_);
    if (pager_ == nullptr) {
      pager_ = std::make_unique<SpoolPager>(config_);
    }
  }
  page.pager_index = pager_->write_page(page.payload);
  page.spilled = true;
  resident_bytes_ -= page.payload_bytes;
  page.payload.clear();
  page.payload.shrink_to_fit();
}

std::string SpoolBuffer::load_page(const Page& page) const {
  if (!page.payload.empty()) return page.payload;
  if (page.payload_bytes == 0) return {};
  DASC_ENSURE(page.spilled, "spool: page neither resident nor spilled");
  return pager_->read_page(page.pager_index);
}

namespace {

/// Streaming cursor over one sorted run: loads pages one at a time and
/// exposes the current record.
struct RunCursor {
  const std::vector<std::size_t>* page_ids = nullptr;
  std::size_t page_pos = 0;
  std::string payload;
  std::size_t offset = 0;
  std::string_view key;
  std::string_view value;
  bool has = false;

  template <typename LoadPage, typename PageDone>
  void advance(const LoadPage& load, const PageDone& done) {
    while (true) {
      if (offset < payload.size()) {
        const RecordFrame record = parse_record_frame(payload, offset);
        key = record.key;
        value = record.value;
        offset = record.next;
        has = true;
        return;
      }
      if (page_pos > 0) done((*page_ids)[page_pos - 1]);
      if (page_pos >= page_ids->size()) {
        payload.clear();
        has = false;
        return;
      }
      payload = load((*page_ids)[page_pos]);
      offset = 0;
      ++page_pos;
    }
  }
};

/// K-way merge over cursors ordered by run ordinal: repeatedly visit the
/// smallest key, tie-broken by cursor position (== run ordinal order),
/// which reproduces a global stable sort by key.
template <typename Visit>
void merge_cursors(std::vector<RunCursor>& cursors, const Visit& visit) {
  while (true) {
    std::size_t best = cursors.size();
    for (std::size_t i = 0; i < cursors.size(); ++i) {
      if (!cursors[i].has) continue;
      if (best == cursors.size() || cursors[i].key < cursors[best].key) {
        best = i;
      }
    }
    if (best == cursors.size()) return;
    visit(best);
  }
}

}  // namespace

SpoolBuffer::Run SpoolBuffer::merge_run_group(
    const std::vector<Run>& group) {
  auto load = [this](std::size_t page_id) {
    return load_page(pages_[page_id]);
  };
  // Source pages are dead as soon as a cursor moves past them; freeing
  // them here keeps merge memory bounded by ~fan_in pages.
  auto free_source = [this](std::size_t page_id) {
    Page& page = pages_[page_id];
    if (!page.payload.empty()) {
      resident_bytes_ -= page.payload_bytes;
      page.payload.clear();
      page.payload.shrink_to_fit();
    }
  };

  std::vector<RunCursor> cursors(group.size());
  for (std::size_t i = 0; i < group.size(); ++i) {
    cursors[i].page_ids = &group[i].page_ids;
    cursors[i].advance(load, free_source);
  }

  Run merged;
  merged.ordinal = group.front().ordinal;
  std::string out_payload;
  std::size_t out_records = 0;
  auto seal_output = [&] {
    if (out_records == 0) return;
    Page page;
    page.payload_bytes = out_payload.size();
    page.record_count = out_records;
    page.payload = std::move(out_payload);
    out_payload.clear();
    const std::size_t page_id = pages_.size();
    resident_bytes_ += page.payload_bytes;
    pages_.push_back(std::move(page));
    merged.page_ids.push_back(page_id);
    out_records = 0;
    enforce_budget();
  };

  merge_cursors(cursors, [&](std::size_t best) {
    RunCursor& cursor = cursors[best];
    if (out_payload.size() + framed_size(cursor.key, cursor.value) >
        config_.page_bytes) {
      seal_output();
    }
    append_record_frame(out_payload, cursor.key, cursor.value);
    ++out_records;
    cursor.advance(load, free_source);
  });
  seal_output();
  return merged;
}

void SpoolBuffer::merge_runs_down_to_fan_in() {
  while (runs_.size() > config_.fan_in) {
    std::vector<Run> next;
    next.reserve((runs_.size() + config_.fan_in - 1) / config_.fan_in);
    for (std::size_t i = 0; i < runs_.size(); i += config_.fan_in) {
      const std::size_t end = std::min(i + config_.fan_in, runs_.size());
      if (end - i == 1) {
        next.push_back(std::move(runs_[i]));
        continue;
      }
      std::vector<Run> group(
          std::make_move_iterator(runs_.begin() +
                                  static_cast<std::ptrdiff_t>(i)),
          std::make_move_iterator(runs_.begin() +
                                  static_cast<std::ptrdiff_t>(end)));
      next.push_back(merge_run_group(group));
    }
    runs_ = std::move(next);
  }
}

void SpoolBuffer::finish() {
  if (finished_) return;
  seal_open_page();
  merge_runs_down_to_fan_in();
  finished_ = true;
}

void SpoolBuffer::for_each_sorted(const SpoolVisitor& visit) const {
  DASC_EXPECT(finished_, "spool: for_each_sorted before finish");
  auto load = [this](std::size_t page_id) {
    return load_page(pages_[page_id]);
  };
  auto keep = [](std::size_t) {};  // const walk: pages stay as they are
  std::vector<RunCursor> cursors(runs_.size());
  for (std::size_t i = 0; i < runs_.size(); ++i) {
    cursors[i].page_ids = &runs_[i].page_ids;
    cursors[i].advance(load, keep);
  }
  merge_cursors(cursors, [&](std::size_t best) {
    visit(cursors[best].key, cursors[best].value);
    cursors[best].advance(load, keep);
  });
}

std::size_t SpoolBuffer::pages_spilled() const {
  return pager_ == nullptr ? 0 : pager_->pages();
}

std::string SpoolBuffer::file_path() const {
  return pager_ == nullptr ? std::string() : pager_->file_path();
}

int SpoolBuffer::spill_fd() const {
  return pager_ == nullptr ? -1 : pager_->fd();
}

}  // namespace dasc
