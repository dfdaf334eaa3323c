// Spool-buffer unit tests: page boundary splits, budget enforcement,
// stable external merge, typed errors, and CRC detection of on-disk
// tampering (DESIGN.md section 12).
#include "common/spool.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"

namespace dasc {
namespace {

using KvList = std::vector<std::pair<std::string, std::string>>;

/// Every record of a finished spool, in its stable-sorted key order.
KvList drain(const SpoolBuffer& spool) {
  KvList records;
  spool.for_each_sorted([&](std::string_view key, std::string_view value) {
    records.emplace_back(std::string(key), std::string(value));
  });
  return records;
}

/// `records` stable-sorted by key: what drain must return.
KvList stable_sorted(KvList records) {
  std::stable_sort(records.begin(), records.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  return records;
}

TEST(SpoolPager, RoundTripsPagesWithChecksums) {
  SpoolConfig config;
  SpoolPager pager(config);
  const std::string a(1000, 'a');
  const std::string b = "short";
  EXPECT_EQ(pager.write_page(a), 0u);
  EXPECT_EQ(pager.write_page(b), 1u);
  EXPECT_EQ(pager.pages(), 2u);
  EXPECT_EQ(pager.read_page(1), b);
  EXPECT_EQ(pager.read_page(0), a);  // out-of-order reads are fine
  EXPECT_THROW(pager.read_page(2), InvalidArgument);
}

TEST(SpoolPager, SpillFileIsNeverVisibleByPath) {
  // The spill file is unlinked right after creation, so its path never
  // resolves — not even while the pager is alive and paging through it —
  // and a SIGKILLed process cannot strand it on disk.
  std::string path;
  {
    SpoolConfig config;
    SpoolPager pager(config);
    pager.write_page("payload");
    path = pager.file_path();
    EXPECT_FALSE(path.empty());
    EXPECT_FALSE(std::ifstream(path).good());
    EXPECT_EQ(pager.read_page(0), "payload");  // data lives on via the fd
  }
  EXPECT_FALSE(std::ifstream(path).good());
}

TEST(SpoolBuffer, AppendOrderRoundTripAcrossPageBoundaries) {
  // Keys "key0".."key199" sort in another order than they are appended
  // ("key10" before "key2"), so every page is reordered and merged.
  SpoolConfig config;
  config.page_bytes = 64;  // tiny pages: records straddle many seals
  KvList appended;
  SpoolBuffer spool(config);
  for (int i = 0; i < 200; ++i) {
    const std::string key = "key" + std::to_string(i);
    const std::string value(static_cast<std::size_t>(i % 23), 'v');
    spool.append(key, value);
    appended.emplace_back(key, value);
  }
  spool.finish();
  // Zero budget spilled every sealed page.
  EXPECT_GT(spool.pages_spilled(), 1u);
  EXPECT_EQ(spool.records(), 200u);
  const KvList expected = stable_sorted(appended);
  ASSERT_NE(expected, appended);
  EXPECT_EQ(drain(spool), expected);
  // Re-reading gives the same answer (pages are immutable once sealed).
  EXPECT_EQ(drain(spool), expected);
}

TEST(SpoolBuffer, BudgetKeepsResidentPagesInRam) {
  SpoolConfig config;
  config.page_bytes = 64;
  config.budget_bytes = 1 << 20;  // everything fits: nothing spills
  SpoolBuffer spool(config);
  KvList appended;
  for (int i = 0; i < 100; ++i) {
    spool.append("k" + std::to_string(i), "value");
    appended.emplace_back("k" + std::to_string(i), "value");
  }
  spool.finish();
  EXPECT_EQ(spool.pages_spilled(), 0u);
  EXPECT_TRUE(spool.file_path().empty());
  EXPECT_GT(spool.resident_bytes(), 0u);
  EXPECT_EQ(drain(spool), stable_sorted(appended));
}

TEST(SpoolBuffer, SortedMergeMatchesGlobalStableSort) {
  SpoolConfig config;
  config.page_bytes = 96;  // many single-page runs
  config.fan_in = 2;  // force multi-pass external merge
  SpoolBuffer spool(config);
  KvList expected;
  Rng rng(99);
  for (int i = 0; i < 500; ++i) {
    // Few distinct keys -> heavy duplication, the stable-order stress.
    const std::string key = "k" + std::to_string(rng() % 7);
    const std::string value = "v" + std::to_string(i);
    spool.append(key, value);
    expected.emplace_back(key, value);
  }
  spool.finish();
  expected = stable_sorted(std::move(expected));
  EXPECT_EQ(drain(spool), expected);
  // The sorted walk is const and repeatable.
  EXPECT_EQ(drain(spool), expected);
}

TEST(SpoolBuffer, SortedMergeIdenticalAcrossBudgets) {
  // The determinism contract: the budget decides where pages live, never
  // what they contain or how they merge.
  KvList reference;
  for (const std::size_t budget : {std::size_t{0}, std::size_t{256},
                                   std::size_t{1} << 20}) {
    SpoolConfig config;
    config.page_bytes = 128;
    config.budget_bytes = budget;
    SpoolBuffer spool(config);
    Rng rng(7);
    for (int i = 0; i < 300; ++i) {
      spool.append("key" + std::to_string(rng() % 11),
                   "payload" + std::to_string(i));
    }
    spool.finish();
    const KvList got = drain(spool);
    if (reference.empty()) {
      reference = got;
    } else {
      EXPECT_EQ(got, reference) << "budget=" << budget;
    }
  }
}

TEST(SpoolBuffer, OversizedRecordsRoundTripInEveryMode) {
  // Every fifth record is larger than a 32-byte page and takes a page of
  // its own: spilled and resident, through a multi-pass merge.
  KvList records;
  Rng rng(13);
  for (int i = 0; i < 40; ++i) {
    records.emplace_back("k" + std::to_string(rng() % 4),
                         std::string(i % 5 == 0 ? 100 + i : i % 7, 'a' + i));
  }
  const KvList sorted = stable_sorted(records);
  for (const std::size_t budget :
       {std::size_t{0}, std::numeric_limits<std::size_t>::max()}) {
    SCOPED_TRACE("budget=" + std::to_string(budget));
    SpoolConfig config;
    config.page_bytes = 32;
    config.budget_bytes = budget;
    config.fan_in = 2;
    SpoolBuffer spool(config);
    for (const auto& [key, value] : records) spool.append(key, value);
    spool.finish();
    EXPECT_EQ(spool.records(), records.size());
    EXPECT_EQ(spool.pages_spilled() > 0, budget == 0);
    EXPECT_EQ(drain(spool), sorted);
  }
}

TEST(SpoolBuffer, MisuseIsTypedError) {
  SpoolConfig config;
  SpoolBuffer spool(config);
  spool.append("k", "v");
  EXPECT_THROW(
      spool.for_each_sorted([](std::string_view, std::string_view) {}),
      InvalidArgument);  // before finish
  spool.finish();
  EXPECT_THROW(spool.append("k2", "v2"), InvalidArgument);  // after finish
}

/// `records[begin, end)` framed as one run.
std::string framed_run(const KvList& records, std::size_t begin,
                       std::size_t end) {
  std::string run;
  for (std::size_t i = begin; i < end; ++i) {
    append_record_frame(run, records[i].first, records[i].second);
  }
  return run;
}

TEST(SpoolBuffer, AppendRunMatchesPerRecordAppend) {
  // Records of 9 to 128 framed bytes, some larger than every small page,
  // few keys so the sorted stream has ties.
  KvList records;
  Rng rng(29);
  for (int i = 0; i < 12; ++i) {
    records.emplace_back("k" + std::to_string(rng() % 3),
                         std::string(i % 4 == 0 ? 117 : i, 'a' + i));
  }
  for (const std::size_t page_bytes :
       {std::size_t{16}, std::size_t{48}, std::size_t{4096}}) {
    for (const std::size_t budget :
         {std::size_t{0}, std::size_t{1},
          std::numeric_limits<std::size_t>::max()}) {
      const auto build = [&](MetricsRegistry& registry, std::size_t split) {
        SpoolConfig config;
        config.page_bytes = page_bytes;
        config.budget_bytes = budget;
        config.fan_in = 2;
        config.metrics = &registry;
        auto spool = std::make_unique<SpoolBuffer>(config);
        if (split > records.size()) {  // the per-record reference
          for (const auto& [key, value] : records) spool->append(key, value);
        } else {
          spool->append_run(framed_run(records, 0, split));
          EXPECT_EQ(spool->records(), split);
          spool->append_run(framed_run(records, split, records.size()));
        }
        spool->finish();
        return spool;
      };
      MetricsRegistry reference_registry;
      const auto reference = build(reference_registry, records.size() + 1);
      const KvList reference_stream = drain(*reference);
      for (std::size_t split = 0; split <= records.size(); ++split) {
        SCOPED_TRACE("page_bytes=" + std::to_string(page_bytes) +
                     " budget=" + std::to_string(budget) +
                     " split=" + std::to_string(split));
        MetricsRegistry registry;
        const auto spool = build(registry, split);
        EXPECT_EQ(spool->records(), reference->records());
        EXPECT_EQ(spool->record_bytes(), reference->record_bytes());
        EXPECT_EQ(spool->pages_spilled(), reference->pages_spilled());
        EXPECT_EQ(drain(*spool), reference_stream);
        for (const char* gauge :
             {"spill.pages", "spill.bytes_written", "spill.bytes_read"}) {
          EXPECT_EQ(registry.gauge_value(gauge),
                    reference_registry.gauge_value(gauge))
              << gauge;
        }
      }
    }
  }
}

TEST(SpoolBuffer, MalformedRunIsTypedError) {
  const KvList good = {{"key", "value"}, {"k2", ""}};
  const std::string valid = framed_run(good, 0, good.size());
  std::string key_past_end;
  append_record_frame(key_past_end, "key", "value");
  key_past_end.resize(key_past_end.size() - 6);  // cut inside the key
  const std::string value_past_end = valid.substr(0, 8 + 3 + 4);
  for (const std::string& bad :
       {valid.substr(0, 5),  // truncated 8-byte header
        key_past_end, value_past_end,
        valid + std::string(3, '\0')}) {  // trailing partial header
    SpoolConfig config;
    SpoolBuffer spool(config);
    EXPECT_THROW(spool.append_run(bad), IoError);
    EXPECT_THROW(count_record_frames(bad), IoError);
    // Nothing of the malformed run was appended; the spool still works.
    EXPECT_EQ(spool.records(), 0u);
    EXPECT_EQ(spool.record_bytes(), 0u);
    spool.append_run(valid);
    spool.finish();
    EXPECT_EQ(drain(spool), (KvList{{"k2", ""}, {"key", "value"}}));
  }
}

TEST(SpoolBuffer, ZeroBudgetAccountingMatchesShuffleConvention) {
  SpoolConfig config;
  SpoolBuffer spool(config);
  spool.append("ab", "cde");  // 2 + 3 + 2 framing = 7
  spool.finish();
  EXPECT_EQ(spool.record_bytes(), 7u);
  EXPECT_EQ(spool.pages_spilled(), 1u);
}

TEST(SpoolFaults, InjectedPageIoRetriesAndCounts) {
  MetricsRegistry registry;
  FaultInjector injector(
      FaultPlan::parse("seed=3;spill.page_io:nth=2:max=4:kind=corrupt"),
      &registry);
  SpoolConfig config;
  config.page_bytes = 64;
  config.faults = &injector;
  config.metrics = &registry;
  SpoolBuffer spool(config);
  KvList appended;
  for (int i = 0; i < 120; ++i) {
    spool.append("k" + std::to_string(i), "v");
    appended.emplace_back("k" + std::to_string(i), "v");
  }
  spool.finish();
  EXPECT_EQ(drain(spool), stable_sorted(appended));
  const auto fired = static_cast<std::int64_t>(injector.fired("spill.page_io"));
  EXPECT_GT(fired, 0);
  // Every injected fault failed exactly one attempt, and every failed
  // attempt was retried exactly once.
  EXPECT_EQ(registry.counter_value("retry.spill_page_io"), fired);
  EXPECT_EQ(registry.counter_value("fault.injected.spill.page_io"), fired);
  EXPECT_GT(registry.gauge_value("spill.bytes_written"), 0);
  EXPECT_GT(registry.gauge_value("spill.bytes_read"), 0);
  EXPECT_GT(registry.gauge_value("spill.pages"), 0);
  EXPECT_GT(registry.timer_count("spill.page_io"), 0);
}

TEST(SpoolFaults, ExhaustedAttemptsAreIoError) {
  MetricsRegistry registry;
  // Every call fails and max_attempts is 2: writes can never succeed.
  FaultInjector injector(FaultPlan::parse("seed=1;spill.page_io:nth=1"),
                         &registry);
  SpoolConfig config;
  config.max_attempts = 2;
  config.faults = &injector;
  config.metrics = &registry;
  SpoolBuffer spool(config);
  spool.append("k", "v");
  EXPECT_THROW(spool.finish(), IoError);
  EXPECT_EQ(registry.counter_value("retry.spill_page_io"), 1);
}

TEST(SpoolFaults, OnDiskTamperingIsCaughtByCrc) {
  SpoolConfig config;
  SpoolBuffer spool(config);
  const std::string value(500, 'z');
  spool.append("key", value);
  spool.finish();
  ASSERT_EQ(spool.pages_spilled(), 1u);
  // The spill file is unlinked, so tampering goes through its descriptor:
  // flip one payload byte behind the spool's back (offset 16 skips the
  // page header).
  const int fd = spool.spill_fd();
  ASSERT_GE(fd, 0);
  char byte = 0;
  ASSERT_EQ(::pread(fd, &byte, 1, 20), 1);
  byte = static_cast<char>(byte ^ 0x7F);
  ASSERT_EQ(::pwrite(fd, &byte, 1, 20), 1);
  EXPECT_THROW(drain(spool), IoError);
}

}  // namespace
}  // namespace dasc
