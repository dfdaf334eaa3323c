#include "data/dataset_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "data/synthetic.hpp"

namespace dasc::data {
namespace {

class DatasetIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("dasc_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

TEST_F(DatasetIoTest, CsvRoundTripWithLabels) {
  Rng rng(1);
  MixtureParams params;
  params.n = 20;
  params.dim = 3;
  const PointSet original = make_gaussian_mixture(params, rng);
  save_csv(original, path("points.csv"));
  const PointSet loaded = load_csv(path("points.csv"), true);
  ASSERT_EQ(loaded.size(), original.size());
  ASSERT_EQ(loaded.dim(), original.dim());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded.label(i), original.label(i));
    for (std::size_t d = 0; d < original.dim(); ++d) {
      EXPECT_DOUBLE_EQ(loaded.at(i, d), original.at(i, d));
    }
  }
}

TEST_F(DatasetIoTest, CsvRoundTripWithoutLabels) {
  Rng rng(2);
  const PointSet original = make_uniform(10, 4, rng);
  save_csv(original, path("plain.csv"));
  const PointSet loaded = load_csv(path("plain.csv"), false);
  EXPECT_EQ(loaded.size(), 10u);
  EXPECT_EQ(loaded.dim(), 4u);
  EXPECT_FALSE(loaded.has_labels());
}

TEST_F(DatasetIoTest, BinaryRoundTrip) {
  Rng rng(3);
  MixtureParams params;
  params.n = 33;
  params.dim = 5;
  const PointSet original = make_gaussian_mixture(params, rng);
  save_binary(original, path("points.bin"));
  const PointSet loaded = load_binary(path("points.bin"));
  ASSERT_EQ(loaded.size(), original.size());
  EXPECT_EQ(loaded.values(), original.values());
  EXPECT_EQ(loaded.labels(), original.labels());
}

TEST_F(DatasetIoTest, LoadMissingFileThrows) {
  EXPECT_THROW(load_csv(path("nope.csv"), false), dasc::IoError);
  EXPECT_THROW(load_binary(path("nope.bin")), dasc::IoError);
}

TEST_F(DatasetIoTest, MalformedCsvThrows) {
  {
    std::ofstream out(path("bad.csv"));
    out << "1.0,2.0\n1.0,not_a_number\n";
  }
  EXPECT_THROW(load_csv(path("bad.csv"), false), dasc::IoError);
}

TEST_F(DatasetIoTest, InconsistentColumnCountThrows) {
  {
    std::ofstream out(path("ragged.csv"));
    out << "1.0,2.0\n3.0\n";
  }
  EXPECT_THROW(load_csv(path("ragged.csv"), false), dasc::IoError);
}

TEST_F(DatasetIoTest, TrailingJunkInCsvCellThrows) {
  {
    std::ofstream out(path("junk.csv"));
    out << "1.0,2.0\n1.5x,2.0\n";
  }
  EXPECT_THROW(load_csv(path("junk.csv"), false), dasc::IoError);
}

TEST_F(DatasetIoTest, EmptyCsvCellThrows) {
  {
    std::ofstream out(path("hole.csv"));
    out << "1.0,,2.0\n";
  }
  EXPECT_THROW(load_csv(path("hole.csv"), false), dasc::IoError);
}

TEST_F(DatasetIoTest, TrailingCommaInCsvRowThrows) {
  // The empty last cell used to be dropped silently, turning a 3-column
  // row into a 2-column one.
  {
    std::ofstream out(path("trailing.csv"));
    out << "1,2,\n3,4,\n";
  }
  EXPECT_THROW(load_csv(path("trailing.csv"), false), dasc::IoError);
}

TEST_F(DatasetIoTest, NonIntegerLabelThrows) {
  for (const char* label : {"2.7", "nan", "inf", "3e9", "-3e9"}) {
    {
      std::ofstream out(path("labels.csv"));
      out << "0.5,1.5,1\n0.5,1.5," << label << "\n";
    }
    EXPECT_THROW(load_csv(path("labels.csv"), true), dasc::IoError) << label;
  }
  // Integral values in int range load, however they are spelled.
  {
    std::ofstream out(path("labels.csv"));
    out << "0.5,1.5,-3.0\n0.5,1.5,2147483647\n";
  }
  const PointSet loaded = load_csv(path("labels.csv"), true);
  EXPECT_EQ(loaded.labels(), (std::vector<int>{-3, 2147483647}));
}

TEST_F(DatasetIoTest, CrlfLineEndsLoad) {
  {
    std::ofstream out(path("crlf.csv"), std::ios::binary);
    out << "1.0,2.0,0\r\n3.0,4.0,1\r\n";
  }
  const PointSet loaded = load_csv(path("crlf.csv"), true);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.dim(), 2u);
  EXPECT_EQ(loaded.at(1, 1), 4.0);
  EXPECT_EQ(loaded.labels(), (std::vector<int>{0, 1}));
}

TEST_F(DatasetIoTest, EmptyCsvThrows) {
  { std::ofstream out(path("empty.csv")); }
  EXPECT_THROW(load_csv(path("empty.csv"), false), dasc::IoError);
}

TEST(RecordSerialization, RoundTripPreservesPrecision) {
  const std::vector<double> point{0.1234567890123456, -7.5, 1e-17};
  const std::string record = point_to_record(point);
  const std::vector<double> back = record_to_point(record);
  ASSERT_EQ(back.size(), point.size());
  for (std::size_t d = 0; d < point.size(); ++d) {
    EXPECT_DOUBLE_EQ(back[d], point[d]);
  }
}

TEST(RecordSerialization, MalformedRecordThrows) {
  EXPECT_THROW(record_to_point("1.0,abc"), dasc::IoError);
}

TEST(RecordSerialization, TrailingJunkInCellThrows) {
  EXPECT_THROW(record_to_point("1.5x,2"), dasc::IoError);
  EXPECT_THROW(record_to_point("0.25abc"), dasc::IoError);
}

TEST(RecordSerialization, EmptyCellThrows) {
  EXPECT_THROW(record_to_point("1,2,"), dasc::IoError);
  EXPECT_THROW(record_to_point("1,,2"), dasc::IoError);
  EXPECT_THROW(record_to_point(","), dasc::IoError);
}

TEST(RecordSerialization, EmptyRecordIsZeroDimensionalPoint) {
  EXPECT_TRUE(record_to_point(point_to_record({})).empty());
}

}  // namespace
}  // namespace dasc::data
