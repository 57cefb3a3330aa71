#include "common/csv.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>

#include "common/rng.hpp"

namespace dmfsgd::common {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("dmfsgd_csv_test_") + info->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(CsvTest, RoundTripsHeaderAndRows) {
  const auto path = dir_ / "basic.csv";
  WriteCsv(path, {"a", "b"}, {{"1", "2"}, {"3", "4"}});
  const CsvDocument doc = ReadCsv(path);
  EXPECT_EQ(doc.header, (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(doc.rows.size(), 2u);
  EXPECT_EQ(doc.rows[0], (std::vector<std::string>{"1", "2"}));
  EXPECT_EQ(doc.rows[1], (std::vector<std::string>{"3", "4"}));
}

TEST_F(CsvTest, HeaderlessMode) {
  const auto path = dir_ / "noheader.csv";
  WriteCsv(path, {}, {{"x", "y"}});
  const CsvDocument doc = ReadCsv(path, /*has_header=*/false);
  EXPECT_TRUE(doc.header.empty());
  ASSERT_EQ(doc.rows.size(), 1u);
  EXPECT_EQ(doc.rows[0][0], "x");
}

TEST_F(CsvTest, CustomSeparator) {
  const auto path = dir_ / "tsv.tsv";
  WriteCsv(path, {"a", "b"}, {{"1,5", "2"}}, '\t');
  const CsvDocument doc = ReadCsv(path, true, '\t');
  EXPECT_EQ(doc.rows[0][0], "1,5");
}

TEST_F(CsvTest, RejectsFieldContainingSeparator) {
  const auto path = dir_ / "bad.csv";
  EXPECT_THROW(WriteCsv(path, {"a"}, {{"1,2"}}), std::invalid_argument);
  EXPECT_THROW(WriteCsv(path, {"a"}, {{"line\nbreak"}}), std::invalid_argument);
}

TEST_F(CsvTest, CreatesParentDirectories) {
  const auto path = dir_ / "deep" / "nested" / "file.csv";
  WriteCsv(path, {"h"}, {{"v"}});
  EXPECT_TRUE(std::filesystem::exists(path));
}

TEST_F(CsvTest, ReadMissingFileThrows) {
  EXPECT_THROW((void)ReadCsv(dir_ / "nope.csv"), std::runtime_error);
}

TEST(SplitCsvLine, HandlesEmptyFields) {
  const auto fields = SplitCsvLine("a,,c");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[1], "");
}

TEST(SplitCsvLine, SingleField) {
  const auto fields = SplitCsvLine("hello");
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "hello");
}

TEST(SplitCsvLine, TrailingSeparatorYieldsEmptyField) {
  const auto fields = SplitCsvLine("a,b,");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[2], "");
}

TEST(FormatDouble, RoundTripsThroughParse) {
  for (const double value : {0.0, 1.5, -3.25, 1e-9, 123456.789, 42.1}) {
    EXPECT_DOUBLE_EQ(ParseDouble(FormatDouble(value)), value);
  }
}

TEST(ParseDouble, RejectsGarbage) {
  EXPECT_THROW((void)ParseDouble("abc"), std::invalid_argument);
  EXPECT_THROW((void)ParseDouble("1.5x"), std::invalid_argument);
  EXPECT_THROW((void)ParseDouble(""), std::invalid_argument);
}

TEST(ParseDouble, AcceptsScientificNotation) {
  EXPECT_DOUBLE_EQ(ParseDouble("1e3"), 1000.0);
  EXPECT_DOUBLE_EQ(ParseDouble("-2.5e-2"), -0.025);
}

TEST(FormatDouble, EdgeValuesRoundTripBitwise) {
  // Bitwise (memcmp), not EXPECT_DOUBLE_EQ: -0.0 == 0.0 and 4-ulp slack
  // would both hide a lossy path.  Subnormals are the strtod failure mode.
  const double largest_subnormal = std::nextafter(DBL_MIN, 0.0);
  for (const double value :
       {std::numeric_limits<double>::denorm_min(), 1e-310, largest_subnormal,
        -largest_subnormal, -0.0, DBL_MIN, DBL_MAX, -DBL_MAX, 0.1, 1.0 / 3.0}) {
    const double parsed = ParseDouble(FormatDouble(value));
    EXPECT_EQ(std::memcmp(&parsed, &value, sizeof(double)), 0)
        << FormatDouble(value);
  }
}

TEST(FormatDouble, MatchesPrintfPercent17g) {
  // The on-disk snapshot bytes are pinned to %.17g; sweep seeded bit
  // patterns (every exponent, subnormals, infinities, NaNs) and ordinary
  // coordinate-sized values.
  Rng rng(1117);
  char expected[64];
  for (std::size_t t = 0; t < 200000; ++t) {
    double value = 0.0;
    if (t % 2 == 0) {
      const std::uint64_t bits = rng();
      std::memcpy(&value, &bits, sizeof(double));
    } else {
      value = rng.Normal() * std::pow(10.0, static_cast<double>(t % 13) - 6.0);
    }
    std::snprintf(expected, sizeof(expected), "%.17g", value);
    ASSERT_EQ(FormatDouble(value), std::string(expected)) << "draw " << t;
  }
  for (const double value :
       {0.0, -0.0, std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(), 1e-5, 1e16, 1e17, 123456.0}) {
    std::snprintf(expected, sizeof(expected), "%.17g", value);
    EXPECT_EQ(FormatDouble(value), std::string(expected));
  }
}

TEST(ParseDouble, RejectsValuesOutsideTheDoubleRange) {
  EXPECT_THROW((void)ParseDouble("1e400"), std::invalid_argument);
  EXPECT_THROW((void)ParseDouble("-1e400"), std::invalid_argument);
}

TEST(ParseDouble, AcceptsLeadingWhitespaceAndPlus) {
  EXPECT_EQ(ParseDouble(" 2.5"), 2.5);
  EXPECT_EQ(ParseDouble("+1e3"), 1000.0);
  EXPECT_THROW((void)ParseDouble("+-1"), std::invalid_argument);
  EXPECT_THROW((void)ParseDouble("+"), std::invalid_argument);
}

}  // namespace
}  // namespace dmfsgd::common
