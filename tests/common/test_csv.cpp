#include "src/common/csv.hpp"

#include <gtest/gtest.h>

#include <cstdio>

#include "test_util.hpp"

namespace memhd::common {
namespace {

TEST(Csv, WriteReadRoundTrip) {
  const std::string path = testing::temp_path("memhd_csv_rt.csv");
  {
    CsvWriter w(path);
    w.write_header({"a", "b", "c"});
    w.write_row({"1", "hello", "2.5"});
    w.write_row({"2", "with,comma", "x"});
    w.write_row({"3", "with\"quote", "y"});
  }
  const auto rows = read_csv(path);
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(rows[1][1], "hello");
  EXPECT_EQ(rows[2][1], "with,comma");
  EXPECT_EQ(rows[3][1], "with\"quote");
  std::remove(path.c_str());
}

TEST(Csv, SplitLinePlain) {
  EXPECT_EQ(split_csv_line("a,b,c"),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(Csv, SplitLineQuoted) {
  EXPECT_EQ(split_csv_line("\"a,b\",c"),
            (std::vector<std::string>{"a,b", "c"}));
}

TEST(Csv, SplitLineDoubledQuote) {
  EXPECT_EQ(split_csv_line("\"say \"\"hi\"\"\",2"),
            (std::vector<std::string>{"say \"hi\"", "2"}));
}

TEST(Csv, SplitLineTrailingEmptyCell) {
  EXPECT_EQ(split_csv_line("a,"), (std::vector<std::string>{"a", ""}));
}

TEST(Csv, SplitLineStripsCarriageReturn) {
  EXPECT_EQ(split_csv_line("a,b\r"), (std::vector<std::string>{"a", "b"}));
}

TEST(Csv, ReadMissingFileThrows) {
  EXPECT_THROW(read_csv("/nonexistent/definitely/missing.csv"),
               std::runtime_error);
}

TEST(Csv, WriterBadPathThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent/dir/file.csv"), std::runtime_error);
}

TEST(Csv, FormatDouble) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(-1.0, 1), "-1.0");
  EXPECT_EQ(format_double(0.5), "0.5000");
}

}  // namespace
}  // namespace memhd::common
