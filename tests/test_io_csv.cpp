#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "io/csv.h"
#include "test_util.h"

namespace locpriv::io {
namespace {

TEST(CsvParse, SimpleFields) {
  const CsvRow row = parse_csv_line("a,b,c");
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0], "a");
  EXPECT_EQ(row[2], "c");
}

TEST(CsvParse, EmptyFieldsPreserved) {
  const CsvRow row = parse_csv_line("a,,c,");
  ASSERT_EQ(row.size(), 4u);
  EXPECT_EQ(row[1], "");
  EXPECT_EQ(row[3], "");
}

TEST(CsvParse, QuotedFieldWithComma) {
  const CsvRow row = parse_csv_line(R"(x,"a,b",y)");
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[1], "a,b");
}

TEST(CsvParse, EscapedQuotes) {
  const CsvRow row = parse_csv_line(R"("he said ""hi""",2)");
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[0], "he said \"hi\"");
}

TEST(CsvParse, StripsTrailingCarriageReturn) {
  const CsvRow row = parse_csv_line("a,b\r");
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[1], "b");
}

TEST(CsvFormat, QuotesOnlyWhenNeeded) {
  EXPECT_EQ(format_csv_row({"a", "b"}), "a,b");
  EXPECT_EQ(format_csv_row({"a,b"}), "\"a,b\"");
  EXPECT_EQ(format_csv_row({"say \"hi\""}), "\"say \"\"hi\"\"\"");
}

TEST(CsvRoundTrip, ParseFormatParse) {
  const CsvRow original{"plain", "with,comma", "with \"quote\"", ""};
  const CsvRow again = parse_csv_line(format_csv_row(original));
  EXPECT_EQ(again, original);
}

TEST(CsvStream, ReadSkipsBlankLines) {
  std::istringstream in("a,b\n\nc,d\n\r\n");
  const auto rows = read_csv(in);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1][0], "c");
}

TEST(CsvStream, WriteThenRead) {
  const std::vector<CsvRow> rows{{"h1", "h2"}, {"1", "x,y"}};
  std::ostringstream out;
  write_csv(out, rows);
  std::istringstream in(out.str());
  EXPECT_EQ(read_csv(in), rows);
}

TEST(CsvFile, MissingFileThrows) {
  EXPECT_THROW(read_csv_file("/nonexistent/path.csv"), std::runtime_error);
}

TEST(CsvFile, RoundTripThroughDisk) {
  const testutil::ScratchDir scratch;
  const std::string path = scratch.path("locpriv_csv_test.csv");
  const std::vector<CsvRow> rows{{"user", "value"}, {"u1", "3.14"}};
  write_csv_file(path, rows);
  EXPECT_EQ(read_csv_file(path), rows);
}

}  // namespace
}  // namespace locpriv::io
