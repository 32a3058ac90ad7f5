// Tests for the table/CSV emitters and number formatting.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "util/table.hpp"

namespace autopn::util {
namespace {

TEST(TextTable, AlignsColumns) {
  TextTable t{{"name", "value"}};
  t.add_row({"a", "1"});
  t.add_row({"longer", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name    value"), std::string::npos);
  EXPECT_NE(out.find("longer  22"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TextTable, RejectsArityMismatch) {
  TextTable t{{"a", "b"}};
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(TextTable, RejectsEmptyHeader) {
  EXPECT_THROW(TextTable{std::vector<std::string>{}}, std::invalid_argument);
}

TEST(CsvWriter, PlainRow) {
  std::ostringstream os;
  CsvWriter csv{os};
  csv.write_row({"a", "b", "c"});
  EXPECT_EQ(os.str(), "a,b,c\n");
}

TEST(CsvWriter, QuotesSpecials) {
  std::ostringstream os;
  CsvWriter csv{os};
  csv.write_row({"x,y", "he said \"hi\"", "line\nbreak"});
  EXPECT_EQ(os.str(), "\"x,y\",\"he said \"\"hi\"\"\",\"line\nbreak\"\n");
}

TEST(Format, FmtDouble) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_double(2.0, 0), "2");
}

TEST(Format, FmtPercent) {
  EXPECT_EQ(fmt_percent(0.218, 1), "21.8%");
  EXPECT_EQ(fmt_percent(1.0, 0), "100%");
}

}  // namespace
}  // namespace autopn::util
