#include "util/table.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace speedbal {
namespace {

TEST(Table, AlignedOutputContainsAllCells) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
  // Header rule present.
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, ColumnsAligned) {
  Table t({"a", "b"});
  t.add_row({"xxxx", "1"});
  t.add_row({"y", "2"});
  std::ostringstream os;
  t.print(os);
  std::istringstream in(os.str());
  std::string header;
  std::string rule;
  std::string r1;
  std::string r2;
  std::getline(in, header);
  std::getline(in, rule);
  std::getline(in, r1);
  std::getline(in, r2);
  // The second column starts at the same offset in both rows.
  EXPECT_EQ(r1.find('1'), r2.find('2'));
}

TEST(Table, ShortRowsArePadded) {
  Table t({"a", "b", "c"});
  t.add_row({"only"});
  std::ostringstream os;
  t.print(os);
  EXPECT_EQ(os.str(), "a     b  c\n----------\nonly     \n");
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(3.0, 0), "3");
  EXPECT_EQ(Table::num(-1.5, 1), "-1.5");
}

TEST(Table, RowsCount) {
  Table t({"a"});
  EXPECT_EQ(t.rows(), 0u);
  t.add_row({"1"});
  t.add_row({"2"});
  EXPECT_EQ(t.rows(), 2u);
}

TEST(PrintHeading, Format) {
  std::ostringstream os;
  print_heading(os, "Figure 3");
  EXPECT_EQ(os.str(), "\n== Figure 3 ==\n");
}

}  // namespace
}  // namespace speedbal
