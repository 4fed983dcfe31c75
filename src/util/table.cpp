#include "util/table.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "util/json.hpp"

namespace speedbal {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());

  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << row[c];
      if (c + 1 < row.size())
        os << std::string(width[c] - row[c].size() + 2, ' ');
    }
    os << '\n';
  };
  emit(headers_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < width.size(); ++c)
    total += width[c] + (c + 1 < width.size() ? 2 : 0);
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit(row);
}

void Table::write_json(JsonWriter& w) const {
  w.begin_array();
  for (const auto& row : rows_) {
    w.begin_object();
    for (std::size_t c = 0; c < row.size(); ++c) {
      w.key(headers_[c]);
      // Numeric cells become JSON numbers so downstream tooling can plot
      // them without re-parsing strings.
      const std::string& cell = row[c];
      char* end = nullptr;
      const double v = std::strtod(cell.c_str(), &end);
      if (!cell.empty() && end == cell.c_str() + cell.size())
        w.value(v);
      else
        w.value(cell);
    }
    w.end_object();
  }
  w.end_array();
}

void print_heading(std::ostream& os, std::string_view title) {
  os << "\n== " << title << " ==\n";
}

}  // namespace speedbal
