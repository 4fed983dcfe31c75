#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace speedbal {

/// Minimal aligned-column table printer for the benchmark harnesses. Every
/// bench binary prints the rows/series of one paper table or figure through
/// this so that output is uniform and grep-friendly. Also emits CSV for
/// downstream plotting.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Append a row; the row is padded/truncated to the header width.
  void add_row(std::vector<std::string> cells);

  /// Convenience: formats doubles with the given precision.
  static std::string num(double v, int precision = 2);

  std::size_t rows() const { return rows_.size(); }

  /// Pretty-print with aligned columns and a rule under the header.
  void print(std::ostream& os) const;

  /// Emit as a JSON value through an in-progress writer: an array of
  /// objects, one per row, keyed by the column headers. Numeric-looking
  /// cells are emitted as numbers.
  void write_json(class JsonWriter& w) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Print a section heading used by the bench binaries ("== Figure 3 ==").
void print_heading(std::ostream& os, std::string_view title);

}  // namespace speedbal
