/// \file table_writer.hpp
/// \brief Column-aligned ASCII tables and CSV output.
///
/// The benchmark harness prints the paper's Tables I/II in the same row
/// order as the publication; TableWriter handles the formatting. Cells are
/// strings; helpers format values in the paper's scientific style
/// (e.g. 1.25e+11).

#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace fhp {

/// Accumulates rows and renders a column-aligned table with a header rule.
class TableWriter {
 public:
  /// \param title optional caption printed above the table.
  explicit TableWriter(std::string title = {}) : title_(std::move(title)) {}

  /// Set the header row (defines the column count).
  void set_header(std::vector<std::string> header);

  /// Append a data row; must match the header width if one was set.
  void add_row(std::vector<std::string> row);

  /// Render as an aligned ASCII table.
  void render(std::ostream& os) const;

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format in the paper's scientific notation with 3 significant digits,
/// e.g. 1.25e+11. Values in [0.01, 9999] are printed in fixed notation.
[[nodiscard]] std::string format_measure(double value);

/// Format a ratio with 3 decimal places (Figure 1 style).
[[nodiscard]] std::string format_ratio(double value);

}  // namespace fhp
