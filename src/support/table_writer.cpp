#include "support/table_writer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "support/error.hpp"

namespace fhp {

void TableWriter::set_header(std::vector<std::string> header) {
  header_ = std::move(header);
}

void TableWriter::add_row(std::vector<std::string> row) {
  if (!header_.empty()) {
    FHP_REQUIRE(row.size() == header_.size(),
                "row width does not match header width");
  }
  rows_.push_back(std::move(row));
}

void TableWriter::render(std::ostream& os) const {
  // Compute column widths over header + rows.
  std::vector<size_t> widths;
  auto absorb = [&widths](const std::vector<std::string>& row) {
    if (widths.size() < row.size()) widths.resize(row.size(), 0);
    for (size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  };
  if (!header_.empty()) absorb(header_);
  for (const auto& row : rows_) absorb(row);

  auto print_row = [&](const std::vector<std::string>& row) {
    os << "| ";
    for (size_t i = 0; i < widths.size(); ++i) {
      const std::string& cell = i < row.size() ? row[i] : std::string{};
      os << cell << std::string(widths[i] - cell.size(), ' ');
      os << (i + 1 < widths.size() ? " | " : " |");
    }
    os << '\n';
  };

  size_t total = 4;  // "| " + " |"
  for (size_t i = 0; i < widths.size(); ++i) {
    total += widths[i] + (i + 1 < widths.size() ? 3 : 0);
  }

  if (!title_.empty()) os << title_ << '\n';
  const std::string rule(total, '-');
  os << rule << '\n';
  if (!header_.empty()) {
    print_row(header_);
    os << rule << '\n';
  }
  for (const auto& row : rows_) print_row(row);
  os << rule << '\n';
}

std::string format_measure(double value) {
  char buf[48];
  const double a = std::fabs(value);
  if (value == 0.0) return "0";
  if (a >= 0.01 && a < 1.0e4) {
    std::snprintf(buf, sizeof buf, "%.3g", value);
  } else {
    std::snprintf(buf, sizeof buf, "%.2e", value);
  }
  return buf;
}

std::string format_ratio(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", value);
  return buf;
}

}  // namespace fhp
