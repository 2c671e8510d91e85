#include "common/table.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace hbmvolt {

void AsciiTable::set_header(std::vector<std::string> cells) {
  header_ = std::move(cells);
}

void AsciiTable::add_row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void AsciiTable::render(std::ostream& os) const {
  // Compute column widths over header and all rows.
  std::vector<std::size_t> widths;
  auto grow = [&widths](const std::vector<std::string>& cells) {
    if (cells.size() > widths.size()) widths.resize(cells.size(), 0);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      widths[i] = std::max(widths[i], cells[i].size());
    }
  };
  grow(header_);
  for (const auto& row : rows_) grow(row);

  auto print_rule = [&os, &widths]() {
    os << '+';
    for (const auto w : widths) {
      for (std::size_t i = 0; i < w + 2; ++i) os << '-';
      os << '+';
    }
    os << '\n';
  };
  auto print_cells = [&os, &widths](const std::vector<std::string>& cells) {
    os << '|';
    for (std::size_t i = 0; i < widths.size(); ++i) {
      const std::string& cell = i < cells.size() ? cells[i] : std::string{};
      os << ' ' << cell;
      for (std::size_t p = cell.size(); p < widths[i] + 1; ++p) os << ' ';
      os << '|';
    }
    os << '\n';
  };

  print_rule();
  if (!header_.empty()) {
    print_cells(header_);
    print_rule();
  }
  for (const auto& row : rows_) print_cells(row);
  print_rule();
}

std::string AsciiTable::to_string() const {
  std::ostringstream os;
  render(os);
  return os.str();
}

std::string CsvWriter::escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (const char c : cell) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

void CsvWriter::write_row(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) os_ << ',';
    os_ << escape(cells[i]);
  }
  os_ << '\n';
}

std::string format_double(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", digits, value);
  return buf;
}

std::string format_millivolts(int mv) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fV", mv / 1000.0);
  return buf;
}

}  // namespace hbmvolt
