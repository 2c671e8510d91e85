// Tabular output helpers used by the report generators and benches: an
// ASCII table renderer for terminal output and a CSV writer for archiving
// figure data.

#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

namespace hbmvolt {

/// Column-aligned ASCII table.  Usage: set_header, add_row, render.
class AsciiTable {
 public:
  void set_header(std::vector<std::string> cells);
  void add_row(std::vector<std::string> cells);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }

  void render(std::ostream& os) const;
  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Minimal CSV writer (RFC 4180 quoting).
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& os) : os_(os) {}

  void write_row(const std::vector<std::string>& cells);

 private:
  static std::string escape(const std::string& cell);
  std::ostream& os_;
};

/// Formats a double with `digits` significant digits, trimming zeros.
[[nodiscard]] std::string format_double(double value, int digits = 4);

/// Formats a voltage in millivolts as "0.95V".
[[nodiscard]] std::string format_millivolts(int mv);

}  // namespace hbmvolt
