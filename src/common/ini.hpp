// Minimal INI parser/writer for experiment configuration files.
//
// Supported syntax:
//   [section]
//   key = value        ; comment
//   # full-line comment
//
// Keys are case-sensitive; whitespace around section names, keys and
// values is trimmed; later duplicates overwrite earlier ones.  No
// external dependencies -- the experiment tools must build on a bare
// lab machine.

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "common/status.hpp"

namespace hbmvolt {

class IniFile {
 public:
  IniFile() = default;

  /// Parses INI text; reports the first syntax error with its line number.
  static Result<IniFile> parse(std::string_view text);

  /// Reads and parses a file.
  static Result<IniFile> load(const std::string& path);

  [[nodiscard]] bool has(const std::string& section,
                         const std::string& key) const;

  [[nodiscard]] std::optional<std::string> get(const std::string& section,
                                               const std::string& key) const;

  /// Typed getters: NOT_FOUND if absent, INVALID_ARGUMENT if unparsable.
  [[nodiscard]] Result<std::string> get_string(const std::string& section,
                                               const std::string& key) const;
  [[nodiscard]] Result<double> get_double(const std::string& section,
                                          const std::string& key) const;
  [[nodiscard]] Result<std::int64_t> get_int(const std::string& section,
                                             const std::string& key) const;
  [[nodiscard]] Result<std::uint64_t> get_uint64(const std::string& section,
                                                 const std::string& key) const;

  void set(const std::string& section, const std::string& key,
           std::string value);

  /// Serializes back to INI text (sections and keys sorted).
  [[nodiscard]] std::string to_string() const;

 private:
  std::map<std::string, std::map<std::string, std::string>> sections_;
};

}  // namespace hbmvolt
