#include "common/ini.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace hbmvolt {
namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

/// Strips a trailing comment that is not inside the value's leading text
/// (simple rule: ';' or '#' preceded by whitespace or at start).
std::string_view strip_comment(std::string_view line) {
  for (std::size_t i = 0; i < line.size(); ++i) {
    if ((line[i] == ';' || line[i] == '#') &&
        (i == 0 || std::isspace(static_cast<unsigned char>(line[i - 1])))) {
      return line.substr(0, i);
    }
  }
  return line;
}

}  // namespace

Result<IniFile> IniFile::parse(std::string_view text) {
  IniFile ini;
  std::string section;
  std::size_t line_number = 0;
  std::size_t position = 0;

  while (position <= text.size()) {
    const std::size_t end = text.find('\n', position);
    std::string_view line =
        text.substr(position, end == std::string_view::npos
                                  ? std::string_view::npos
                                  : end - position);
    position = end == std::string_view::npos ? text.size() + 1 : end + 1;
    ++line_number;

    line = trim(strip_comment(line));
    if (line.empty()) continue;

    if (line.front() == '[') {
      if (line.back() != ']' || line.size() < 3) {
        return invalid_argument("line " + std::to_string(line_number) +
                                ": malformed section header");
      }
      section = std::string(trim(line.substr(1, line.size() - 2)));
      continue;
    }

    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return invalid_argument("line " + std::to_string(line_number) +
                              ": expected key = value");
    }
    const std::string key{trim(line.substr(0, eq))};
    if (key.empty()) {
      return invalid_argument("line " + std::to_string(line_number) +
                              ": empty key");
    }
    ini.sections_[section][key] = std::string(trim(line.substr(eq + 1)));
  }
  return ini;
}

Result<IniFile> IniFile::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return not_found("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str());
}

bool IniFile::has(const std::string& section, const std::string& key) const {
  const auto it = sections_.find(section);
  return it != sections_.end() && it->second.contains(key);
}

std::optional<std::string> IniFile::get(const std::string& section,
                                        const std::string& key) const {
  const auto it = sections_.find(section);
  if (it == sections_.end()) return std::nullopt;
  const auto kv = it->second.find(key);
  if (kv == it->second.end()) return std::nullopt;
  return kv->second;
}

Result<std::string> IniFile::get_string(const std::string& section,
                                        const std::string& key) const {
  auto value = get(section, key);
  if (!value.has_value()) {
    return not_found("[" + section + "] " + key + " missing");
  }
  return *value;
}

Result<double> IniFile::get_double(const std::string& section,
                                   const std::string& key) const {
  auto value = get_string(section, key);
  if (!value.is_ok()) return value.status();
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(value.value().c_str(), &end);
  if (end == value.value().c_str() || *end != '\0' || errno == ERANGE) {
    return invalid_argument("[" + section + "] " + key +
                            ": not a number: " + value.value());
  }
  return parsed;
}

Result<std::int64_t> IniFile::get_int(const std::string& section,
                                      const std::string& key) const {
  auto value = get_string(section, key);
  if (!value.is_ok()) return value.status();
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(value.value().c_str(), &end, 0);
  if (end == value.value().c_str() || *end != '\0' || errno == ERANGE) {
    return invalid_argument("[" + section + "] " + key +
                            ": not an integer: " + value.value());
  }
  return static_cast<std::int64_t>(parsed);
}

Result<std::uint64_t> IniFile::get_uint64(const std::string& section,
                                          const std::string& key) const {
  auto value = get_string(section, key);
  if (!value.is_ok()) return value.status();
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed =
      std::strtoull(value.value().c_str(), &end, 0);
  if (end == value.value().c_str() || *end != '\0' || errno == ERANGE ||
      value.value().front() == '-') {
    return invalid_argument("[" + section + "] " + key +
                            ": not an unsigned integer: " + value.value());
  }
  return static_cast<std::uint64_t>(parsed);
}

void IniFile::set(const std::string& section, const std::string& key,
                  std::string value) {
  sections_[section][key] = std::move(value);
}

std::string IniFile::to_string() const {
  std::ostringstream os;
  for (const auto& [section, keys] : sections_) {
    if (!section.empty()) os << '[' << section << "]\n";
    for (const auto& [key, value] : keys) {
      os << key << " = " << value << '\n';
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace hbmvolt
