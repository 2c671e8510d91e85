#include "common/json.hpp"

#include <cerrno>
#include <cstdlib>

namespace hbmvolt::json {

const Value* Value::find(std::string_view key) const noexcept {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Value> run() {
    Value value;
    HBMVOLT_RETURN_IF_ERROR(parse_value(value, /*depth=*/0));
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing characters");
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status fail(const char* what) const {
    return data_loss(std::string("JSON parse error at offset ") +
                     std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume_literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  Status parse_value(Value& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return parse_object(out, depth);
    if (c == '[') return parse_array(out, depth);
    if (c == '"') {
      out.kind = Value::Kind::kString;
      return parse_string(out.string);
    }
    if (consume_literal("true")) {
      out.kind = Value::Kind::kBool;
      out.boolean = true;
      return Status::ok();
    }
    if (consume_literal("false")) {
      out.kind = Value::Kind::kBool;
      out.boolean = false;
      return Status::ok();
    }
    if (consume_literal("null")) {
      out.kind = Value::Kind::kNull;
      return Status::ok();
    }
    return parse_number(out);
  }

  Status parse_object(Value& out, int depth) {
    ++pos_;  // '{'
    out.kind = Value::Kind::kObject;
    skip_ws();
    if (consume('}')) return Status::ok();
    for (;;) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return fail("expected object key");
      }
      std::string key;
      HBMVOLT_RETURN_IF_ERROR(parse_string(key));
      skip_ws();
      if (!consume(':')) return fail("expected ':'");
      Value value;
      HBMVOLT_RETURN_IF_ERROR(parse_value(value, depth + 1));
      out.members.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return Status::ok();
      return fail("expected ',' or '}'");
    }
  }

  Status parse_array(Value& out, int depth) {
    ++pos_;  // '['
    out.kind = Value::Kind::kArray;
    skip_ws();
    if (consume(']')) return Status::ok();
    for (;;) {
      Value value;
      HBMVOLT_RETURN_IF_ERROR(parse_value(value, depth + 1));
      out.items.push_back(std::move(value));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) return Status::ok();
      return fail("expected ',' or ']'");
    }
  }

  Status parse_string(std::string& out) {
    ++pos_;  // '"'
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::ok();
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return fail("bad \\u escape digit");
            }
          }
          // UTF-8 encode (no surrogate-pair handling; our writers only
          // emit \u for control characters).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  Status parse_number(Value& out) {
    const std::size_t start = pos_;
    consume('-');
    const std::size_t digits_start = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    if (pos_ == digits_start) return fail("expected a value");
    bool integral = true;
    if (pos_ < text_.size() &&
        (text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      if (consume('.')) {
        while (pos_ < text_.size() && text_[pos_] >= '0' &&
               text_[pos_] <= '9') {
          ++pos_;
        }
      }
      if (consume('e') || consume('E')) {
        if (!consume('+')) consume('-');
        while (pos_ < text_.size() && text_[pos_] >= '0' &&
               text_[pos_] <= '9') {
          ++pos_;
        }
      }
    }
    const std::string token(text_.substr(start, pos_ - start));
    out.kind = Value::Kind::kNumber;
    errno = 0;
    if (integral) {
      out.integer = std::strtoll(token.c_str(), nullptr, 10);
      out.is_integer = errno != ERANGE;
      out.number = static_cast<double>(out.integer);
      if (!out.is_integer) out.number = std::strtod(token.c_str(), nullptr);
    } else {
      out.number = std::strtod(token.c_str(), nullptr);
    }
    return Status::ok();
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Result<Value> parse(std::string_view text) { return Parser(text).run(); }

}  // namespace hbmvolt::json
