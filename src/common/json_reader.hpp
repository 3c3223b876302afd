// Minimal zero-dependency JSON reader.
//
// Just enough JSON to read back what the observability plane writes —
// metrics snapshots (MetricsRegistry::to_json), admin-plane /statz and
// /tracez documents — from tools (bbstat, tracedump --from-json) and
// tests, with no third-party dependency. Recursive descent over the full
// value grammar; numbers parse as double; object keys keep insertion
// order (the writers emit deterministically ordered documents, and tests
// compare against that order).
//
// This is a reader for OUR writers, not a general validator: it accepts
// the common \uXXXX escapes only for the BMP (emitting UTF-8), and depth
// is bounded to keep hostile inputs from recursing the stack away.
#pragma once

#include <cctype>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.hpp"

namespace e2e::json {

struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  bool is_null() const { return kind == Kind::kNull; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_bool() const { return kind == Kind::kBool; }

  /// First member named `key`, or nullptr (objects only).
  const Value* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

namespace detail {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<Value> parse() {
    auto value = parse_value(0);
    if (!value.ok()) return value;
    skip_ws();
    if (pos_ != text_.size()) {
      return fail("trailing characters after the top-level value");
    }
    return value;
  }

 private:
  static constexpr std::size_t kMaxDepth = 64;

  Result<Value> fail(const std::string& what) const {
    return make_error(ErrorCode::kBadMessage,
                      "json: " + what + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
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

  bool consume_word(const char* word) {
    std::size_t n = 0;
    while (word[n] != '\0') ++n;
    if (text_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  Result<Value> parse_value(std::size_t depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return parse_object(depth);
    if (c == '[') return parse_array(depth);
    if (c == '"') {
      auto s = parse_string();
      if (!s.ok()) return s.error();
      Value v;
      v.kind = Value::Kind::kString;
      v.string = std::move(s.value());
      return v;
    }
    if (consume_word("true")) {
      Value v;
      v.kind = Value::Kind::kBool;
      v.boolean = true;
      return v;
    }
    if (consume_word("false")) {
      Value v;
      v.kind = Value::Kind::kBool;
      v.boolean = false;
      return v;
    }
    if (consume_word("null")) return Value{};
    return parse_number();
  }

  Result<Value> parse_object(std::size_t depth) {
    Value v;
    v.kind = Value::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (consume('}')) return v;
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return fail("expected object key");
      }
      auto key = parse_string();
      if (!key.ok()) return key.error();
      skip_ws();
      if (!consume(':')) return fail("expected ':' after object key");
      auto member = parse_value(depth + 1);
      if (!member.ok()) return member;
      v.object.emplace_back(std::move(key.value()),
                            std::move(member.value()));
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return v;
      return fail("expected ',' or '}' in object");
    }
  }

  Result<Value> parse_array(std::size_t depth) {
    Value v;
    v.kind = Value::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (consume(']')) return v;
    while (true) {
      auto element = parse_value(depth + 1);
      if (!element.ok()) return element;
      v.array.push_back(std::move(element.value()));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) return v;
      return fail("expected ',' or ']' in array");
    }
  }

  Result<std::string> parse_string() {
    ++pos_;  // '"'
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c == '\\') {
        if (pos_ + 1 >= text_.size()) break;
        const char esc = text_[pos_ + 1];
        pos_ += 2;
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              return make_error(ErrorCode::kBadMessage,
                                "json: truncated \\u escape");
            }
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_ + static_cast<std::size_t>(i)];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return make_error(ErrorCode::kBadMessage,
                                  "json: bad \\u escape");
              }
            }
            pos_ += 4;
            // UTF-8 encode the BMP code point (no surrogate pairing —
            // our writers never emit astral-plane text).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            return make_error(ErrorCode::kBadMessage,
                              "json: unknown escape");
        }
        continue;
      }
      out += c;
      ++pos_;
    }
    return make_error(ErrorCode::kBadMessage, "json: unterminated string");
  }

  Result<Value> parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return fail("expected a value");
    Value v;
    v.kind = Value::Kind::kNumber;
    try {
      v.number = std::stod(text_.substr(start, pos_ - start));
    } catch (...) {
      return fail("malformed number");
    }
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace detail

/// Parse one JSON document.
inline Result<Value> parse(const std::string& text) {
  return detail::Parser(text).parse();
}

}  // namespace e2e::json
