#include "util/json.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "util/error.h"

namespace redopt::util {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    const auto byte = static_cast<unsigned char>(c);
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      default:
        if (byte < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", byte);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  // Integral values within the exactly-representable range print as plain
  // integers; everything else uses 17 significant digits, which round-trips
  // any double bit pattern.  std::to_chars is specified to print exactly
  // what printf's "%.0f" / "%.17g" print, without a stream or locale.
  char buf[32];
  const std::to_chars_result done =
      v == std::floor(v) && std::abs(v) < 1e15
          ? std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::fixed, 0)
          : std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 17);
  return std::string(buf, done.ptr);
}

void json_summary(const std::string& name, std::size_t threads,
                  const std::map<std::string, std::string>& params, double wall_seconds) {
  std::ostringstream os;
  os << "BENCH_JSON {\"bench\":\"" << json_escape(name) << "\",\"threads\":" << threads
     << ",\"params\":{";
  bool first = true;
  for (const auto& [key, value] : params) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(key) << "\":\"" << json_escape(value) << "\"";
  }
  os << "},\"wall_s\":" << wall_seconds << "}";
  std::cout << os.str() << "\n";
}

// ---------------------------------------------------------------- JsonValue

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  REDOPT_REQUIRE(kind == Kind::kObject, "json: member access on a non-object value");
  const JsonValue* value = find(key);
  REDOPT_REQUIRE(value != nullptr, "json: missing member: " + key);
  return *value;
}

bool JsonValue::as_bool() const {
  REDOPT_REQUIRE(kind == Kind::kBool, "json: expected a boolean value");
  return boolean;
}

double JsonValue::as_number() const {
  REDOPT_REQUIRE(kind == Kind::kNumber, "json: expected a number value");
  return number;
}

std::int64_t JsonValue::as_int(std::int64_t lo, std::int64_t hi) const {
  REDOPT_REQUIRE(kind == Kind::kNumber, "json: expected a number value");
  if (has_integer) {
    REDOPT_REQUIRE(integer >= lo && integer <= hi, "json: integer out of range");
    return integer;
  }
  const double v = number;
  REDOPT_REQUIRE(v == std::floor(v), "json: expected an integer value");
  REDOPT_REQUIRE(v >= static_cast<double>(lo) && v <= static_cast<double>(hi),
                 "json: integer out of range");
  return static_cast<std::int64_t>(v);
}

const std::string& JsonValue::as_string() const {
  REDOPT_REQUIRE(kind == Kind::kString, "json: expected a string value");
  return string;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  REDOPT_REQUIRE(kind == Kind::kArray, "json: expected an array value");
  return items;
}

// ---------------------------------------------------------------- serialize

namespace {

void serialize_into(const JsonValue& value, std::string& out) {
  switch (value.kind) {
    case JsonValue::Kind::kNull:
      out += "null";
      return;
    case JsonValue::Kind::kBool:
      out += value.boolean ? "true" : "false";
      return;
    case JsonValue::Kind::kNumber:
      if (value.has_integer) {
        out += std::to_string(value.integer);
      } else {
        out += json_number(value.number);
      }
      return;
    case JsonValue::Kind::kString:
      out += '"';
      out += json_escape(value.string);
      out += '"';
      return;
    case JsonValue::Kind::kArray: {
      out += '[';
      bool first = true;
      for (const JsonValue& item : value.items) {
        if (!first) out += ',';
        first = false;
        serialize_into(item, out);
      }
      out += ']';
      return;
    }
    case JsonValue::Kind::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, member] : value.members) {
        if (!first) out += ',';
        first = false;
        out += '"';
        out += json_escape(key);
        out += "\":";
        serialize_into(member, out);
      }
      out += '}';
      return;
    }
  }
}

}  // namespace

std::string json_serialize(const JsonValue& value) {
  std::string out;
  serialize_into(value, out);
  return out;
}

// ---------------------------------------------------------------- parser

namespace {

/// Strict recursive-descent JSON parser over a bounded character range.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value(0);
    skip_whitespace();
    REDOPT_REQUIRE(pos_ == text_.size(), "json: trailing characters after the document");
    return value;
  }

 private:
  static constexpr std::size_t kMaxDepth = 64;

  void fail(const std::string& what) const {
    throw PreconditionError("json: " + what + " at offset " + std::to_string(pos_));
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* literal) {
    const std::size_t len = std::string(literal).size();
    if (text_.compare(pos_, len, literal) != 0) return false;
    pos_ += len;
    return true;
  }

  JsonValue parse_value(std::size_t depth) {
    if (depth > kMaxDepth) fail("nesting deeper than 64 levels");
    skip_whitespace();
    const char c = peek();
    JsonValue value;
    switch (c) {
      case '{':
        return parse_object(depth);
      case '[':
        return parse_array(depth);
      case '"':
        value.kind = JsonValue::Kind::kString;
        value.string = parse_string();
        return value;
      case 't':
        if (!consume_literal("true")) fail("invalid literal");
        value.kind = JsonValue::Kind::kBool;
        value.boolean = true;
        return value;
      case 'f':
        if (!consume_literal("false")) fail("invalid literal");
        value.kind = JsonValue::Kind::kBool;
        value.boolean = false;
        return value;
      case 'n':
        if (!consume_literal("null")) fail("invalid literal");
        value.kind = JsonValue::Kind::kNull;
        return value;
      default:
        return parse_number();
    }
  }

  JsonValue parse_object(std::size_t depth) {
    JsonValue value;
    value.kind = JsonValue::Kind::kObject;
    expect('{');
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return value;
    }
    while (true) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      value.members.emplace_back(std::move(key), parse_value(depth + 1));
      skip_whitespace();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return value;
      }
      fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array(std::size_t depth) {
    JsonValue value;
    value.kind = JsonValue::Kind::kArray;
    expect('[');
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return value;
    }
    while (true) {
      value.items.push_back(parse_value(depth + 1));
      skip_whitespace();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return value;
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::uint32_t parse_hex4() {
    std::uint32_t code = 0;
    for (int k = 0; k < 4; ++k) {
      const char c = peek();
      ++pos_;
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        fail("invalid \\u escape digit");
      }
    }
    return code;
  }

  void append_utf8(std::string& out, std::uint32_t code) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("unescaped control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      const char esc = peek();
      ++pos_;
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'r':
          out += '\r';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          std::uint32_t code = parse_hex4();
          if (code >= 0xD800 && code <= 0xDBFF) {
            // High surrogate: a low surrogate escape must follow.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' || text_[pos_ + 1] != 'u') {
              fail("lone high surrogate");
            }
            pos_ += 2;
            const std::uint32_t low = parse_hex4();
            if (low < 0xDC00 || low > 0xDFFF) fail("invalid low surrogate");
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            fail("lone low surrogate");
          }
          append_utf8(out, code);
          break;
        }
        default:
          fail("invalid escape character");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      const bool number_char = (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
                               c == '+' || c == '-';
      if (!number_char) break;
      ++pos_;
    }
    const std::string token = text_.substr(start, pos_ - start);
    if (token.empty() || token == "-") fail("invalid number");
    char* end = nullptr;
    errno = 0;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      pos_ = start;
      fail("invalid number token: " + token);
    }
    if (errno == ERANGE || !std::isfinite(v)) {
      pos_ = start;
      fail("number out of double range: " + token);
    }
    JsonValue value;
    value.kind = JsonValue::Kind::kNumber;
    value.number = v;
    // Keep integer tokens exact: doubles round past 2^53, but scenario
    // seeds and counters are full-width integers.
    if (token.find_first_of(".eE") == std::string::npos) {
      errno = 0;
      char* int_end = nullptr;
      const long long exact = std::strtoll(token.c_str(), &int_end, 10);
      if (errno != ERANGE && int_end == token.c_str() + token.size()) {
        value.has_integer = true;
        value.integer = static_cast<std::int64_t>(exact);
      }
    }
    return value;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue json_parse(const std::string& text) { return JsonParser(text).parse_document(); }

}  // namespace redopt::util
