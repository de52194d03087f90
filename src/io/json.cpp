#include "io/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <limits>
#include <sstream>

namespace effitest::io::json {

const char* kind_name(Value::Kind kind) {
  switch (kind) {
    case Value::Kind::kNull: return "null";
    case Value::Kind::kBool: return "bool";
    case Value::Kind::kNumber: return "number";
    case Value::Kind::kString: return "string";
    case Value::Kind::kArray: return "array";
    case Value::Kind::kObject: return "object";
  }
  return "?";
}

Value Parser::parse() {
  Value v = parse_value();
  skip_ws();
  if (pos_ != text_.size()) fail("trailing content after the document");
  return v;
}

void Parser::fail_at(std::size_t line, const std::string& what) const {
  throw ParseError(source_ + " line " + std::to_string(line) + ": " + what,
                   line);
}

void Parser::fail(const std::string& what) const { fail_at(line_, what); }

void Parser::skip_ws() {
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c == '\n') {
      ++line_;
      ++pos_;
    } else if (std::isspace(static_cast<unsigned char>(c))) {
      ++pos_;
    } else if (c == '/' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '/') {
      while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
    } else {
      break;
    }
  }
}

char Parser::peek() {
  skip_ws();
  if (pos_ >= text_.size()) fail("unexpected end of input");
  return text_[pos_];
}

void Parser::expect(char c) {
  if (peek() != c) {
    fail(std::string("expected '") + c + "', got '" + text_[pos_] + "'");
  }
  ++pos_;
}

bool Parser::consume_keyword(const char* kw) {
  const std::size_t n = std::string(kw).size();
  if (text_.compare(pos_, n, kw) != 0) return false;
  pos_ += n;
  return true;
}

Value Parser::parse_value() {
  // Recursion guard: a pathological deeply-nested document must raise
  // ParseError, not overflow the stack. Real documents nest ~4 levels.
  struct DepthGuard {
    explicit DepthGuard(Parser& p) : parser(p) {
      if (++parser.depth_ > 64) parser.fail("nesting too deep");
    }
    ~DepthGuard() { --parser.depth_; }
    Parser& parser;
  } guard(*this);

  Value v;
  const char c = peek();
  v.line = line_;
  if (c == '{') {
    v.kind = Value::Kind::kObject;
    ++pos_;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      Value key = parse_value();
      if (key.kind != Value::Kind::kString) {
        fail_at(key.line, "object key must be a string");
      }
      for (const auto& [k, unused] : v.object) {
        (void)unused;
        if (k == key.string) {
          fail_at(key.line, "duplicate key \"" + key.string + "\"");
        }
      }
      expect(':');
      v.object.emplace_back(std::move(key.string), parse_value());
      const char next = peek();
      if (next == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      break;
    }
    return v;
  }
  if (c == '[') {
    v.kind = Value::Kind::kArray;
    ++pos_;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      const char next = peek();
      if (next == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      break;
    }
    return v;
  }
  if (c == '"') {
    v.kind = Value::Kind::kString;
    v.string = parse_string();
    return v;
  }
  if (c == 't' && consume_keyword("true")) {
    v.kind = Value::Kind::kBool;
    v.boolean = true;
    return v;
  }
  if (c == 'f' && consume_keyword("false")) {
    v.kind = Value::Kind::kBool;
    v.boolean = false;
    return v;
  }
  if (c == 'n' && consume_keyword("null")) {
    v.kind = Value::Kind::kNull;
    return v;
  }
  if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
    v.kind = Value::Kind::kNumber;
    v.number = parse_number();
    return v;
  }
  fail(std::string("unexpected character '") + c + "'");
}

namespace {

void append_utf8(std::string& out, unsigned code) {
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

}  // namespace

unsigned Parser::parse_hex4() {
  unsigned code = 0;
  for (int i = 0; i < 4; ++i) {
    if (pos_ >= text_.size()) fail("unterminated escape");
    const char h = text_[pos_++];
    code <<= 4;
    if (h >= '0' && h <= '9') {
      code |= static_cast<unsigned>(h - '0');
    } else if (h >= 'a' && h <= 'f') {
      code |= static_cast<unsigned>(h - 'a' + 10);
    } else if (h >= 'A' && h <= 'F') {
      code |= static_cast<unsigned>(h - 'A' + 10);
    } else {
      fail(std::string("malformed \\u escape digit '") + h + "'");
    }
  }
  return code;
}

std::string Parser::parse_string() {
  ++pos_;  // opening quote (peeked by caller)
  std::string out;
  while (true) {
    if (pos_ >= text_.size()) fail("unterminated string");
    const char c = text_[pos_++];
    if (c == '"') return out;
    if (c == '\n') fail("unterminated string");
    if (c != '\\') {
      out += c;
      continue;
    }
    if (pos_ >= text_.size()) fail("unterminated escape");
    const char e = text_[pos_++];
    switch (e) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'r': out += '\r'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'u': {
        // UTF-16 code unit(s): a high surrogate must be followed by a
        // \u-escaped low surrogate; the pair decodes to one code point.
        unsigned code = parse_hex4();
        if (code >= 0xD800 && code <= 0xDBFF) {
          if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
              text_[pos_ + 1] != 'u') {
            fail("unpaired surrogate in \\u escape");
          }
          pos_ += 2;
          const unsigned low = parse_hex4();
          if (low < 0xDC00 || low > 0xDFFF) {
            fail("unpaired surrogate in \\u escape");
          }
          code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        } else if (code >= 0xDC00 && code <= 0xDFFF) {
          fail("unpaired surrogate in \\u escape");
        }
        append_utf8(out, code);
        break;
      }
      default:
        fail(std::string("unsupported escape \\") + e);
    }
  }
}

double Parser::parse_number() {
  const std::size_t start = pos_;
  if (text_[pos_] == '-') ++pos_;
  const auto digits = [&] {
    const std::size_t before = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    return pos_ > before;
  };
  if (!digits()) fail("malformed number");
  if (pos_ < text_.size() && text_[pos_] == '.') {
    ++pos_;
    if (!digits()) fail("malformed number");
  }
  if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
    ++pos_;
    if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (!digits()) fail("malformed number");
  }
  const std::string token = text_.substr(start, pos_ - start);
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end == nullptr || *end != '\0' || !std::isfinite(value)) {
    fail("malformed number " + token);
  }
  return value;
}

std::string format_double(double v) {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return os.str();
}

std::string quote(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(static_cast<unsigned char>(c) >> 4) & 0xF];
          out += kHex[static_cast<unsigned char>(c) & 0xF];
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

void SchemaReader::fail(const Value& at, const std::string& what) const {
  parser_.fail_at(at.line, what);
}

const Value& SchemaReader::require(const Value& obj, const std::string& key,
                                   Value::Kind kind) const {
  const Value* v = obj.find(key);
  if (v == nullptr) fail(obj, "missing required key \"" + key + "\"");
  return typed(*v, key, kind);
}

const Value* SchemaReader::optional(const Value& obj, const std::string& key,
                                    Value::Kind kind) const {
  const Value* v = obj.find(key);
  if (v == nullptr) return nullptr;
  return &typed(*v, key, kind);
}

void SchemaReader::reject_unknown_keys(const Value& obj,
                                       std::initializer_list<const char*> known,
                                       const std::string& where) const {
  for (const auto& [key, value] : obj.object) {
    bool ok = false;
    for (const char* k : known) ok = ok || key == k;
    if (ok) continue;
    std::string valid;
    for (const char* k : known) valid += std::string(" ") + k;
    fail(value, "unknown key \"" + key + "\" in " + where + " (valid:" +
                    valid + ")");
  }
}

double SchemaReader::number(const Value& obj, const std::string& key,
                            double fallback) const {
  const Value* v = optional(obj, key, Value::Kind::kNumber);
  return v == nullptr ? fallback : v->number;
}

std::uint64_t SchemaReader::checked_integer(const Value& v,
                                            const std::string& key) const {
  constexpr double kMaxExact = 9007199254740992.0;  // 2^53
  if (v.number < 0.0 || v.number >= kMaxExact ||
      v.number != std::floor(v.number)) {
    fail(v, "\"" + key + "\" must be a non-negative integer below 2^53");
  }
  return static_cast<std::uint64_t>(v.number);
}

std::size_t SchemaReader::count(const Value& obj, const std::string& key,
                                std::size_t fallback) const {
  return static_cast<std::size_t>(
      optional_integer(obj, key).value_or(fallback));
}

std::optional<std::uint64_t> SchemaReader::optional_integer(
    const Value& obj, const std::string& key) const {
  const Value* v = optional(obj, key, Value::Kind::kNumber);
  if (v == nullptr) return std::nullopt;
  return checked_integer(*v, key);
}

bool SchemaReader::boolean(const Value& obj, const std::string& key,
                           bool fallback) const {
  const Value* v = optional(obj, key, Value::Kind::kBool);
  return v == nullptr ? fallback : v->boolean;
}

const Value& SchemaReader::typed(const Value& v, const std::string& key,
                                 Value::Kind kind) const {
  if (v.kind != kind) {
    fail(v, "\"" + key + "\" must be a " + kind_name(kind) + ", got " +
                kind_name(v.kind));
  }
  return v;
}

Writer& Writer::raw(std::string_view text) {
  out_.append(text);
  return *this;
}

Writer& Writer::key(const std::string& k) {
  out_ += quote(k);
  out_ += ": ";
  return *this;
}

Writer& Writer::string(const std::string& s) {
  out_ += quote(s);
  return *this;
}

Writer& Writer::number(double v) {
  // Non-finite doubles have no JSON representation; every schema in the
  // tree (bench, checkpoint, status) maps them to null.
  if (!std::isfinite(v)) {
    out_ += "null";
    return *this;
  }
  out_ += format_double(v);
  return *this;
}

Writer& Writer::number(std::uint64_t v) {
  out_ += std::to_string(v);
  return *this;
}

Writer& Writer::boolean(bool v) {
  out_ += v ? "true" : "false";
  return *this;
}

}  // namespace effitest::io::json
