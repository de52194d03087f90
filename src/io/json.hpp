#pragma once
// Minimal shared JSON value + recursive-descent parser for the io layer.
//
// Self-contained on purpose: the container bakes no JSON dependency, and
// the schemas this repository speaks (scenario specs, campaign
// checkpoints, bench reports) need only objects/arrays/strings/numbers/
// bools. Extensions over strict JSON: `//` line comments, so shipped
// files can be annotated. Every parse error carries the 1-based line of
// the offending token, and so does every schema error raised through
// SchemaReader; callers (scenario_json, checkpoint_json) translate
// ParseError into their own schema-level exception type so the CLI's
// exit-code mapping stays per-surface.
//
// Hardening contract (policed by tests/fuzz/fuzz_scenario_json and the
// corpus-replay `fuzz` ctest suite): arbitrary input must either parse or
// raise ParseError — never crash, loop, overflow the stack (64-level
// nesting guard) or trip a sanitizer.

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace effitest::io::json {

/// Malformed JSON. `what()` is "<source> line <n>: <reason>".
class ParseError : public std::runtime_error {
 public:
  ParseError(const std::string& what, std::size_t line)
      : std::runtime_error(what), line(line) {}
  std::size_t line = 0;
};

struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;  ///< input order
  std::size_t line = 0;

  [[nodiscard]] const Value* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

[[nodiscard]] const char* kind_name(Value::Kind kind);

class Parser {
 public:
  /// `source` names the document in error messages (a file path, "fuzz").
  Parser(const std::string& text, const std::string& source)
      : text_(text), source_(source) {}

  /// Parse the whole document (trailing content is an error).
  [[nodiscard]] Value parse();

  /// Raise a ParseError anchored at `line` — also used by schema readers
  /// so semantic errors carry the same source/line prefix as syntax ones.
  [[noreturn]] void fail_at(std::size_t line, const std::string& what) const;

 private:
  [[noreturn]] void fail(const std::string& what) const;
  void skip_ws();
  char peek();
  void expect(char c);
  bool consume_keyword(const char* kw);
  Value parse_value();
  std::string parse_string();
  unsigned parse_hex4();
  double parse_number();

  const std::string& text_;
  const std::string source_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
  std::size_t depth_ = 0;
};

/// Strict typed access to a parsed document: a missing key, a value of the
/// wrong kind, a key the schema does not know or an out-of-range integer
/// raises a ParseError anchored at the offending value's line (through
/// Parser::fail_at), so schema errors read like syntax errors.
class SchemaReader {
 public:
  explicit SchemaReader(const Parser& parser) : parser_(parser) {}

  [[noreturn]] void fail(const Value& at, const std::string& what) const;

  [[nodiscard]] const Value& require(const Value& obj, const std::string& key,
                                     Value::Kind kind) const;
  /// nullptr when `key` is absent.
  [[nodiscard]] const Value* optional(const Value& obj, const std::string& key,
                                      Value::Kind kind) const;
  /// `where` names the object in the error ("the scenario spec").
  void reject_unknown_keys(const Value& obj,
                           std::initializer_list<const char*> known,
                           const std::string& where) const;

  [[nodiscard]] double number(const Value& obj, const std::string& key,
                              double fallback) const;
  /// Non-negative integer exactly representable in a double (< 2^53, which
  /// also fits size_t/uint64_t) — anything else is a schema error, not UB.
  [[nodiscard]] std::uint64_t checked_integer(const Value& v,
                                              const std::string& key) const;
  [[nodiscard]] std::size_t count(const Value& obj, const std::string& key,
                                  std::size_t fallback) const;
  /// Distinguishes "absent" from an explicit value (0 included).
  [[nodiscard]] std::optional<std::uint64_t> optional_integer(
      const Value& obj, const std::string& key) const;
  [[nodiscard]] bool boolean(const Value& obj, const std::string& key,
                             bool fallback) const;

 private:
  const Value& typed(const Value& v, const std::string& key,
                     Value::Kind kind) const;

  const Parser& parser_;
};

/// Round-trip formatting for doubles (max_digits10): the deterministic
/// metrics written through this re-read bit-identically.
[[nodiscard]] std::string format_double(double v);

/// A JSON string literal (quotes included) with the escapes the Parser
/// understands — quote/parse round-trips any byte string. Control bytes
/// without a named escape are emitted as \u00XX.
[[nodiscard]] std::string quote(const std::string& s);

/// Incremental JSON text builder shared by every emitter in the tree
/// (bench reports, campaign checkpoints, obs log/status rendering).
/// Escaping and double formatting live here — in quote()/format_double()
/// — and nowhere else; layout (indentation, newlines, commas) stays with
/// the caller via raw(), so each schema keeps its committed byte-exact
/// shape.
class Writer {
 public:
  Writer& raw(std::string_view text);       ///< verbatim structural text
  Writer& key(const std::string& k);        ///< `"k": ` (caller adds commas)
  Writer& string(const std::string& s);     ///< quoted + escaped
  Writer& number(double v);                 ///< format_double; non-finite → null
  Writer& number(std::uint64_t v);
  Writer& boolean(bool v);

  [[nodiscard]] const std::string& str() const { return out_; }
  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

}  // namespace effitest::io::json
