// The one JSON codec behind every obs artifact: the writers (Chrome trace,
// stream windows, SLO alerts, exemplars) encode strings and numbers here,
// and every tool that reads an artifact back (strings_prof, strings_top,
// trace_check, bench_gate, the SARIF check in lint_test) and the bench
// report merge in bench/common parse it here.
//
// Writing. append_string escapes `"` and `\` and the control bytes below
// 0x20 — `\n`, `\r` and `\t` by their short escapes, every other one as
// `\u00xx` — and copies every other byte as is, so a string the writers
// emit reads back byte for byte. append_number renders %.17g (format_g17)
// and `null` for a non-finite value, which JSON cannot spell.
//
// Reading. The grammar is RFC 8259's, strictly: no raw control bytes in
// strings, no unknown escapes, four hex digits after `\u` (decoded to
// UTF-8), nothing but whitespace after the document, nesting at most 256
// deep. Every error names its byte offset. Object members keep document
// order, and numbers keep their source token, so a caller can split a
// timestamp textually instead of round-tripping it through a double.
// parse() reads a whole document (a JSONL line, a SARIF report); Reader
// walks one value at a time, so a trace's traceEvents array can be read an
// event at a time without ever holding the whole trace as a tree.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace strings::obs::json {

/// Appends `s` to `out` as a JSON string literal, quotes included.
void append_string(std::string* out, std::string_view s);

/// `s` as a JSON string literal, quotes included (append_string into a new
/// string, for writers that stream into an std::ostream).
std::string quote(std::string_view s);

/// Appends `v` as %.17g, or `null` when it is not finite.
void append_number(std::string* out, double v);

/// One parsed JSON value.
struct Value {
  enum class Kind : std::uint8_t {
    kNull, kBool, kNumber, kString, kArray, kObject
  };
  Kind kind = Kind::kNull;
  bool boolean = false;
  /// A string's decoded contents, or a number's source token verbatim.
  std::string text;
  std::vector<Value> items;                            // kArray
  std::vector<std::pair<std::string, Value>> members;  // kObject, in order

  /// The first member named `key`; nullptr when there is none or this is
  /// not an object.
  const Value* find(std::string_view key) const;
  /// find(), with a null Value standing in for a missing member.
  const Value& operator[](std::string_view key) const;
  /// A number's value; 0 for anything that is not a number.
  double number() const;
};

/// A cursor over one JSON text, which must outlive it. begin_object/
/// next_member and begin_array/next_item walk a container; value() parses
/// whatever sits at the cursor. Once any call fails, ok() is false, error()
/// says what and where, and every later call fails too.
class Reader {
 public:
  explicit Reader(std::string_view text) : text_(text) {}

  /// Parses the value at the cursor into `*out` (replacing its contents).
  bool value(Value* out);
  /// Consumes the `{` of an object; walk it with next_member.
  bool begin_object();
  /// Reads the next member's key and its `:`, leaving the cursor on the
  /// member's value, which the caller must consume. False at the closing
  /// `}` (consumed) or on an error.
  bool next_member(std::string* key);
  /// Consumes the `[` of an array; walk it with next_item.
  bool begin_array();
  /// True when another element follows, leaving the cursor on it for the
  /// caller to consume. False at the closing `]` (consumed) or on an error.
  bool next_item();
  /// The next non-whitespace byte, or '\0' at the end of the text.
  char peek();
  /// True when only whitespace remains; otherwise records an error.
  bool at_end();

  /// The byte offset of the cursor: where the next value starts after a
  /// peek(), where the last one ended after value().
  std::size_t offset() const { return pos_; }
  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

 private:
  bool fail(const char* what);
  void skip_ws();
  bool expect(char c, const char* what);
  bool open(char c);
  bool next(char close);
  bool parse_string(std::string* out);
  bool parse_hex4(unsigned* cp);
  bool parse_number(std::string* out);
  bool parse_literal(std::string_view word);

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  bool fresh_ = false;  // the last call opened a container
  std::string error_;
};

/// Parses `text` as exactly one JSON value. On failure returns false and,
/// when `error` is non-null, stores the reason with its byte offset.
bool parse(std::string_view text, Value* out, std::string* error);

/// Reads the file at `path` into `*text` in one piece (a regular file, a
/// pipe or a FIFO). False when it cannot be opened or read.
bool read_file(const std::string& path, std::string* text);

}  // namespace strings::obs::json
