#include "obs/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <utility>

#include "obs/number.hpp"

namespace strings::obs::json {

namespace {

constexpr int kMaxDepth = 256;

void append_utf8(std::string* out, unsigned cp) {
  static constexpr unsigned char kLead[] = {0x00, 0xC0, 0xE0, 0xF0};
  const int tail = cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
  out->push_back(static_cast<char>(kLead[tail] | (cp >> (6 * tail))));
  for (int i = tail - 1; i >= 0; --i) {
    out->push_back(static_cast<char>(0x80 | ((cp >> (6 * i)) & 0x3F)));
  }
}

}  // namespace

void append_string(std::string* out, std::string_view s) {
  out->push_back('"');
  // Names almost never need escaping: append the plain prefix in one call
  // and escape byte by byte only from the first special one on.
  const auto plain_end = std::find_if(s.begin(), s.end(), [](char c) {
    return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
  });
  out->append(s.begin(), plain_end);
  for (auto it = plain_end; it != s.end(); ++it) {
    const auto c = static_cast<unsigned char>(*it);
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\n': out->append("\\n"); break;
      case '\r': out->append("\\r"); break;
      case '\t': out->append("\\t"); break;
      default:
        if (c < 0x20) {
          static constexpr char kHex[] = "0123456789abcdef";
          out->append("\\u00");
          out->push_back(kHex[c >> 4]);
          out->push_back(kHex[c & 0xF]);
        } else {
          out->push_back(static_cast<char>(c));
        }
    }
  }
  out->push_back('"');
}

std::string quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  append_string(&out, s);
  return out;
}

void append_number(std::string* out, double v) {
  if (!std::isfinite(v)) {
    out->append("null");
    return;
  }
  char buf[kG17Chars];
  out->append(format_g17(v, buf));
}

const Value* Value::find(std::string_view key) const {
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Value& Value::operator[](std::string_view key) const {
  static const Value kMissing;
  const Value* v = find(key);
  return v != nullptr ? *v : kMissing;
}

double Value::number() const {
  double v = 0.0;
  if (kind == Kind::kNumber) {
    std::from_chars(text.data(), text.data() + text.size(), v);
  }
  return v;
}

bool Reader::fail(const char* what) {
  if (error_.empty()) {
    error_ = std::string(what) + " at byte " + std::to_string(pos_);
  }
  return false;
}

void Reader::skip_ws() {
  while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\n' ||
                                 text_[pos_] == '\r' || text_[pos_] == '\t')) {
    ++pos_;
  }
}

char Reader::peek() {
  skip_ws();
  return pos_ < text_.size() ? text_[pos_] : '\0';
}

bool Reader::expect(char c, const char* what) {
  if (!ok()) return false;
  if (peek() != c) return fail(what);
  ++pos_;
  return true;
}

bool Reader::open(char c) {
  if (!expect(c, c == '{' ? "expected '{'" : "expected '['")) return false;
  if (++depth_ > kMaxDepth) {
    --pos_;
    return fail("nesting deeper than 256");
  }
  fresh_ = true;
  return true;
}

bool Reader::next(char close) {
  if (!ok()) return false;
  const char c = peek();
  if (c == close) {
    ++pos_;
    --depth_;
    fresh_ = false;
    return false;
  }
  if (!std::exchange(fresh_, false)) {
    return expect(',', close == '}' ? "expected ',' or '}'"
                                    : "expected ',' or ']'");
  }
  return true;
}

bool Reader::begin_object() { return open('{'); }
bool Reader::begin_array() { return open('['); }

bool Reader::next_member(std::string* key) {
  if (!next('}')) return false;
  if (peek() != '"') return fail("expected an object key");
  return parse_string(key) && expect(':', "expected ':'");
}

bool Reader::next_item() { return next(']'); }

bool Reader::at_end() {
  if (!ok()) return false;
  skip_ws();
  return pos_ == text_.size() || fail("trailing characters after the value");
}

bool Reader::value(Value* out) {
  // Cleared rather than reassigned, so a Value reused across calls keeps
  // its buffers.
  out->kind = Value::Kind::kNull;
  out->boolean = false;
  out->text.clear();
  out->items.clear();
  out->members.clear();
  if (!ok()) return false;
  const char c = peek();
  if (c == '{') {
    if (!open('{')) return false;
    out->kind = Value::Kind::kObject;
    std::string key;
    while (next_member(&key)) {
      out->members.emplace_back(key, Value{});
      if (!value(&out->members.back().second)) return false;
    }
    return ok();
  }
  if (c == '[') {
    if (!open('[')) return false;
    out->kind = Value::Kind::kArray;
    while (next_item()) {
      if (!value(&out->items.emplace_back())) return false;
    }
    return ok();
  }
  if (pos_ >= text_.size()) return fail("unexpected end of input");
  if (depth_ >= kMaxDepth) return fail("nesting deeper than 256");
  switch (c) {
    case '"':
      out->kind = Value::Kind::kString;
      return parse_string(&out->text);
    case 't':
      out->kind = Value::Kind::kBool;
      out->boolean = true;
      return parse_literal("true");
    case 'f':
      out->kind = Value::Kind::kBool;
      return parse_literal("false");
    case 'n':
      return parse_literal("null");
    default:
      out->kind = Value::Kind::kNumber;
      return parse_number(&out->text);
  }
}

bool Reader::parse_literal(std::string_view word) {
  if (text_.substr(pos_, word.size()) != word) return fail("bad literal");
  pos_ += word.size();
  return true;
}

bool Reader::parse_number(std::string* out) {
  const std::size_t start = pos_;
  const auto at = [this](char lo, char hi) {
    return pos_ < text_.size() && text_[pos_] >= lo && text_[pos_] <= hi;
  };
  const auto digits = [&] {
    const std::size_t from = pos_;
    while (at('0', '9')) ++pos_;
    return pos_ > from;
  };
  if (at('-', '-')) ++pos_;
  if (at('0', '0')) {
    ++pos_;
  } else if (!digits()) {
    return fail(pos_ == start ? "expected a value" : "bad number");
  }
  if (at('.', '.')) {
    ++pos_;
    if (!digits()) return fail("bad number");
  }
  if (at('e', 'e') || at('E', 'E')) {
    ++pos_;
    if (at('+', '+') || at('-', '-')) ++pos_;
    if (!digits()) return fail("bad number");
  }
  out->assign(text_.substr(start, pos_ - start));
  return true;
}

bool Reader::parse_hex4(unsigned* cp) {
  const char* begin = text_.data() + pos_;
  const char* end = begin + std::min<std::size_t>(4, text_.size() - pos_);
  const char* ptr = std::from_chars(begin, end, *cp, 16).ptr;
  pos_ += static_cast<std::size_t>(ptr - begin);
  return ptr == begin + 4 || fail("bad \\u escape");
}

bool Reader::parse_string(std::string* out) {
  out->clear();
  ++pos_;  // the opening quote, which the caller has seen
  while (true) {
    const std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\' &&
           static_cast<unsigned char>(text_[pos_]) >= 0x20) {
      ++pos_;
    }
    out->append(text_.substr(start, pos_ - start));
    if (pos_ >= text_.size()) return fail("unterminated string");
    if (text_[pos_] == '"') {
      ++pos_;
      return true;
    }
    if (text_[pos_] != '\\') return fail("raw control character in string");
    if (++pos_ >= text_.size()) return fail("unterminated string");
    switch (text_[pos_++]) {
      case '"': out->push_back('"'); break;
      case '\\': out->push_back('\\'); break;
      case '/': out->push_back('/'); break;
      case 'b': out->push_back('\b'); break;
      case 'f': out->push_back('\f'); break;
      case 'n': out->push_back('\n'); break;
      case 'r': out->push_back('\r'); break;
      case 't': out->push_back('\t'); break;
      case 'u': {
        unsigned cp = 0;
        if (!parse_hex4(&cp)) return false;
        // A high surrogate followed by a low one is one code point; any
        // other surrogate is kept as the code unit it spells.
        if (cp >= 0xD800 && cp < 0xDC00 &&
            text_.substr(pos_, 2) == "\\u") {
          const std::size_t second = pos_;
          pos_ += 2;
          unsigned lo = 0;
          if (!parse_hex4(&lo)) return false;
          if (lo >= 0xDC00 && lo < 0xE000) {
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else {
            pos_ = second;
          }
        }
        append_utf8(out, cp);
        break;
      }
      default:
        --pos_;
        return fail("unknown escape");
    }
  }
}

bool parse(std::string_view text, Value* out, std::string* error) {
  Reader r(text);
  const bool good = r.value(out) && r.at_end();
  if (!good && error != nullptr) *error = r.error();
  return good;
}

bool read_file(const std::string& path, std::string* text) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  text->clear();
  // The size only reserves the buffer: a pipe or FIFO cannot seek, and is
  // read to its end all the same.
  if (in.seekg(0, std::ios::end)) {
    const std::streamoff size = in.tellg();
    if (size > 0) text->reserve(static_cast<std::size_t>(size));
    in.seekg(0);
  }
  in.clear();
  char chunk[1 << 16];
  while (in.read(chunk, sizeof chunk) || in.gcount() > 0) {
    text->append(chunk, static_cast<std::size_t>(in.gcount()));
  }
  return !in.bad();
}

}  // namespace strings::obs::json
