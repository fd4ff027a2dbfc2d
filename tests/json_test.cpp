// obs/json: the writers' escapes read back byte for byte, the reader keeps
// member order and number tokens, rejects every malformed input with its
// byte offset, and its cursor walks a document one value at a time.

#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cmath>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

namespace strings::obs::json {
namespace {

std::string written(const std::string& s) {
  std::string out;
  append_string(&out, s);
  return out;
}

Value parsed(const std::string& text) {
  Value v;
  std::string error;
  EXPECT_TRUE(parse(text, &v, &error)) << text << ": " << error;
  return v;
}

std::string rejection(const std::string& text) {
  Value v;
  std::string error;
  EXPECT_FALSE(parse(text, &v, &error)) << text;
  return error;
}

TEST(JsonWriter, ControlBytesUseOneFormEach) {
  EXPECT_EQ(written("\r"), "\"\\r\"");
  EXPECT_EQ(written("\b\f"), "\"\\u0008\\u000c\"");
  EXPECT_EQ(written(std::string(1, '\0') + "\x1f"), "\"\\u0000\\u001f\"");
  EXPECT_EQ(written("caf\xc3\xa9/\x7f"), "\"caf\xc3\xa9/\x7f\"");
}

TEST(JsonWriter, EveryByteReadsBackExactly) {
  std::string all;
  for (int c = 0; c < 256; ++c) all.push_back(static_cast<char>(c));
  const std::string text = written(all) + written("plain prefix then \"");
  Reader r(text);
  Value a, b;
  ASSERT_TRUE(r.value(&a) && r.value(&b)) << r.error();
  EXPECT_EQ(a.text, all);
  EXPECT_EQ(b.text, "plain prefix then \"");
}

TEST(JsonWriter, NumbersAreG17OrNull) {
  std::string out;
  append_number(&out, 3.0);
  out.push_back(' ');
  append_number(&out, 0.1);
  out.push_back(' ');
  append_number(&out, -2.5e-300);
  out.push_back(' ');
  append_number(&out, std::numeric_limits<double>::infinity());
  out.push_back(' ');
  append_number(&out, std::nan(""));
  EXPECT_EQ(out, "3 0.10000000000000001 -2.5e-300 null null");
}

TEST(JsonReader, KeepsMemberOrderAndNumberTokens) {
  const Value v = parsed(
      " {\"z\":1.500,\"a\":[true,false,null,-0.25e+3],\"m\":{},\"z\":\"dup\"}");
  ASSERT_EQ(v.kind, Value::Kind::kObject);
  ASSERT_EQ(v.members.size(), 4u);
  EXPECT_EQ(v.members[0].first, "z");
  EXPECT_EQ(v.members[1].first, "a");
  EXPECT_EQ(v.members[3].second.text, "dup");
  EXPECT_EQ(v["z"].text, "1.500");  // first of a duplicated key
  EXPECT_DOUBLE_EQ(v["z"].number(), 1.5);
  const Value& a = v["a"];
  ASSERT_EQ(a.items.size(), 4u);
  EXPECT_TRUE(a.items[0].boolean);
  EXPECT_EQ(a.items[1].kind, Value::Kind::kBool);
  EXPECT_FALSE(a.items[1].boolean);
  EXPECT_EQ(a.items[2].kind, Value::Kind::kNull);
  EXPECT_EQ(a.items[3].text, "-0.25e+3");
  EXPECT_DOUBLE_EQ(a.items[3].number(), -250.0);
  EXPECT_EQ(v["m"].kind, Value::Kind::kObject);
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_EQ(v["missing"].kind, Value::Kind::kNull);
  EXPECT_EQ(v["missing"]["deeper"].kind, Value::Kind::kNull);
  EXPECT_EQ(v["m"].number(), 0.0);
}

TEST(JsonReader, DecodesEscapesToUtf8) {
  EXPECT_EQ(parsed(R"("\"\\\/\b\f\n\r\t")").text, "\"\\/\b\f\n\r\t");
  EXPECT_EQ(parsed(R"("\u0041\u00e9\u20AC")").text, "A\xc3\xa9\xe2\x82\xac");
  EXPECT_EQ(parsed(R"("\ud83d\ude00")").text, "\xf0\x9f\x98\x80");
  // A lone surrogate keeps the code unit it spells.
  EXPECT_EQ(parsed(R"("\ud800x")").text, "\xed\xa0\x80x");
  EXPECT_EQ(parsed(R"("\ud800\u0041")").text, "\xed\xa0\x80" "A");
}

TEST(JsonReader, RejectsMalformedInputAtItsOffset) {
  const struct {
    std::string text;
    std::string error;
  } cases[] = {
      {"", "unexpected end of input at byte 0"},
      {"  ", "unexpected end of input at byte 2"},
      {"{\"a\":1", "expected ',' or '}' at byte 6"},
      {"[1,2", "expected ',' or ']' at byte 4"},
      {"[1,]", "expected a value at byte 3"},
      {"{\"a\":1,}", "expected an object key at byte 7"},
      {"{\"a\" 1}", "expected ':' at byte 5"},
      {"{1:2}", "expected an object key at byte 1"},
      {"[1] x", "trailing characters after the value at byte 4"},
      {"{} {}", "trailing characters after the value at byte 3"},
      {"\"a\tb\"", "raw control character in string at byte 2"},
      {"\"a\\qb\"", "unknown escape at byte 3"},
      {"\"\\u12\"", "bad \\u escape at byte 5"},
      {"\"\\u00G1\"", "bad \\u escape at byte 5"},
      {"\"\\ud800\\u12\"", "bad \\u escape at byte 11"},
      {"\"abc", "unterminated string at byte 4"},
      {"\"abc\\", "unterminated string at byte 5"},
      {"tru", "bad literal at byte 0"},
      {"nul", "bad literal at byte 0"},
      {"-", "bad number at byte 1"},
      {"+1", "expected a value at byte 0"},
      {"1.", "bad number at byte 2"},
      {"1e", "bad number at byte 2"},
      {"1e+", "bad number at byte 3"},
      {".5", "expected a value at byte 0"},
      {"01", "trailing characters after the value at byte 1"},
      {"\v1", "expected a value at byte 0"},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(rejection(c.text), c.error) << c.text;
  }
}

TEST(JsonReader, NestingStopsAt256) {
  // Depth counts every value, containers included: a scalar inside 255
  // arrays and 256 empty nested arrays are the deepest documents accepted.
  const auto nest = [](int n, const std::string& inner) {
    return std::string(static_cast<std::size_t>(n), '[') + inner +
           std::string(static_cast<std::size_t>(n), ']');
  };
  parsed(nest(255, "1"));
  parsed(nest(256, ""));
  EXPECT_EQ(rejection(nest(256, "1")), "nesting deeper than 256 at byte 256");
  EXPECT_EQ(rejection(nest(257, "")), "nesting deeper than 256 at byte 256");
  EXPECT_EQ(rejection(nest(100000, "")),
            "nesting deeper than 256 at byte 256");
}

TEST(JsonReader, CursorWalksOneValueAtATime) {
  const std::string text =
      "{\"meta\":{\"k\":\"v\"},\"events\":[{\"n\":1},[],{\"n\":2}],"
      "\"empty\":[]}\n";
  Reader r(text);
  std::string key;
  std::vector<std::string> keys;
  std::vector<std::size_t> sizes;
  Value v;
  ASSERT_TRUE(r.begin_object());
  while (r.next_member(&key)) {
    keys.push_back(key);
    if (r.peek() != '[') {
      ASSERT_TRUE(r.value(&v));
      continue;
    }
    ASSERT_TRUE(r.begin_array());
    while (r.next_item()) {
      ASSERT_TRUE(r.value(&v));
      sizes.push_back(v.members.size() + v.items.size());
    }
  }
  EXPECT_TRUE(r.ok()) << r.error();
  EXPECT_TRUE(r.at_end()) << r.error();
  EXPECT_EQ(keys, (std::vector<std::string>{"meta", "events", "empty"}));
  EXPECT_EQ(sizes, (std::vector<std::size_t>{1, 0, 1}));
}

TEST(JsonReader, OffsetSpansTheValueJustRead) {
  const std::string text = "{\"a\": {\"x\":1} , \"b\":[2]}";
  Reader r(text);
  std::string key;
  std::vector<std::string> spans;
  Value v;
  ASSERT_TRUE(r.begin_object());
  while (r.next_member(&key)) {
    r.peek();
    const std::size_t start = r.offset();
    ASSERT_TRUE(r.value(&v));
    spans.push_back(text.substr(start, r.offset() - start));
  }
  EXPECT_TRUE(r.at_end()) << r.error();
  EXPECT_EQ(spans, (std::vector<std::string>{"{\"x\":1}", "[2]"}));
}

TEST(JsonReader, CursorErrorsStickAndNameTheirOffset) {
  Reader r("[{\"n\":1},]");
  Value v;
  ASSERT_TRUE(r.begin_array());
  ASSERT_TRUE(r.next_item());
  ASSERT_TRUE(r.value(&v));
  ASSERT_TRUE(r.next_item());
  EXPECT_FALSE(r.value(&v));
  EXPECT_EQ(r.error(), "expected a value at byte 9");
  EXPECT_FALSE(r.next_item());
  EXPECT_FALSE(r.at_end());
  EXPECT_EQ(r.error(), "expected a value at byte 9");

  Reader not_object("[1]");
  EXPECT_FALSE(not_object.begin_object());
  EXPECT_EQ(not_object.error(), "expected '{' at byte 0");
}

TEST(JsonReadFile, ReadsWholeFileOrFails) {
  const std::string path = testing::TempDir() + "json_read_file.json";
  std::string body(100000, 'x');
  body[0] = '\0';
  {
    std::ofstream out(path, std::ios::binary);
    out << body;
  }
  std::string text;
  ASSERT_TRUE(read_file(path, &text));
  EXPECT_EQ(text, body);
  EXPECT_FALSE(read_file(path + ".missing", &text));
}

TEST(JsonReadFile, ReadsAFifoToItsEnd) {
  // A FIFO cannot seek (nor can a pipe or `<(zcat trace.json.gz)`); it
  // must still be read whole. The body is larger than a pipe's buffer and
  // than one read chunk.
  const std::string path = testing::TempDir() + "json_read_file.fifo";
  std::remove(path.c_str());
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
  const std::string body(200000, 'y');
  // A reader that gives up early must fail the test, not kill it.
  const auto old_handler = std::signal(SIGPIPE, SIG_IGN);
  std::thread writer([&] {
    std::ofstream out(path, std::ios::binary);
    out << body;
  });
  std::string text;
  const bool read = read_file(path, &text);
  writer.join();
  std::signal(SIGPIPE, old_handler);
  std::remove(path.c_str());
  ASSERT_TRUE(read);
  EXPECT_EQ(text, body);
}

}  // namespace
}  // namespace strings::obs::json
