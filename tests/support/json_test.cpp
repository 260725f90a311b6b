#include "support/json.hpp"

#include <gtest/gtest.h>

namespace wasmctr::json {
namespace {

TEST(JsonParseTest, Scalars) {
  EXPECT_TRUE(parse("null")->is_null());
  EXPECT_EQ(parse("true")->as_bool(), true);
  EXPECT_EQ(parse("false")->as_bool(), false);
  EXPECT_EQ(parse("42")->as_i64(), 42);
  EXPECT_EQ(parse("-7")->as_i64(), -7);
  EXPECT_DOUBLE_EQ(parse("3.5")->as_double(), 3.5);
  EXPECT_DOUBLE_EQ(parse("1e3")->as_double(), 1000.0);
  EXPECT_EQ(parse("\"hi\"")->as_string(), "hi");
}

TEST(JsonParseTest, Int64Exactness) {
  auto v = parse("9007199254740993");  // 2^53 + 1: not double-representable
  ASSERT_TRUE(v.is_ok());
  EXPECT_EQ(v->as_i64(), 9007199254740993LL);
}

TEST(JsonParseTest, NestedDocument) {
  auto v = parse(R"({
    "ociVersion": "1.0.2",
    "process": {"args": ["app.wasm", "--port", "8080"], "terminal": false},
    "linux": {"resources": {"memory": {"limit": 134217728}}}
  })");
  ASSERT_TRUE(v.is_ok()) << v.status().to_string();
  const Value* process = v->find("process");
  ASSERT_NE(process, nullptr);
  EXPECT_EQ(process->find("args")->as_array().size(), 3u);
  EXPECT_EQ(process->find("args")->as_array()[0].as_string(), "app.wasm");
  EXPECT_EQ(v->find("linux")->find("resources")->find("memory")->get_i64(
                "limit"),
            134217728);
}

TEST(JsonParseTest, StringEscapes) {
  auto v = parse(R"("a\"b\\c\/d\n\tAé")");
  ASSERT_TRUE(v.is_ok());
  EXPECT_EQ(v->as_string(), "a\"b\\c/d\n\tA\xc3\xa9");
}

TEST(JsonParseTest, SurrogatePairs) {
  auto v = parse(R"("😀")");
  ASSERT_TRUE(v.is_ok());
  EXPECT_EQ(v->as_string(), "\xf0\x9f\x98\x80");
}

TEST(JsonParseTest, UnpairedSurrogateRejected) {
  EXPECT_FALSE(parse(R"("\ud83d")").is_ok());
  EXPECT_FALSE(parse(R"("\udc00")").is_ok());
}

struct BadCase {
  const char* name;
  const char* text;
};

// Print the case by its name: gtest's default byte dump of the struct
// would put pointer values, which change with every run, into the
// ctest test names that gtest_discover_tests derives from it.
void PrintTo(const BadCase& c, std::ostream* os) { *os << c.name; }

class JsonBadInput : public ::testing::TestWithParam<BadCase> {};

TEST_P(JsonBadInput, Rejected) {
  auto v = parse(GetParam().text);
  EXPECT_FALSE(v.is_ok()) << GetParam().text;
  EXPECT_EQ(v.status().code(), ErrorCode::kMalformed);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, JsonBadInput,
    ::testing::Values(
        BadCase{"empty", ""}, BadCase{"bare_word", "nul"},
        BadCase{"trailing", "1 2"}, BadCase{"unterminated_str", "\"abc"},
        BadCase{"unterminated_obj", "{\"a\":1"},
        BadCase{"unterminated_arr", "[1,2"},
        BadCase{"missing_colon", "{\"a\" 1}"},
        BadCase{"trailing_comma_obj", "{\"a\":1,}"},
        BadCase{"trailing_comma_arr", "[1,]"},
        BadCase{"leading_zero", "01"}, BadCase{"bad_escape", "\"\\x\""},
        BadCase{"lone_minus", "-"}, BadCase{"bad_fraction", "1."},
        BadCase{"bad_exponent", "1e"},
        BadCase{"control_char", "\"a\x01b\""},
        BadCase{"non_string_key", "{1:2}"}),
    [](const auto& info) { return info.param.name; });

TEST(JsonParseTest, DeepNestingBounded) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(parse(deep).is_ok()) << "must reject >128 nesting levels";
}

TEST(JsonParseTest, ErrorsCarryPosition) {
  auto v = parse("{\n  \"a\": bogus\n}");
  ASSERT_FALSE(v.is_ok());
  EXPECT_NE(v.status().message().find("line 2"), std::string::npos)
      << v.status().message();
}

TEST(JsonDumpTest, RoundtripCompact) {
  const std::string text =
      R"({"a":[1,2.5,"x"],"b":{"c":true,"d":null},"e":-9})";
  auto v = parse(text);
  ASSERT_TRUE(v.is_ok());
  auto again = parse(v->dump());
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(*v, *again);
}

TEST(JsonDumpTest, PrettyPrintIsReparseable) {
  Value v = Object{{"args", Array{"a.wasm", "--env"}},
                   {"memLimit", int64_t{1} << 31},
                   {"wasm", true}};
  const std::string pretty = v.dump(2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  auto again = parse(pretty);
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(v, *again);
}

TEST(JsonDumpTest, DeterministicKeyOrder) {
  Value a = Object{{"z", 1}, {"a", 2}};
  Value b = Object{{"a", 2}, {"z", 1}};
  EXPECT_EQ(a.dump(), b.dump());
}

TEST(JsonValueTest, TypedLookupsWithDefaults) {
  auto v = parse(R"({"name":"pod-1","replicas":3,"wasm":true})");
  ASSERT_TRUE(v.is_ok());
  EXPECT_EQ(v->get_string("name"), "pod-1");
  EXPECT_EQ(v->get_string("missing", "dflt"), "dflt");
  EXPECT_EQ(v->get_i64("replicas"), 3);
  EXPECT_EQ(v->get_i64("missing", -1), -1);
  EXPECT_TRUE(v->get_bool("wasm"));
  EXPECT_TRUE(v->get_bool("missing", true));
  // Type mismatches fall back rather than assert.
  EXPECT_EQ(v->get_i64("name", 5), 5);
}

TEST(JsonValueTest, SetBuildsObjects) {
  Value v;
  v.set("kind", "Pod").set("count", 2);
  EXPECT_EQ(v.get_string("kind"), "Pod");
  EXPECT_EQ(v.get_i64("count"), 2);
}

TEST(JsonValueTest, NumericCrossTypeEquality) {
  EXPECT_EQ(*parse("1"), *parse("1.0"));
}

}  // namespace
}  // namespace wasmctr::json
