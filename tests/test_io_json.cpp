#include <gtest/gtest.h>

#include <stdexcept>

#include "io/json.h"
#include "test_util.h"

namespace locpriv::io {
namespace {

TEST(JsonValue, TypePredicatesAndAccessors) {
  EXPECT_TRUE(JsonValue().is_null());
  EXPECT_TRUE(JsonValue(true).is_bool());
  EXPECT_TRUE(JsonValue(3.5).is_number());
  EXPECT_TRUE(JsonValue("s").is_string());
  EXPECT_TRUE(JsonValue(JsonArray{}).is_array());
  EXPECT_TRUE(JsonValue(JsonObject{}).is_object());
  EXPECT_THROW((void)JsonValue(3.5).as_string(), std::runtime_error);
  EXPECT_THROW((void)JsonValue("x").as_number(), std::runtime_error);
}

TEST(JsonValue, ObjectAccess) {
  JsonObject o;
  o["k"] = 1.0;
  const JsonValue v(std::move(o));
  EXPECT_TRUE(v.contains("k"));
  EXPECT_FALSE(v.contains("missing"));
  EXPECT_DOUBLE_EQ(v.at("k").as_number(), 1.0);
  EXPECT_THROW((void)v.at("missing"), std::runtime_error);
}

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(parse_json("null").is_null());
  EXPECT_EQ(parse_json("true").as_bool(), true);
  EXPECT_EQ(parse_json("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(parse_json("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(parse_json("-3.5e2").as_number(), -350.0);
  EXPECT_EQ(parse_json("\"hi\"").as_string(), "hi");
}

TEST(JsonParse, NestedStructure) {
  const JsonValue v = parse_json(R"({"a": [1, 2, {"b": true}], "c": "x"})");
  EXPECT_EQ(v.at("a").as_array().size(), 3u);
  EXPECT_TRUE(v.at("a").as_array()[2].at("b").as_bool());
  EXPECT_EQ(v.at("c").as_string(), "x");
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(parse_json(R"("a\nb\t\"\\")").as_string(), "a\nb\t\"\\");
  EXPECT_EQ(parse_json(R"("A")").as_string(), "A");
  EXPECT_EQ(parse_json(R"("é")").as_string(), "\xc3\xa9");  // é in UTF-8
}

TEST(JsonParse, Whitespace) {
  const JsonValue v = parse_json("  {  \"a\" :\n[ 1 ,2 ]\t}  ");
  EXPECT_EQ(v.at("a").as_array().size(), 2u);
}

TEST(JsonParse, ErrorsCarryPosition) {
  EXPECT_THROW((void)parse_json(""), std::runtime_error);
  EXPECT_THROW((void)parse_json("{"), std::runtime_error);
  EXPECT_THROW((void)parse_json("[1,]"), std::runtime_error);
  EXPECT_THROW((void)parse_json("{\"a\":1} trailing"), std::runtime_error);
  EXPECT_THROW((void)parse_json("\"unterminated"), std::runtime_error);
  EXPECT_THROW((void)parse_json("tru"), std::runtime_error);
  EXPECT_THROW((void)parse_json("01a"), std::runtime_error);
}

TEST(JsonWrite, RoundTripPreservesStructure) {
  JsonObject o;
  o["name"] = "geo-i";
  o["eps"] = 0.01;
  o["flag"] = true;
  o["nothing"] = nullptr;
  o["list"] = JsonArray{1.0, 2.5, std::string("three")};
  const JsonValue original(std::move(o));
  const JsonValue again = parse_json(to_json(original));
  EXPECT_EQ(again.at("name").as_string(), "geo-i");
  EXPECT_DOUBLE_EQ(again.at("eps").as_number(), 0.01);
  EXPECT_TRUE(again.at("flag").as_bool());
  EXPECT_TRUE(again.at("nothing").is_null());
  EXPECT_EQ(again.at("list").as_array().size(), 3u);
}

TEST(JsonWrite, NumbersSurviveRoundTripExactly) {
  for (const double d : {0.0, 1.0, -1.5, 0.017, 1e-9, 123456789.0, 6.02e23}) {
    const double back = parse_json(to_json(JsonValue(d))).as_number();
    EXPECT_DOUBLE_EQ(back, d);
  }
}

TEST(JsonWrite, EscapesControlCharacters) {
  const std::string s = to_json(JsonValue(std::string("a\nb\"c")));
  EXPECT_NE(s.find("\\n"), std::string::npos);
  EXPECT_NE(s.find("\\\""), std::string::npos);
}

TEST(JsonFile, RoundTripThroughDisk) {
  const testutil::ScratchDir scratch;
  const std::string path = scratch.path("locpriv_json_test.json");
  JsonObject o;
  o["x"] = 1.5;
  write_json_file(path, JsonValue(std::move(o)));
  const JsonValue v = read_json_file(path);
  EXPECT_DOUBLE_EQ(v.at("x").as_number(), 1.5);
  EXPECT_THROW(read_json_file("/nonexistent/f.json"), std::runtime_error);
}

}  // namespace
}  // namespace locpriv::io
