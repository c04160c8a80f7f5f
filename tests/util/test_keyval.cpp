#include "util/keyval.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace {

using s3asim::util::KeyValConfig;

TEST(KeyValTest, ParsesBasicPairs) {
  const auto config = KeyValConfig::parse("a = 1\nb = hello world\n");
  EXPECT_EQ(config.get_int("a", 0), 1);
  EXPECT_EQ(config.get_string("b", ""), "hello world");
}

TEST(KeyValTest, FallbacksForMissingKeys) {
  const auto config = KeyValConfig::parse("");
  EXPECT_EQ(config.get_int("x", 42), 42);
  EXPECT_EQ(config.get_string("y", "dflt"), "dflt");
  EXPECT_TRUE(config.get_bool("z", true));
  EXPECT_DOUBLE_EQ(config.get_double("w", 2.5), 2.5);
}

TEST(KeyValTest, CommentsAndBlankLines) {
  const auto config = KeyValConfig::parse(
      "# full comment\n\n  a = 1   # trailing\n b = 2 ; alt comment\n");
  EXPECT_EQ(config.get_int("a", 0), 1);
  EXPECT_EQ(config.get_int("b", 0), 2);
  EXPECT_EQ(config.size(), 2u);
}

TEST(KeyValTest, BoolVariants) {
  const auto config = KeyValConfig::parse(
      "t1 = true\nt2 = YES\nt3 = on\nt4 = 1\nf1 = false\nf2 = Off\n");
  for (const char* key : {"t1", "t2", "t3", "t4"})
    EXPECT_TRUE(config.get_bool(key, false)) << key;
  EXPECT_FALSE(config.get_bool("f1", true));
  EXPECT_FALSE(config.get_bool("f2", true));
}

TEST(KeyValTest, BytesWithUnits) {
  const auto config = KeyValConfig::parse("strip = 64KiB\nbig = 1.5 MiB\n");
  EXPECT_EQ(config.get_bytes("strip", 0), 65536u);
  EXPECT_EQ(config.get_bytes("big", 0), 1572864u);
}

TEST(KeyValTest, MalformedValuesThrow) {
  const auto config = KeyValConfig::parse("i = 3x\nd = nope\nb = maybe\n");
  EXPECT_THROW((void)config.get_int("i", 0), std::invalid_argument);
  EXPECT_THROW((void)config.get_double("d", 0), std::invalid_argument);
  EXPECT_THROW((void)config.get_bool("b", false), std::invalid_argument);
}

TEST(KeyValTest, DuplicateKeysRejected) {
  EXPECT_THROW((void)KeyValConfig::parse("a = 1\na = 2\n"),
               std::invalid_argument);
}

TEST(KeyValTest, MissingEqualsRejectedWithLineNumber) {
  try {
    (void)KeyValConfig::parse("good = 1\nbad line\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("line 2"), std::string::npos);
  }
}

TEST(KeyValTest, HistogramSection) {
  const auto config = KeyValConfig::parse(
      "x = 1\n[histogram db]\n10 100 0.5\n100 1000 0.5\n");
  const auto hist = config.get_histogram("db");
  ASSERT_TRUE(hist.has_value());
  EXPECT_EQ(hist->min_value(), 10u);
  EXPECT_EQ(hist->max_value(), 1000u);
  EXPECT_FALSE(config.get_histogram("other").has_value());
}

TEST(KeyValTest, TwoHistogramSections) {
  const auto config = KeyValConfig::parse(
      "[histogram a]\n1 2 1.0\n[histogram b]\n3 4 1.0\n");
  EXPECT_TRUE(config.get_histogram("a").has_value());
  EXPECT_TRUE(config.get_histogram("b").has_value());
}

TEST(KeyValTest, EmptyHistogramRejected) {
  EXPECT_THROW((void)KeyValConfig::parse("[histogram a]\n"),
               std::invalid_argument);
}

TEST(KeyValTest, BadHistogramRowRejected) {
  EXPECT_THROW((void)KeyValConfig::parse("[histogram a]\n1 2\n"),
               std::invalid_argument);
  EXPECT_THROW((void)KeyValConfig::parse("[histogram a]\n1 2 3 4\n"),
               std::invalid_argument);
}

TEST(KeyValTest, UnknownSectionRejected) {
  EXPECT_THROW((void)KeyValConfig::parse("[weird]\n"), std::invalid_argument);
}

TEST(KeyValTest, UnusedKeysTracksUntouched) {
  const auto config = KeyValConfig::parse("used = 1\nunused = 2\n");
  (void)config.get_int("used", 0);
  const auto unused = config.unused_keys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "unused");
}

}  // namespace
