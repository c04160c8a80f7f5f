/// Golden test for the s3asim CLI --help text (apps/cli_usage.hpp): every
/// flag the parser accepts must be documented, no stale flags may linger,
/// and the exact text is pinned so any wording change is a conscious diff
/// here too (README.md quotes parts of it).

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>

#include "cli_usage.hpp"

namespace {

const char* const kExpectedFlags[] = {
    "--procs",         "--strategy",       "--sync",
    "--speed",         "--arrival-rate",   "--arrival-trace",
    "--admit-policy",  "--admit-depth",    "--cache-size",
    "--cache-block",   "--token-granularity",
    "--worker-classes", "--joins",         "--elastic",
    "--min-workers",   "--autoscale-target",
    "--read-method",   "--sieve-buffer",
    "--trace",         "--trace-json",
    "--metrics-json",  "--gantt",          "--groups",
    "--jobs",          "--fault",          "--fault-timeout",
    "--json",          "--set",            "--print-config",
    "--help",
};

/// Flags documented in the usage text: the first "--token" on each
/// flag-description line.
std::set<std::string> documented_flags() {
  std::set<std::string> flags;
  std::istringstream lines{std::string(s3asim::cli::kUsageText)};
  std::string line;
  while (std::getline(lines, line)) {
    const auto dash = line.find("--");
    if (dash == std::string::npos || dash != 2) continue;  // continuation
    const auto end = line.find_first_of(" \t", dash);
    flags.insert(line.substr(dash, end - dash));
  }
  return flags;
}

TEST(CliUsageTest, EveryParserFlagIsDocumented) {
  const std::set<std::string> documented = documented_flags();
  for (const char* flag : kExpectedFlags)
    EXPECT_TRUE(documented.count(flag) == 1) << "undocumented flag " << flag;
}

TEST(CliUsageTest, NoStaleFlagsDocumented) {
  const std::set<std::string> expected(std::begin(kExpectedFlags),
                                       std::end(kExpectedFlags));
  for (const std::string& flag : documented_flags())
    EXPECT_TRUE(expected.count(flag) == 1) << "stale flag " << flag;
}

TEST(CliUsageTest, GoldenText) {
  // Pin the full text: update both this test and README.md when editing
  // apps/cli_usage.hpp.
  const std::string text = s3asim::cli::kUsageText;
  EXPECT_EQ(text.substr(0, text.find('\n')),
            "usage: s3asim [options] [config-file]");
  EXPECT_NE(text.find("--trace-json FILE   export Chrome-trace-event JSON"),
            std::string::npos);
  EXPECT_NE(text.find("--metrics-json FILE export the per-run metrics manifest"),
            std::string::npos);
  EXPECT_NE(text.find("determinism self-check; default 1 = off"),
            std::string::npos);
  EXPECT_NE(text.find("WW-FilePerProc | WW-Aggr | WW-Sieve"),
            std::string::npos);
  EXPECT_NE(text.find("posix | list |"), std::string::npos);
  EXPECT_NE(text.find("ROMIO ind_rd_buffer_size"), std::string::npos);
  EXPECT_NE(text.find("docs/OBSERVABILITY.md"), std::string::npos);
  EXPECT_NE(text.find("crash => resume-from-flush"), std::string::npos);
  EXPECT_NE(text.find("--groups G          hybrid segmentation: G master"),
            std::string::npos);
  EXPECT_NE(text.find("(config key groups; default 1)"), std::string::npos);
  EXPECT_NE(text.find("default 0 = closed batch"), std::string::npos);
  EXPECT_NE(text.find("fifo | wfq | priority"), std::string::npos);
  EXPECT_NE(text.find("--cache-size B      per-client write-back cache"),
            std::string::npos);
  EXPECT_NE(text.find("byte-range lease granularity"), std::string::npos);
  EXPECT_NE(text.find("\"name:speed=S,count=N\" assigned round-robin"),
            std::string::npos);
  EXPECT_NE(text.find("\"worker=R,at=T[,class=NAME]\" (closed batch only)"),
            std::string::npos);
  EXPECT_NE(text.find("autoscaler grow/shrink the cluster"), std::string::npos);
  EXPECT_NE(text.find("admission-queue depth that triggers a scale-up"),
            std::string::npos);
  EXPECT_NE(text.find("bit-identical"), std::string::npos);
  // The text ends without a trailing newline (puts adds one).
  EXPECT_NE(text.back(), '\n');
}

}  // namespace
