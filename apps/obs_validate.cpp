/// obs_validate — offline schema validator for the observability artifacts.
///
/// Usage:
///   obs_validate [--trace FILE.json] [--metrics FILE.json] [--simulated-only]
///
/// Parses each file with util::parse_json and checks it against the
/// corresponding schema (`obs::validate_chrome_trace` /
/// `obs::validate_metrics_manifest`).  Prints one line per violation and
/// exits nonzero if any file fails to parse or validate.  CI runs this over
/// the bench job's exports so a malformed trace or manifest fails the build
/// instead of a Perfetto session.
///
/// --simulated-only (requires --metrics) additionally prints the manifest
/// to stdout in canonical form — sorted keys, every "host."-prefixed
/// member dropped.  host.* is the namespace for host-clock and host-memory
/// metrics (e.g. host.sched.pop_seconds, host.frame_pool.reused), the only
/// nondeterministic manifest content; stripping it makes two runs of the
/// same config byte-identical, so determinism checks are a plain `diff`:
///
///   obs_validate --metrics a.json --simulated-only > a.sim.json

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/schema.hpp"
#include "util/json.hpp"

namespace {

bool read_file(const std::string& path, std::string* out) {
  std::ifstream input(path);
  if (!input) return false;
  std::ostringstream buffer;
  buffer << input.rdbuf();
  *out = buffer.str();
  return true;
}

/// Re-serializes `value` canonically: object keys in sorted order (the
/// parser already holds them sorted) and, when `strip_host` is set, every
/// object member whose key starts with "host." dropped — at any depth, so
/// the rule covers the metric sections without knowing their layout.
void write_canonical(const s3asim::util::JsonValue& value,
                     s3asim::util::JsonWriter& out, bool strip_host) {
  using Kind = s3asim::util::JsonValue::Kind;
  switch (value.kind()) {
    case Kind::Null:
      out.null();
      break;
    case Kind::Bool:
      out.value(value.as_bool());
      break;
    case Kind::Number:
      out.value(value.as_number());
      break;
    case Kind::String:
      out.value(value.as_string());
      break;
    case Kind::Array:
      out.begin_array();
      for (const auto& item : value.items())
        write_canonical(item, out, strip_host);
      out.end_array();
      break;
    case Kind::Object:
      out.begin_object();
      for (const auto& [key, member] : value.members()) {
        if (strip_host && key.rfind("host.", 0) == 0) continue;
        out.key(key);
        write_canonical(member, out, strip_host);
      }
      out.end_object();
      break;
  }
}

/// Validates one file; returns the number of problems found (0 = clean).
/// With `simulated_only`, additionally prints the canonical host.*-free
/// form to stdout (status lines go to stderr so stdout stays diff-clean).
int check(const std::string& path, const char* what,
          std::vector<std::string> (*validate)(const s3asim::util::JsonValue&),
          bool simulated_only = false) {
  std::string text;
  if (!read_file(path, &text)) {
    std::fprintf(stderr, "obs_validate: cannot open %s\n", path.c_str());
    return 1;
  }
  s3asim::util::JsonValue root;
  try {
    root = s3asim::util::parse_json(text);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "obs_validate: %s: parse error: %s\n", path.c_str(),
                 error.what());
    return 1;
  }
  const std::vector<std::string> problems = validate(root);
  for (const std::string& problem : problems)
    std::fprintf(stderr, "obs_validate: %s: %s\n", path.c_str(),
                 problem.c_str());
  if (!problems.empty()) return static_cast<int>(problems.size());
  if (simulated_only) {
    s3asim::util::JsonWriter out;
    write_canonical(root, out, /*strip_host=*/true);
    std::printf("%s\n", out.str().c_str());
    std::fprintf(stderr, "obs_validate: %s: valid %s\n", path.c_str(), what);
  } else {
    std::printf("obs_validate: %s: valid %s\n", path.c_str(), what);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr const char* kUsage =
      "usage: obs_validate [--trace FILE.json] [--metrics FILE.json] "
      "[--simulated-only]\n";
  std::string trace_path;
  std::string metrics_path;
  bool simulated_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg == "--metrics" && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (arg == "--simulated-only") {
      simulated_only = true;
    } else {
      std::fprintf(stderr, "%s", kUsage);
      return 2;
    }
  }
  if (trace_path.empty() && metrics_path.empty()) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  if (simulated_only && metrics_path.empty()) {
    std::fprintf(stderr,
                 "obs_validate: --simulated-only needs --metrics (host.* "
                 "metrics only appear in the manifest)\n");
    return 2;
  }
  int problems = 0;
  if (!trace_path.empty())
    problems += check(trace_path, "chrome trace",
                      &s3asim::obs::validate_chrome_trace);
  if (!metrics_path.empty())
    problems += check(metrics_path, "metrics manifest",
                      &s3asim::obs::validate_metrics_manifest, simulated_only);
  return problems == 0 ? 0 : 1;
}
