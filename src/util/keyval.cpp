#include "util/keyval.hpp"

#include <cctype>
#include <sstream>
#include <stdexcept>

#include "util/require.hpp"
#include "util/units.hpp"

namespace s3asim::util {

namespace {

std::string trim(const std::string& text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin])))
    ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1])))
    --end;
  return text.substr(begin, end - begin);
}

std::string strip_comment(const std::string& line) {
  for (std::size_t i = 0; i < line.size(); ++i)
    if (line[i] == '#' || line[i] == ';') return line.substr(0, i);
  return line;
}

std::string lower(std::string text) {
  for (char& c : text)
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return text;
}

[[noreturn]] void fail(std::size_t line_number, const std::string& message) {
  throw std::invalid_argument("config line " + std::to_string(line_number) +
                              ": " + message);
}

}  // namespace

KeyValConfig KeyValConfig::parse(const std::string& text) {
  KeyValConfig config;
  std::istringstream input(text);
  std::string line;
  std::size_t line_number = 0;
  std::string histogram_section;
  std::vector<HistogramBin> bins;

  auto flush_histogram = [&]() {
    if (histogram_section.empty()) return;
    if (bins.empty())
      throw std::invalid_argument("histogram '" + histogram_section +
                                  "' has no bins");
    config.histograms_.emplace(histogram_section, BoxHistogram(bins));
    histogram_section.clear();
    bins.clear();
  };

  while (std::getline(input, line)) {
    ++line_number;
    const std::string content = trim(strip_comment(line));
    if (content.empty()) continue;

    if (content.front() == '[') {
      if (content.back() != ']') fail(line_number, "unterminated section");
      flush_histogram();
      const std::string section = trim(content.substr(1, content.size() - 2));
      if (section.rfind("histogram", 0) != 0)
        fail(line_number, "unknown section '" + section + "'");
      histogram_section = trim(section.substr(9));
      if (histogram_section.empty())
        fail(line_number, "histogram section needs a name");
      continue;
    }

    if (!histogram_section.empty()) {
      std::istringstream fields(content);
      HistogramBin bin;
      if (!(fields >> bin.lo >> bin.hi >> bin.weight))
        fail(line_number, "expected 'lo hi weight'");
      std::string extra;
      if (fields >> extra) fail(line_number, "trailing data '" + extra + "'");
      bins.push_back(bin);
      continue;
    }

    const std::size_t equals = content.find('=');
    if (equals == std::string::npos)
      fail(line_number, "expected 'key = value'");
    const std::string key = trim(content.substr(0, equals));
    const std::string value = trim(content.substr(equals + 1));
    if (key.empty()) fail(line_number, "empty key");
    if (config.values_.contains(key))
      fail(line_number, "duplicate key '" + key + "'");
    config.values_.emplace(key, value);
  }
  flush_histogram();
  return config;
}

const std::string* KeyValConfig::find(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return nullptr;
  touched_[key] = true;
  return &it->second;
}

bool KeyValConfig::has(const std::string& key) const {
  return values_.contains(key);
}

std::string KeyValConfig::get_string(const std::string& key,
                                     const std::string& fallback) const {
  const std::string* value = find(key);
  return value ? *value : fallback;
}

std::int64_t KeyValConfig::get_int(const std::string& key,
                                   std::int64_t fallback) const {
  const std::string* value = find(key);
  if (!value) return fallback;
  try {
    std::size_t consumed = 0;
    const std::int64_t parsed = std::stoll(*value, &consumed);
    if (consumed != value->size()) throw std::invalid_argument("");
    return parsed;
  } catch (const std::exception&) {
    throw std::invalid_argument("key '" + key + "': bad integer '" + *value +
                                "'");
  }
}

double KeyValConfig::get_double(const std::string& key, double fallback) const {
  const std::string* value = find(key);
  if (!value) return fallback;
  try {
    std::size_t consumed = 0;
    const double parsed = std::stod(*value, &consumed);
    if (consumed != value->size()) throw std::invalid_argument("");
    return parsed;
  } catch (const std::exception&) {
    throw std::invalid_argument("key '" + key + "': bad number '" + *value +
                                "'");
  }
}

bool KeyValConfig::get_bool(const std::string& key, bool fallback) const {
  const std::string* value = find(key);
  if (!value) return fallback;
  const std::string norm = lower(*value);
  if (norm == "true" || norm == "yes" || norm == "on" || norm == "1")
    return true;
  if (norm == "false" || norm == "no" || norm == "off" || norm == "0")
    return false;
  throw std::invalid_argument("key '" + key + "': bad boolean '" + *value +
                              "'");
}

std::uint64_t KeyValConfig::get_bytes(const std::string& key,
                                      std::uint64_t fallback) const {
  const std::string* value = find(key);
  if (!value) return fallback;
  try {
    return parse_bytes(*value);
  } catch (const std::exception& error) {
    throw std::invalid_argument("key '" + key + "': " + error.what());
  }
}

std::optional<BoxHistogram> KeyValConfig::get_histogram(
    const std::string& name) const {
  const auto it = histograms_.find(name);
  if (it == histograms_.end()) return std::nullopt;
  return it->second;
}

std::vector<std::string> KeyValConfig::unused_keys() const {
  std::vector<std::string> unused;
  for (const auto& [key, value] : values_)
    if (!touched_.contains(key)) unused.push_back(key);
  return unused;
}

}  // namespace s3asim::util
