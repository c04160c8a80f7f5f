/// \file spans.cpp
/// The harness span log and its Chrome-trace export.

#include <fstream>
#include <stdexcept>

#include "perf.hpp"
#include "util/json.hpp"

namespace s3asim::perf {

SpanLog::Scope SpanLog::open(std::string name, std::uint64_t run) {
  const std::int64_t parent =
      open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  spans_.push_back(Span{std::move(name), Clock::now(), {}, parent, run});
  open_.push_back(spans_.size() - 1);
  return Scope(*this, spans_.size() - 1);
}

void SpanLog::close(std::size_t index) noexcept {
  spans_[index].end = Clock::now();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::size_t SpanLog::count(const std::string& prefix) const {
  std::size_t n = 0;
  for (const Span& span : spans_)
    if (span.name.compare(0, prefix.size(), prefix) == 0) ++n;
  return n;
}

void SpanLog::write_chrome_json(const std::string& path) const {
  const Clock::time_point origin =
      spans_.empty() ? Clock::now() : spans_.front().start;
  const auto micros = [origin](Clock::time_point at) {
    return std::chrono::duration<double, std::micro>(at - origin).count();
  };
  util::JsonWriter json;
  json.begin_object();
  json.key("traceEvents");
  json.begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    json.begin_object();
    json.key("name");
    json.value(span.name);
    json.key("ph");
    json.value("X");
    json.key("pid");
    json.value(std::uint64_t{1});
    json.key("tid");
    json.value(std::uint64_t{1});
    json.key("ts");
    json.value(micros(span.start));
    json.key("dur");
    json.value(micros(span.end) - micros(span.start));
    json.key("args");
    json.begin_object();
    json.key("id");
    json.value(static_cast<std::uint64_t>(i));
    json.key("parent");
    json.value(span.parent);
    json.key("run");
    json.value(span.run);
    json.end_object();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  std::ofstream out(path);
  out << json.str() << '\n';
  if (!out) throw std::runtime_error("cannot write span trace to " + path);
}

}  // namespace s3asim::perf
