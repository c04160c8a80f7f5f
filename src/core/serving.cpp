#include "core/serving.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "fault/fault.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace s3asim::core {

namespace {

/// Stream-id salt for per-tenant arrival RNGs (disjoint from the workload
/// model's 0x51e5 query streams and every fault/jitter salt).
constexpr std::uint64_t kArrivalSalt = 0xa4417a1eULL;

std::string trim(const std::string& text) {
  const auto first = text.find_first_not_of(" \t\r");
  if (first == std::string::npos) return "";
  const auto last = text.find_last_not_of(" \t\r");
  return text.substr(first, last - first + 1);
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::istringstream stream(text);
  std::string part;
  while (std::getline(stream, part, sep)) parts.push_back(part);
  return parts;
}

[[noreturn]] void trace_error(std::size_t line, const std::string& message) {
  throw std::invalid_argument("arrival trace line " + std::to_string(line) +
                              ": " + message);
}

}  // namespace

std::vector<TenantConfig> effective_tenants(const ServingConfig& serving) {
  if (!serving.tenants.empty()) return serving.tenants;
  TenantConfig tenant;
  tenant.name = "default";
  tenant.rate_hz = serving.arrival_rate_hz;
  return {tenant};
}

std::vector<double> tenant_rates(const ServingConfig& serving) {
  const std::vector<TenantConfig> tenants = effective_tenants(serving);
  std::vector<double> rates(tenants.size(), 0.0);
  double share_sum = 0.0;
  for (const TenantConfig& tenant : tenants) share_sum += tenant.rate_hz;
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    if (!serving.tenants.empty() && serving.arrival_rate_hz > 0.0) {
      // Aggregate rate set alongside explicit tenants: per-tenant rates
      // are relative shares of the aggregate.
      rates[t] = share_sum > 0.0 ? serving.arrival_rate_hz *
                                       tenants[t].rate_hz / share_sum
                                 : 0.0;
    } else {
      rates[t] = tenants[t].rate_hz;
    }
  }
  return rates;
}

std::vector<Arrival> generate_arrivals(const ServingConfig& serving,
                                       const WorkloadConfig& workload) {
  std::vector<Arrival> arrivals;
  if (!serving.trace_arrivals.empty()) {
    arrivals.reserve(serving.trace_arrivals.size());
    for (const auto& [seconds, tenant] : serving.trace_arrivals)
      arrivals.push_back(Arrival{sim::seconds(seconds), tenant});
    return arrivals;
  }

  const std::vector<double> rates = tenant_rates(serving);
  const std::uint32_t count = workload.query_count;
  arrivals.reserve(count);

  // One independent exponential-gap stream per tenant (forked from the
  // workload seed, so the arrival pattern is part of the same determinism
  // contract), k-way merged by time with the tenant index as tie-break.
  struct Stream {
    util::Xoshiro256 rng;
    double rate = 0.0;
    double next_at = std::numeric_limits<double>::infinity();
  };
  auto exp_gap = [](Stream& stream) {
    // Inverse-CDF sampling; 1 - uniform() is in (0, 1], so the log is
    // finite and the gap strictly positive.
    return -std::log(1.0 - stream.rng.uniform()) / stream.rate;
  };
  util::Xoshiro256 root(workload.seed);
  std::vector<Stream> streams;
  streams.reserve(rates.size());
  for (std::size_t t = 0; t < rates.size(); ++t) {
    Stream& stream = streams.emplace_back(
        Stream{root.fork(util::hash_combine(kArrivalSalt, t)), rates[t]});
    if (stream.rate > 0.0) stream.next_at = exp_gap(stream);
  }
  for (std::uint32_t q = 0; q < count; ++q) {
    std::size_t pick = 0;
    for (std::size_t t = 1; t < streams.size(); ++t)
      if (streams[t].next_at < streams[pick].next_at) pick = t;
    Stream& stream = streams[pick];
    S3A_CHECK_MSG(std::isfinite(stream.next_at),
                  "no tenant has a positive arrival rate");
    arrivals.push_back(Arrival{sim::seconds(stream.next_at),
                               static_cast<std::uint32_t>(pick)});
    stream.next_at += exp_gap(stream);
  }
  return arrivals;
}

std::vector<TenantConfig> parse_tenants(const std::string& spec) {
  std::vector<TenantConfig> tenants;
  // '|'-separated entries ('#' and ';' start comments in the key=value
  // config format, so neither can appear inside a value).
  for (const std::string& raw : split(spec, '|')) {
    const std::string entry = trim(raw);
    if (entry.empty()) continue;
    TenantConfig tenant;
    const auto colon = entry.find(':');
    tenant.name = trim(entry.substr(0, colon));
    if (tenant.name.empty())
      throw std::invalid_argument("tenants entry '" + entry +
                                  "' is missing a name");
    for (const TenantConfig& existing : tenants)
      if (existing.name == tenant.name)
        throw std::invalid_argument("duplicate tenant '" + tenant.name + "'");
    if (colon != std::string::npos) {
      for (const std::string& field : split(entry.substr(colon + 1), ',')) {
        const std::string assignment = trim(field);
        if (assignment.empty()) continue;
        const auto equals = assignment.find('=');
        if (equals == std::string::npos)
          throw std::invalid_argument("tenant '" + tenant.name +
                                      "': field '" + assignment +
                                      "' is not key=value");
        const std::string key = trim(assignment.substr(0, equals));
        const std::string value = trim(assignment.substr(equals + 1));
        try {
          if (key == "rate") {
            tenant.rate_hz = std::stod(value);
          } else if (key == "weight") {
            tenant.weight = std::stod(value);
          } else if (key == "priority") {
            tenant.priority = static_cast<std::uint32_t>(std::stoul(value));
          } else {
            throw std::invalid_argument(
                "tenant '" + tenant.name + "': unknown field '" + key +
                "' (expected rate, weight, or priority)");
          }
        } catch (const std::invalid_argument&) {
          throw;
        } catch (const std::exception&) {
          throw std::invalid_argument("tenant '" + tenant.name + "': field '" +
                                      key + "' has malformed value '" + value +
                                      "'");
        }
      }
    }
    tenants.push_back(std::move(tenant));
  }
  return tenants;
}

std::vector<TraceArrival> parse_arrival_trace(
    const std::string& text, std::vector<TenantConfig>& tenants) {
  const bool tenants_declared = !tenants.empty();
  std::vector<TraceArrival> rows;
  std::istringstream lines(text);
  std::string line;
  std::size_t line_no = 0;
  double previous = -std::numeric_limits<double>::infinity();
  while (std::getline(lines, line)) {
    ++line_no;
    const std::string content = trim(line);
    if (content.empty() || content[0] == '#') continue;
    const std::vector<std::string> fields = split(content, ',');
    if (fields.size() != 3)
      trace_error(line_no, "expected 3 fields 't_seconds, tenant, query_size'"
                           ", got " +
                               std::to_string(fields.size()));
    TraceArrival row;
    const std::string t_field = trim(fields[0]);
    try {
      std::size_t used = 0;
      row.seconds = std::stod(t_field, &used);
      if (used != t_field.size()) throw std::invalid_argument(t_field);
    } catch (const std::exception&) {
      trace_error(line_no, "malformed timestamp '" + t_field + "'");
    }
    if (row.seconds < 0.0)
      trace_error(line_no, "negative timestamp " + t_field);
    if (row.seconds < previous)
      trace_error(line_no,
                  "timestamp " + t_field + " decreases below the previous "
                  "arrival; arrival traces must be sorted by time");
    previous = row.seconds;

    const std::string name = trim(fields[1]);
    if (name.empty()) trace_error(line_no, "empty tenant name");
    auto found = std::find_if(
        tenants.begin(), tenants.end(),
        [&name](const TenantConfig& tenant) { return tenant.name == name; });
    if (found == tenants.end()) {
      if (tenants_declared) {
        std::string declared;
        for (const TenantConfig& tenant : tenants)
          declared += (declared.empty() ? "" : ", ") + tenant.name;
        trace_error(line_no, "unknown tenant '" + name +
                                 "' (declared tenants: " + declared +
                                 "); declare it in the 'tenants' key or fix "
                                 "the trace");
      }
      TenantConfig tenant;
      tenant.name = name;
      tenant.rate_hz = 0.0;  // replay provides the timing
      tenants.push_back(tenant);
      found = std::prev(tenants.end());
    }
    row.tenant = static_cast<std::uint32_t>(found - tenants.begin());

    const std::string size_field = trim(fields[2]);
    try {
      std::size_t used = 0;
      const long long parsed = std::stoll(size_field, &used);
      if (used != size_field.size() || parsed <= 0)
        throw std::invalid_argument(size_field);
      row.query_bytes = static_cast<std::uint64_t>(parsed);
    } catch (const std::exception&) {
      trace_error(line_no, "query_size '" + size_field +
                               "' is not a positive integer");
    }
    rows.push_back(row);
  }
  if (rows.empty())
    throw std::invalid_argument(
        "arrival trace has no arrivals (every line is blank or a comment)");
  return rows;
}

void apply_arrival_trace(SimConfig& config) {
  ServingConfig& serving = config.serving;
  std::ifstream input(serving.arrival_trace);
  if (!input)
    throw std::runtime_error("cannot open arrival trace: " +
                             serving.arrival_trace);
  std::ostringstream buffer;
  buffer << input.rdbuf();
  const std::vector<TraceArrival> rows =
      parse_arrival_trace(buffer.str(), serving.tenants);
  serving.trace_arrivals.clear();
  serving.trace_arrivals.reserve(rows.size());
  config.workload.query_lengths.clear();
  config.workload.query_lengths.reserve(rows.size());
  for (const TraceArrival& row : rows) {
    serving.trace_arrivals.emplace_back(row.seconds, row.tenant);
    config.workload.query_lengths.push_back(row.query_bytes);
  }
  config.workload.query_count = static_cast<std::uint32_t>(rows.size());
}

AdmitPolicy parse_admit_policy(const std::string& name) {
  if (name == "fifo" || name == "FIFO") return AdmitPolicy::Fifo;
  if (name == "wfq" || name == "weighted-fair" || name == "weighted_fair")
    return AdmitPolicy::WeightedFair;
  if (name == "priority") return AdmitPolicy::Priority;
  throw std::invalid_argument("unknown admit_policy '" + name +
                              "' (expected fifo, weighted-fair, or priority)");
}

const char* admit_policy_name(AdmitPolicy policy) noexcept {
  switch (policy) {
    case AdmitPolicy::Fifo:
      return "fifo";
    case AdmitPolicy::WeightedFair:
      return "weighted-fair";
    case AdmitPolicy::Priority:
      return "priority";
  }
  return "?";
}

void validate_serving(const SimConfig& config) {
  const ServingConfig& serving = config.serving;
  if (!serving.enabled()) return;
  S3A_REQUIRE_MSG(config.queries_per_flush == 1,
                  "serving mode retires every query as its own durable "
                  "batch; set queries_per_flush = 1 (got " +
                      std::to_string(config.queries_per_flush) + ")");
  S3A_REQUIRE_MSG(config.fault.empty(),
                  "serving mode does not compose with fault injection; drop "
                  "the fault plan or run the closed-batch workload");
  S3A_REQUIRE_MSG(serving.admit_depth >= 1,
                  "admit_depth must be at least 1 (0 would shed every query)");
  S3A_REQUIRE_MSG(
      !(!serving.arrival_trace.empty() && serving.trace_arrivals.empty()),
      "arrival_trace is set but not loaded; load the configuration through "
      "load_config (or call apply_arrival_trace) before running");
  const std::vector<TenantConfig> tenants = effective_tenants(serving);
  for (const TenantConfig& tenant : tenants) {
    S3A_REQUIRE_MSG(tenant.weight > 0.0,
                    "tenant '" + tenant.name + "' has non-positive weight");
    S3A_REQUIRE_MSG(tenant.rate_hz >= 0.0,
                    "tenant '" + tenant.name + "' has a negative rate");
  }
  if (serving.trace_arrivals.empty()) {
    const std::vector<double> rates = tenant_rates(serving);
    double total = 0.0;
    for (const double rate : rates) total += rate;
    S3A_REQUIRE_MSG(total > 0.0,
                    "Poisson serving needs a positive arrival rate "
                    "(arrival_rate or a tenant rate)");
  }
  S3A_REQUIRE_MSG(config.workload.query_lengths.empty() ||
                      config.workload.query_lengths.size() ==
                          config.workload.query_count,
                  "workload.query_lengths must be empty or have exactly "
                  "query_count entries");
}

AdmissionQueue::AdmissionQueue(AdmitPolicy policy, std::uint32_t depth,
                               std::vector<TenantConfig> tenants)
    : policy_(policy),
      depth_(depth),
      tenants_(std::move(tenants)),
      tenant_finish_(tenants_.size(), 0.0),
      shed_(tenants_.size(), 0) {
  S3A_REQUIRE(!tenants_.empty());
  S3A_REQUIRE(depth_ >= 1);
}

bool AdmissionQueue::offer(std::uint32_t query, std::uint32_t tenant,
                           sim::Time arrived) {
  S3A_REQUIRE(tenant < tenants_.size());
  if (entries_.size() >= depth_) {
    ++shed_[tenant];
    ++shed_total_;
    return false;
  }
  Admitted entry;
  entry.query = query;
  entry.tenant = tenant;
  entry.arrived = arrived;
  entry.seq = seq_++;
  // Start-time fair queuing: the tenant's virtual finish advances by the
  // inverse of its weight per admitted query, never behind the virtual
  // clock (an idle tenant does not bank credit).
  tenant_finish_[tenant] = std::max(tenant_finish_[tenant], virtual_time_) +
                           1.0 / tenants_[tenant].weight;
  entry.virtual_finish = tenant_finish_[tenant];
  entries_.push_back(entry);
  return true;
}

Admitted AdmissionQueue::pop() {
  S3A_CHECK_MSG(!entries_.empty(), "pop from an empty admission queue");
  std::size_t pick = 0;
  switch (policy_) {
    case AdmitPolicy::Fifo:
      break;  // admission order — the front
    case AdmitPolicy::WeightedFair:
      for (std::size_t i = 1; i < entries_.size(); ++i)
        if (entries_[i].virtual_finish < entries_[pick].virtual_finish)
          pick = i;
      break;
    case AdmitPolicy::Priority:
      for (std::size_t i = 1; i < entries_.size(); ++i)
        if (tenants_[entries_[i].tenant].priority <
            tenants_[entries_[pick].tenant].priority)
          pick = i;
      break;
  }
  const Admitted entry = entries_[pick];
  entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(pick));
  if (policy_ == AdmitPolicy::WeightedFair)
    virtual_time_ = std::max(virtual_time_, entry.virtual_finish);
  return entry;
}

ServingContext::ServingContext(const SimConfig& config)
    : tenants(effective_tenants(config.serving)),
      arrivals(generate_arrivals(config.serving, config.workload)),
      inflight_watermark(config.serving.inflight_watermark_bytes),
      queue(config.serving.policy, config.serving.admit_depth, tenants),
      offered(tenants.size(), 0),
      completed(tenants.size(), 0),
      latencies(tenants.size()) {
  S3A_REQUIRE_MSG(arrivals.size() == config.workload.query_count,
                  "arrival list does not match the workload's query count");
}

bool ServingContext::offer(std::uint32_t query) {
  const Arrival& arrival = arrivals[query];
  ++offered[arrival.tenant];
  return queue.offer(query, arrival.tenant, arrival.at);
}

void ServingContext::on_dispatch(std::uint64_t region_bytes) {
  ++dispatched;
  inflight_bytes += region_bytes;
  inflight_peak_bytes = std::max(inflight_peak_bytes, inflight_bytes);
}

void ServingContext::on_retired(std::uint32_t query, sim::Time now,
                                std::uint64_t region_bytes) {
  const Arrival& arrival = arrivals[query];
  ++completed[arrival.tenant];
  latencies[arrival.tenant].push_back(now - arrival.at);
  S3A_CHECK(inflight_bytes >= region_bytes);
  inflight_bytes -= region_bytes;
}

std::uint64_t ServingContext::offered_total() const noexcept {
  std::uint64_t total = 0;
  for (const std::uint64_t count : offered) total += count;
  return total;
}

std::uint64_t ServingContext::completed_total() const noexcept {
  std::uint64_t total = 0;
  for (const std::uint64_t count : completed) total += count;
  return total;
}

}  // namespace s3asim::core
