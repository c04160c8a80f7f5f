#include "core/membership.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "core/strategy.hpp"
#include "fault/fault.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace s3asim::core {

namespace {

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

/// "standard, accel" — error messages list the declared classes so a typo
/// is a one-glance fix.
std::string known_class_names(const std::vector<SpeedClass>& classes) {
  std::string names;
  for (const SpeedClass& cls : classes) {
    if (!names.empty()) names += ", ";
    names += cls.name;
  }
  return names.empty() ? "<none declared>" : names;
}

[[nodiscard]] std::size_t class_index_of(const std::vector<SpeedClass>& classes,
                                         const std::string& name,
                                         const std::string& context) {
  for (std::size_t i = 0; i < classes.size(); ++i)
    if (classes[i].name == name) return i;
  throw std::invalid_argument(context + ": unknown speed class '" + name +
                              "' (known classes: " +
                              known_class_names(classes) + ")");
}

}  // namespace

const char* worker_lifecycle_name(WorkerLifecycle state) noexcept {
  switch (state) {
    case WorkerLifecycle::Standby: return "standby";
    case WorkerLifecycle::Joining: return "joining";
    case WorkerLifecycle::Active: return "active";
    case WorkerLifecycle::Draining: return "draining";
    case WorkerLifecycle::Departed: return "departed";
    case WorkerLifecycle::Dead: return "dead";
  }
  return "?";
}

WorkerRegistry::WorkerRegistry(const MembershipConfig& membership,
                               const std::vector<mpi::Rank>& workers,
                               std::uint64_t seed, double jitter)
    : classes_(membership.classes) {
  // Expand the class counts into one repeating pattern of class indices.
  std::vector<std::uint32_t> pattern;
  for (std::size_t c = 0; c < classes_.size(); ++c)
    for (std::uint32_t i = 0; i < std::max<std::uint32_t>(classes_[c].count, 1);
         ++i)
      pattern.push_back(static_cast<std::uint32_t>(c));

  records_.reserve(workers.size());
  for (std::size_t position = 0; position < workers.size(); ++position) {
    const mpi::Rank rank = workers[position];
    if (rank >= index_.size())
      index_.resize(rank + std::size_t{1}, workers.size());
    index_[rank] = position;
    WorkerRecord record;
    record.rank = rank;
    if (!pattern.empty()) record.class_index = pattern[position % pattern.size()];

    for (const JoinSpec& join : membership.joins) {
      if (join.rank != rank) continue;
      record.scheduled_join = join.at;
      record.state = WorkerLifecycle::Standby;
      if (!join.speed_class.empty())
        record.class_index = static_cast<std::uint32_t>(class_index_of(
            classes_, join.speed_class, "joins entry for worker " +
                                            std::to_string(join.rank)));
    }
    if (membership.elastic && membership.min_workers > 0 &&
        position >= membership.min_workers &&
        record.state == WorkerLifecycle::Active)
      record.state = WorkerLifecycle::Standby;

    // The per-rank jitter factor reproduces the pre-registry formula
    // bit-for-bit; the class speed multiplies on top (exactly 1.0 when no
    // classes are configured, so homogeneous runs stay byte-identical).
    double factor = 1.0;
    if (jitter > 0.0) {
      util::Xoshiro256 rng(util::hash_combine(seed ^ 0x48e7e601ULL, rank));
      factor += jitter * (2.0 * rng.uniform() - 1.0);
    }
    const double class_speed =
        classes_.empty() ? 1.0 : classes_[record.class_index].speed;
    record.speed_factor = class_speed * factor;

    if (record.state == WorkerLifecycle::Active) {
      record.participant = true;
      ++participants_;
      ++active_;
    } else {
      record.initially_standby = true;
    }
    records_.push_back(std::move(record));
  }
  peak_active_ = active_;
}

WorkerRecord& WorkerRegistry::mutable_record(mpi::Rank rank) {
  return const_cast<WorkerRecord&>(record(rank));
}

double WorkerRegistry::active_mean_speed() const {
  double sum = 0.0;
  std::uint32_t n = 0;
  for (const WorkerRecord& record : records_) {
    if (record.state != WorkerLifecycle::Active) continue;
    sum += record.speed_factor;
    ++n;
  }
  return n == 0 ? 1.0 : sum / n;
}

bool WorkerRegistry::begin_join(mpi::Rank rank, sim::Time now) {
  WorkerRecord& record = mutable_record(rank);
  if (record.state != WorkerLifecycle::Standby) return false;
  record.state = WorkerLifecycle::Joining;
  record.join_started = now;
  ++epoch_;
  return true;
}

bool WorkerRegistry::activate(mpi::Rank rank, sim::Time now) {
  WorkerRecord& record = mutable_record(rank);
  if (record.state != WorkerLifecycle::Joining) return false;
  record.state = WorkerLifecycle::Active;
  record.join_completed = now;
  record.participant = true;
  ++participants_;
  ++active_;
  peak_active_ = std::max(peak_active_, active_);
  ++joins_completed_;
  join_latencies_.push_back(sim::to_seconds(now - record.join_started));
  ++epoch_;
  return true;
}

bool WorkerRegistry::begin_drain(mpi::Rank rank, sim::Time now) {
  WorkerRecord& record = mutable_record(rank);
  if (record.state != WorkerLifecycle::Active) return false;
  record.state = WorkerLifecycle::Draining;
  (void)now;
  --active_;
  ++epoch_;
  return true;
}

bool WorkerRegistry::complete_drain(mpi::Rank rank, sim::Time now) {
  WorkerRecord& record = mutable_record(rank);
  if (record.state != WorkerLifecycle::Draining) return false;
  record.state = WorkerLifecycle::Departed;
  record.left_at = now;
  ++drains_completed_;
  ++epoch_;
  return true;
}

bool WorkerRegistry::mark_dead(mpi::Rank rank, sim::Time now) {
  WorkerRecord& record = mutable_record(rank);
  switch (record.state) {
    case WorkerLifecycle::Departed:
    case WorkerLifecycle::Dead:
      return false;  // first-wins: already out of the cluster
    case WorkerLifecycle::Active:
      --active_;
      break;
    case WorkerLifecycle::Standby:
    case WorkerLifecycle::Joining:
    case WorkerLifecycle::Draining:
      break;
  }
  record.state = WorkerLifecycle::Dead;
  record.left_at = now;
  ++epoch_;
  return true;
}

std::uint32_t WorkerRegistry::count(WorkerLifecycle state) const {
  std::uint32_t n = 0;
  for (const WorkerRecord& record : records_)
    if (record.state == state) ++n;
  return n;
}

std::optional<mpi::Rank> WorkerRegistry::pick_standby() const {
  std::optional<mpi::Rank> best;
  for (const WorkerRecord& record : records_) {
    if (record.state != WorkerLifecycle::Standby) continue;
    // Never summon a scheduled joiner: its own timer owns the transition.
    if (record.scheduled_join != kNoScheduledJoin) continue;
    if (!best || record.rank < *best) best = record.rank;
  }
  return best;
}

std::optional<mpi::Rank> WorkerRegistry::pick_drain_candidate() const {
  const WorkerRecord* best = nullptr;
  for (const WorkerRecord& record : records_) {
    if (record.state != WorkerLifecycle::Active) continue;
    if (best == nullptr || record.join_completed > best->join_completed ||
        (record.join_completed == best->join_completed &&
         record.rank > best->rank))
      best = &record;
  }
  return best == nullptr ? std::nullopt : std::optional<mpi::Rank>(best->rank);
}

double WorkerRegistry::worker_seconds(sim::Time end) const {
  double total = 0.0;
  for (const WorkerRecord& record : records_) {
    if (!record.participant) continue;
    const bool left = record.state == WorkerLifecycle::Departed ||
                      record.state == WorkerLifecycle::Dead;
    const sim::Time until = left ? record.left_at : end;
    if (until > record.join_completed)
      total += sim::to_seconds(until - record.join_completed);
  }
  return total;
}

std::vector<SpeedClass> parse_worker_classes(std::string_view spec) {
  std::vector<SpeedClass> classes;
  // '|'-separated entries ('#' and ';' start comments in the key=value
  // config format, so neither can appear inside a value).
  for (const std::string& raw : split(std::string(spec), '|')) {
    const std::string entry = trim(raw);
    if (entry.empty()) continue;
    SpeedClass cls;
    const auto colon = entry.find(':');
    cls.name = trim(entry.substr(0, colon));
    if (cls.name.empty())
      throw std::invalid_argument("worker_classes entry '" + entry +
                                  "' is missing a name");
    for (const SpeedClass& existing : classes)
      if (existing.name == cls.name)
        throw std::invalid_argument("duplicate worker class '" + cls.name +
                                    "'");
    if (colon != std::string::npos) {
      for (const std::string& field : split(entry.substr(colon + 1), ',')) {
        const std::string assignment = trim(field);
        if (assignment.empty()) continue;
        const auto equals = assignment.find('=');
        if (equals == std::string::npos)
          throw std::invalid_argument("worker class '" + cls.name +
                                      "': field '" + assignment +
                                      "' is not key=value");
        const std::string key = trim(assignment.substr(0, equals));
        const std::string value = trim(assignment.substr(equals + 1));
        try {
          if (key == "speed") {
            cls.speed = std::stod(value);
          } else if (key == "count") {
            cls.count = static_cast<std::uint32_t>(std::stoul(value));
          } else {
            throw std::invalid_argument("worker class '" + cls.name +
                                        "': unknown field '" + key +
                                        "' (expected speed or count)");
          }
        } catch (const std::invalid_argument&) {
          throw;
        } catch (const std::exception&) {
          throw std::invalid_argument("worker class '" + cls.name +
                                      "': field '" + key +
                                      "' has malformed value '" + value + "'");
        }
      }
    }
    if (!(cls.speed > 0.0))
      throw std::invalid_argument("worker class '" + cls.name +
                                  "': speed must be positive, got " +
                                  std::to_string(cls.speed));
    if (cls.count == 0)
      throw std::invalid_argument("worker class '" + cls.name +
                                  "': count must be at least 1");
    classes.push_back(std::move(cls));
  }
  return classes;
}

std::vector<JoinSpec> parse_joins(std::string_view spec) {
  std::vector<JoinSpec> joins;
  for (const std::string& raw : split(std::string(spec), '|')) {
    const std::string entry = trim(raw);
    if (entry.empty()) continue;
    JoinSpec join;
    bool have_rank = false;
    bool have_at = false;
    for (const std::string& field : split(entry, ',')) {
      const std::string assignment = trim(field);
      if (assignment.empty()) continue;
      const auto equals = assignment.find('=');
      if (equals == std::string::npos)
        throw std::invalid_argument("joins entry '" + entry + "': field '" +
                                    assignment + "' is not key=value");
      const std::string key = trim(assignment.substr(0, equals));
      const std::string value = trim(assignment.substr(equals + 1));
      try {
        if (key == "worker") {
          join.rank = static_cast<std::uint32_t>(std::stoul(value));
          have_rank = true;
        } else if (key == "at") {
          join.at = fault::parse_time(value);
          have_at = true;
        } else if (key == "class") {
          join.speed_class = value;
        } else {
          throw std::invalid_argument("joins entry '" + entry +
                                      "': unknown field '" + key +
                                      "' (expected worker, at, or class)");
        }
      } catch (const std::invalid_argument&) {
        throw;
      } catch (const std::exception&) {
        throw std::invalid_argument("joins entry '" + entry + "': field '" +
                                    key + "' has malformed value '" + value +
                                    "'");
      }
    }
    if (!have_rank)
      throw std::invalid_argument("joins entry '" + entry +
                                  "' is missing worker=");
    if (!have_at)
      throw std::invalid_argument("joins entry '" + entry +
                                  "' is missing at=");
    if (join.at <= 0)
      throw std::invalid_argument("joins entry '" + entry +
                                  "': at must be a positive time");
    for (const JoinSpec& existing : joins)
      if (existing.rank == join.rank)
        throw std::invalid_argument("joins: duplicate worker '" +
                                    std::to_string(join.rank) + "'");
    joins.push_back(std::move(join));
  }
  return joins;
}

void validate_membership(const SimConfig& config) {
  const MembershipConfig& membership = config.membership;
  for (const SpeedClass& cls : membership.classes) {
    S3A_REQUIRE_MSG(cls.speed > 0.0, "worker class '" + cls.name +
                                         "': speed must be positive");
    S3A_REQUIRE_MSG(cls.count >= 1, "worker class '" + cls.name +
                                        "': count must be at least 1");
  }

  for (const JoinSpec& join : membership.joins) {
    S3A_REQUIRE_MSG(
        join.rank >= 1 && join.rank < config.nprocs,
        "joins names worker " + std::to_string(join.rank) +
            ", which is not a worker rank (workers are 1.." +
            std::to_string(config.nprocs - 1) + ")");
    if (!join.speed_class.empty())
      (void)class_index_of(membership.classes, join.speed_class,
                           "joins entry for worker " +
                               std::to_string(join.rank));
    // A scheduled joiner can be killed — elastic composes with the fault
    // subsystem — but only after it has joined; an earlier kill would
    // fail-stop a worker that does not exist yet.
    const sim::Time kill_at = config.fault.kill_time(join.rank);
    S3A_REQUIRE_MSG(kill_at == fault::kNever || kill_at > join.at,
                    "fault plan kills worker " + std::to_string(join.rank) +
                        " before its scheduled join; move the kill after "
                        "at=" +
                        std::to_string(join.at) + "ns or drop the join");
  }

  if (membership.elastic) {
    S3A_REQUIRE_MSG(
        config.serving.enabled(),
        "elastic autoscaling needs the open-loop serving workload "
        "(arrival_rate_hz or arrival_trace) for a queue-depth signal; for "
        "closed-batch mid-run joins use joins=worker=R,at=T instead");
    S3A_REQUIRE_MSG(membership.joins.empty(),
                    "elastic autoscaling and scheduled joins cannot be "
                    "combined: the autoscaler owns the standby pool");
    S3A_REQUIRE_MSG(
        membership.min_workers >= 1 && membership.min_workers < config.nprocs,
        "elastic mode needs min_workers in 1.." +
            std::to_string(config.nprocs - 1) +
            " (the initially-active worker count), got " +
            std::to_string(membership.min_workers));
    S3A_REQUIRE_MSG(membership.autoscale_target > 0.0,
                    "key 'autoscale_target': must be positive (the admission "
                    "queue depth that triggers a scale-up)");
    S3A_REQUIRE_MSG(membership.autoscale_cooldown >= 0,
                    "key 'autoscale_cooldown_ms': must be non-negative");
  } else if (!membership.joins.empty()) {
    S3A_REQUIRE_MSG(!config.serving.enabled(),
                    "scheduled joins are a closed-batch feature; in serving "
                    "mode use elastic=true with min_workers and "
                    "autoscale_target instead");
  }

  if (membership.dynamic()) {
    S3A_REQUIRE_MSG(
        !lockstep_flush(config.strategy),
        std::string("strategy ") + strategy_name(config.strategy) +
            " synchronizes over a fixed worker cohort (collective writes / "
            "lockstep aggregation groups) and cannot absorb membership "
            "changes mid-run; use an independent-writer strategy such as "
            "WW-List or WW-POSIX, or drop elastic/joins");
    S3A_REQUIRE_MSG(!config.query_sync,
                    "query_sync barriers span a fixed worker cohort and do "
                    "not compose with membership changes; drop query_sync or "
                    "run with fixed membership");
  }
}

}  // namespace s3asim::core
