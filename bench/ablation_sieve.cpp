/// Ablation N — data sieving vs list I/O vs two-phase on the read path
/// (docs/IO_MODEL.md §4, EXPERIMENTS.md Ablation N).  Three workload
/// shapes over an interleaved database (db_chunk_bytes > 0, so fragment
/// loads are strided extent lists):
///   * read-heavy  — large interleaved database, small results: fragment
///     staging dominates, the shape sieving was built for;
///   * write-heavy — no database I/O, larger results: only the write side
///     differs (WW-Sieve RMW vs WW-List pairs vs WW-Coll exchange);
///   * mixed       — moderate database and results.
/// For each shape: list I/O once (it has no buffer knob), and data sieving
/// and two-phase across a 64 KiB / 512 KiB / 4 MiB buffer sweep
/// (sieve_buffer for sieving, cb_buffer_size for two-phase).  The
/// interesting failure mode is honest here: at small buffers sieving's
/// per-window round trips and hole amplification lose to list I/O badly.
/// The run fails (exit 1) unless sieving at its best buffer beats list
/// I/O on the read-heavy shape — the acceptance gate of EXPERIMENTS.md.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "bench/sweep.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

using namespace s3asim;
using namespace s3asim::bench;

namespace {

enum class Method { List, Sieve, TwoPhase };

const char* method_name(Method method) {
  switch (method) {
    case Method::List: return "list";
    case Method::Sieve: return "sieve";
    case Method::TwoPhase: return "two-phase";
  }
  return "?";
}

struct Shape {
  const char* name;
  std::uint64_t database_mib;  ///< 0 = no database I/O
  std::uint64_t chunk_bytes;
  std::uint32_t result_min;
  std::uint32_t result_max;
  std::uint32_t queries_per_flush;
};

core::RunStats run_sieve_point(const Shape& shape, Method method,
                               std::uint64_t buffer, bool quick) {
  auto config = core::paper_config();
  config.nprocs = quick ? 5 : 9;
  config.workload.query_count = quick ? 3 : 6;
  config.workload.fragment_count = 8;
  config.workload.result_count_min = shape.result_min;
  config.workload.result_count_max = shape.result_max;
  config.workload.min_result_bytes = 256;
  config.workload.database_bytes =
      shape.database_mib * util::MiB / (quick ? 4 : 1);
  config.workload.db_chunk_bytes = shape.chunk_bytes;
  config.queries_per_flush = shape.queries_per_flush;
  switch (method) {
    case Method::List:
      config.strategy = core::Strategy::WWList;
      config.read_method = mpiio::NoncontigMethod::ListIo;
      break;
    case Method::Sieve:
      config.strategy = core::Strategy::WWSieve;
      config.read_method = mpiio::NoncontigMethod::Sieve;
      config.hints.sieve_buffer_bytes = buffer;
      break;
    case Method::TwoPhase:
      config.strategy = core::Strategy::WWColl;
      config.read_method = mpiio::NoncontigMethod::ListIo;
      config.hints.cb_buffer_size = buffer;
      break;
  }
  auto stats = core::run_simulation(config);
  require_exact(stats);
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = quick_mode(argc, argv);
  const unsigned jobs = sweep_jobs(argc, argv);

  const Shape shapes[] = {
      {"read-heavy", 32, 4 * util::KiB, 40, 80, 1},
      {"write-heavy", 0, 4 * util::KiB, 300, 600, 2},
      {"mixed", 8, 16 * util::KiB, 150, 300, 1},
  };
  const std::vector<std::uint64_t> buffers{64 * util::KiB, 512 * util::KiB,
                                           4 * util::MiB};

  std::printf("S3aSim Ablation N: read-path access methods — list I/O vs "
              "data sieving vs two-phase\n");

  std::vector<SweepPoint> grid;
  for (const Shape& shape : shapes) {
    grid.push_back({std::string(shape.name) + " list",
                    [&shape, quick] {
                      return run_sieve_point(shape, Method::List, 0, quick);
                    }});
    for (const Method method : {Method::Sieve, Method::TwoPhase})
      for (const std::uint64_t buffer : buffers)
        grid.push_back({std::string(shape.name) + " " + method_name(method) +
                            " buf=" + std::to_string(buffer / util::KiB) +
                            "KiB",
                        [&shape, method, buffer, quick] {
                          return run_sieve_point(shape, method, buffer,
                                                 quick);
                        }});
  }

  const auto sweep_start = std::chrono::steady_clock::now();
  const auto results = run_sweep(std::move(grid), jobs);
  const double sweep_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    sweep_start)
          .count();

  util::TextTable table({"Point", "Wall (s)", "DB read (MiB)",
                         "Sieve windows", "Amplified (MiB)", "RMW reads"});
  util::CsvWriter csv(csv_path("ablation_sieve.csv"));
  csv.write_row({"shape", "method", "buffer_kib", "wall_s", "db_read_mib",
                 "sieve_windows", "amplified_mib", "rmw_reads"});
  std::size_t index = 0;
  double best_sieve_read_heavy = 0.0;
  double list_read_heavy = 0.0;
  for (const Shape& shape : shapes) {
    struct Row {
      const char* method;
      std::uint64_t buffer_kib;
      const core::RunStats* stats;
    };
    std::vector<Row> rows;
    rows.push_back({"list", 0, &results[index++].stats});
    for (const Method method : {Method::Sieve, Method::TwoPhase})
      for (const std::uint64_t buffer : buffers)
        rows.push_back({method_name(method), buffer / util::KiB,
                        &results[index++].stats});
    for (const Row& row : rows) {
      const core::RunStats& stats = *row.stats;
      const double amplified_mib =
          static_cast<double>((stats.sieve.read_transferred_bytes -
                               stats.sieve.read_useful_bytes) +
                              (stats.sieve.write_transferred_bytes -
                               stats.sieve.write_useful_bytes)) /
          static_cast<double>(util::MiB);
      const double db_read_mib = static_cast<double>(stats.db_bytes_read) /
                                 static_cast<double>(util::MiB);
      const double windows =
          static_cast<double>(stats.sieve.reads + stats.sieve.writes);
      table.add_row_numeric(
          std::string(shape.name) + " " + row.method +
              (row.buffer_kib != 0
                   ? " " + std::to_string(row.buffer_kib) + "KiB"
                   : ""),
          {stats.wall_seconds, db_read_mib, windows, amplified_mib,
           static_cast<double>(stats.sieve.rmw_reads)});
      csv.write_row({std::string(shape.name), row.method,
                     std::to_string(row.buffer_kib),
                     util::format_fixed(stats.wall_seconds, 6),
                     util::format_fixed(db_read_mib, 6),
                     std::to_string(stats.sieve.reads + stats.sieve.writes),
                     util::format_fixed(amplified_mib),
                     std::to_string(stats.sieve.rmw_reads)});
      if (std::string(shape.name) == "read-heavy") {
        if (std::string(row.method) == "list")
          list_read_heavy = stats.wall_seconds;
        else if (std::string(row.method) == "sieve")
          best_sieve_read_heavy =
              best_sieve_read_heavy == 0.0
                  ? stats.wall_seconds
                  : std::min(best_sieve_read_heavy, stats.wall_seconds);
      }
    }
  }
  std::printf("%s", table.render().c_str());
  std::printf("(csv: results/ablation_sieve.csv)\n");

  const auto report =
      write_bench_json("sieve", quick, jobs, results, sweep_seconds);
  std::printf("(bench json: %s)\n", report.c_str());

  if (best_sieve_read_heavy >= list_read_heavy) {
    std::fprintf(stderr,
                 "ablation_sieve: GATE FAILED — best sieving %.3fs does not "
                 "beat list I/O %.3fs on the read-heavy shape\n",
                 best_sieve_read_heavy, list_read_heavy);
    return 1;
  }
  std::printf("gate: sieving at its best buffer (%.3fs) beats list I/O "
              "(%.3fs) on the read-heavy shape\n",
              best_sieve_read_heavy, list_read_heavy);
  return 0;
}
