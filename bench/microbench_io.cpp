/// Ablation B — the pure-I/O comparison the paper contrasts itself against
/// (§3.3: "Collective I/O, in nearly all noncontiguous I/O cases,
/// outperforms POSIX I/O and, in some noncontiguous I/O cases, outperforms
/// list I/O in pure I/O tests" — while in the *application* the ordering
/// flips).  Google-benchmark over the mpiio layer without any application
/// logic: N clients concurrently writing interleaved extents.
///
/// Also the host-side perf harness for the model-layer hot path (ISSUE 3):
/// the high-extent-count shapes (1k–16k extents, 16–128 clients) measure
/// the zero-allocation fan-out in `Pfs`/`Layout`/`FileImage`.  Results are
/// mirrored to results/BENCH_io.json (same schema as BENCH_sim.json: plain
/// google-benchmark JSON with per-run counters) unless the caller passes
/// its own --benchmark_out.

#include <benchmark/benchmark.h>

#include <sys/resource.h>

#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "mpi/comm.hpp"
#include "mpiio/file.hpp"
#include "pfs/pfs.hpp"
#include "sim/scheduler.hpp"

namespace {

using namespace s3asim;

struct IoWorld {
  sim::Scheduler sched;
  net::Network network;
  mpi::Comm comm;
  pfs::Pfs fs;
  pfs::FileHandle handle = 0;
  std::unique_ptr<mpiio::File> file;

  explicit IoWorld(std::uint32_t clients, mpiio::Hints hints = {})
      : network(sched, clients + 16),
        comm(sched, network, clients),
        fs(sched, network, clients) {
    auto create = [](IoWorld& world) -> sim::Process {
      world.handle = co_await world.fs.create_file(0, "bench");
    };
    sched.spawn(create(*this));
    sched.run();
    std::vector<mpi::Rank> participants;
    for (mpi::Rank r = 0; r < clients; ++r) participants.push_back(r);
    file = std::make_unique<mpiio::File>(sched, network, fs, comm, handle,
                                         participants, hints);
  }

  ~IoWorld() {
    fs.shutdown();
    sched.run();
  }
};

/// Interleaved extents: client c owns pieces c, c+P, c+2P, ... of
/// `pieces_per_client * clients` extents of `piece` bytes.
std::vector<pfs::Extent> client_extents(std::uint32_t client,
                                        std::uint32_t clients,
                                        std::uint32_t pieces_per_client,
                                        std::uint64_t piece) {
  std::vector<pfs::Extent> extents;
  extents.reserve(pieces_per_client);
  for (std::uint32_t k = 0; k < pieces_per_client; ++k) {
    const std::uint64_t index =
        static_cast<std::uint64_t>(k) * clients + client;
    extents.push_back(pfs::Extent{index * piece, piece});
  }
  return extents;
}

enum class Method { Posix, List, TwoPhase };

/// One concurrent pure-I/O round's observables: simulated seconds plus the
/// file-system-side aggregate counters (request/OL-pair/byte totals).
struct IoRound {
  double seconds = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t pairs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t events = 0;
};

/// Runs one concurrent pure-I/O round.
IoRound pure_io_round(Method method, std::uint32_t clients,
                      std::uint32_t pieces, std::uint64_t piece_bytes) {
  IoWorld world(clients);
  auto writer = [](IoWorld& w, Method m, mpi::Rank rank, std::uint32_t nclients,
                   std::uint32_t npieces, std::uint64_t piece) -> sim::Process {
    auto extents = client_extents(rank, nclients, npieces, piece);
    switch (m) {
      case Method::Posix:
        co_await w.file->write_noncontig(rank, std::move(extents),
                                         mpiio::NoncontigMethod::Posix);
        break;
      case Method::List:
        co_await w.file->write_noncontig(rank, std::move(extents),
                                         mpiio::NoncontigMethod::ListIo);
        break;
      case Method::TwoPhase:
        co_await w.file->write_at_all(rank, std::move(extents));
        break;
    }
  };
  for (mpi::Rank r = 0; r < clients; ++r)
    world.sched.spawn(writer(world, method, r, clients, pieces, piece_bytes));
  world.sched.run();
  IoRound round;
  round.seconds = sim::to_seconds(world.sched.now());
  const pfs::ServerStats totals = world.fs.aggregate_stats();
  round.requests = totals.requests;
  round.pairs = totals.pairs;
  round.bytes = totals.bytes;
  round.events = world.sched.events_processed();
  return round;
}

/// Peak resident set of this process so far, in MiB (ru_maxrss is KiB on
/// Linux) — recorded per benchmark so the bench CI artifact tracks
/// allocation regressions alongside throughput.
double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void BM_PureIo(benchmark::State& state, Method method) {
  const auto clients = static_cast<std::uint32_t>(state.range(0));
  const auto pieces = static_cast<std::uint32_t>(state.range(1));
  const auto piece_bytes = static_cast<std::uint64_t>(state.range(2));
  IoRound round;
  for (auto _ : state)
    round = pure_io_round(method, clients, pieces, piece_bytes);
  state.counters["simulated_io_s"] = round.seconds;
  state.counters["aggregate_MBps"] =
      static_cast<double>(clients) * pieces * static_cast<double>(piece_bytes) /
      round.seconds / 1e6;
  state.counters["fs_requests"] = static_cast<double>(round.requests);
  state.counters["fs_pairs"] = static_cast<double>(round.pairs);
  state.counters["fs_bytes"] = static_cast<double>(round.bytes);
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(round.events),
      benchmark::Counter::kIsIterationInvariantRate);
  state.counters["peak_rss_mib"] = peak_rss_mib();
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(clients) * pieces);
}

void IoArgs(benchmark::internal::Benchmark* bench) {
  bench->Args({8, 16, 7 * 1024})
      ->Args({32, 16, 7 * 1024})
      ->Args({32, 64, 7 * 1024})
      ->Args({32, 16, 64 * 1024})
      // Model-layer hot-path shapes (ISSUE 3): 1k–16k total extents across
      // 16–128 clients — the WW fan-out regime the paper's §4 results live
      // in (1000–2000 results per query, 128 fragments).
      ->Args({16, 64, 7 * 1024})
      ->Args({64, 16, 7 * 1024})
      ->Args({64, 64, 7 * 1024})
      ->Args({64, 256, 7 * 1024})
      ->Args({64, 1024, 7 * 1024})
      ->Args({128, 128, 7 * 1024})
      ->Unit(benchmark::kMillisecond);
}

BENCHMARK_CAPTURE(BM_PureIo, posix, Method::Posix)->Apply(IoArgs);
BENCHMARK_CAPTURE(BM_PureIo, list, Method::List)->Apply(IoArgs);
BENCHMARK_CAPTURE(BM_PureIo, two_phase, Method::TwoPhase)->Apply(IoArgs);

/// Contiguous single-writer baseline (the MW write pattern).
void BM_PureIoContiguous(benchmark::State& state) {
  const auto bytes = static_cast<std::uint64_t>(state.range(0));
  double simulated = 0.0;
  for (auto _ : state) {
    IoWorld world(2);
    auto writer = [](IoWorld& w, std::uint64_t n) -> sim::Process {
      co_await w.file->write_at(0, 0, n);
    };
    world.sched.spawn(writer(world, bytes));
    world.sched.run();
    simulated = sim::to_seconds(world.sched.now());
  }
  state.counters["simulated_io_s"] = simulated;
  state.counters["MBps"] = static_cast<double>(bytes) / simulated / 1e6;
  state.counters["peak_rss_mib"] = peak_rss_mib();
}
BENCHMARK(BM_PureIoContiguous)
    ->Arg(1 << 20)
    ->Arg(10 << 20)
    ->Unit(benchmark::kMillisecond);

}  // namespace

/// Custom main: defaults --benchmark_out to results/BENCH_io.json
/// (S3ASIM_RESULTS_DIR overrides the directory, matching the figure
/// benches) so CI artifacts always carry the machine-readable run.
int main(int argc, char** argv) {
  bool has_out = false;
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag;
  std::string format_flag = "--benchmark_out_format=json";
  if (!has_out) {
    const char* dir_env = std::getenv("S3ASIM_RESULTS_DIR");
    const std::filesystem::path dir =
        dir_env != nullptr && dir_env[0] != '\0' ? dir_env : "results";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    out_flag = "--benchmark_out=" + (dir / "BENCH_io.json").string();
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int effective_argc = static_cast<int>(args.size());
  benchmark::Initialize(&effective_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(effective_argc, args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
