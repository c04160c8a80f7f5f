#pragma once

/// \file cli_usage.hpp
/// The s3asim CLI's --help text, factored out so the golden test
/// (tests/core/test_cli_usage.cpp) can keep it in sync with the option
/// parser: every flag the parser accepts must appear here with one line of
/// help, and the test fails on drift in either direction.

namespace s3asim::cli {

inline constexpr char kUsageText[] =
    "usage: s3asim [options] [config-file]\n"
    "  --procs N           total ranks (master + workers)\n"
    "  --strategy NAME     MW | WW-POSIX | WW-List | WW-Coll | WW-CollList |\n"
    "                      WW-FilePerProc | WW-Aggr | WW-Sieve\n"
    "  --sync              per-query synchronization on\n"
    "  --speed X           compute-speed multiplier\n"
    "  --arrival-rate R    open-loop serving: Poisson arrivals at R queries\n"
    "                      per simulated second (default 0 = closed batch;\n"
    "                      tenants via --set \"tenants=a:rate=2|b:rate=1\")\n"
    "  --arrival-trace F   open-loop serving: replay arrivals from a CSV of\n"
    "                      \"t_seconds, tenant, query_size\" lines\n"
    "  --admit-policy P    admission-queue order: fifo | wfq | priority\n"
    "  --admit-depth N     bounded admission queue depth; arrivals beyond it\n"
    "                      are shed (default 64)\n"
    "  --cache-size B      per-client write-back cache capacity (e.g. 64MiB;\n"
    "                      default 0 = caching off)\n"
    "  --cache-block B     cache block size; must divide strip_size\n"
    "                      (default 64KiB)\n"
    "  --token-granularity B\n"
    "                      byte-range lease granularity; a multiple of\n"
    "                      --cache-block (default 1MiB)\n"
    "  --worker-classes S  named speed classes, '|'-separated clauses of\n"
    "                      \"name:speed=S,count=N\" assigned round-robin\n"
    "                      (e.g. \"standard:speed=1,count=3|accel:speed=4\")\n"
    "  --joins S           scheduled mid-run joins, '|'-separated clauses of\n"
    "                      \"worker=R,at=T[,class=NAME]\" (closed batch only)\n"
    "  --elastic           serving mode: start min_workers active and let the\n"
    "                      autoscaler grow/shrink the cluster (DESIGN.md\n"
    "                      section 12)\n"
    "  --min-workers N     elastic floor: workers active at t=0 and the\n"
    "                      scale-down limit (default 0 = all workers)\n"
    "  --autoscale-target D\n"
    "                      admission-queue depth that triggers a scale-up\n"
    "                      (default 4; cooldown via --set\n"
    "                      autoscale_cooldown_ms=...)\n"
    "  --read-method M     noncontiguous database-read method: posix | list |\n"
    "                      sieve (needs db_chunk_bytes > 0; docs/IO_MODEL.md)\n"
    "  --sieve-buffer B    data-sieving buffer size, ROMIO ind_rd_buffer_size\n"
    "                      (default 4MiB)\n"
    "  --trace FILE.csv    export phase timeline CSV\n"
    "  --trace-json FILE   export Chrome-trace-event JSON (open in Perfetto\n"
    "                      or chrome://tracing; see docs/OBSERVABILITY.md)\n"
    "  --metrics-json FILE export the per-run metrics manifest\n"
    "                      (schema s3asim-metrics-v1: config echo + counters,\n"
    "                      gauges, histograms, trace drop count)\n"
    "  --gantt             print an ASCII timeline\n"
    "  --groups G          hybrid segmentation: G master/worker teams of\n"
    "                      procs/G ranks each (config key groups; default 1)\n"
    "  --jobs N            run N concurrent replicas of the simulation and\n"
    "                      fail unless their statistics are bit-identical\n"
    "                      (determinism self-check; default 1 = off)\n"
    "  --fault SPEC        inject faults (kill/slow/delay/drop/server/crash\n"
    "                      clauses, ';'-separated; crash => resume-from-flush)\n"
    "  --fault-timeout T   failure-detector timeout (default 10s)\n"
    "  --json FILE.json    export full run statistics as JSON\n"
    "  --set key=value     override any config key (repeatable)\n"
    "  --print-config      show effective configuration and exit\n"
    "  --help              show this message";

}  // namespace s3asim::cli
