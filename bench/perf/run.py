#!/usr/bin/env python3
"""Host-time benchmark of the S3aSim simulator (bench/perf/README.md).

Run from the repository root.  The first call builds `perf_suite` into
build-perf/ through bench/perf/hook.cmake; results and span traces go to
build-perf/out/.

  run.py --workload W [--seed S] [--seconds T] [--trace 0|1]
      One workload.  --trace 0 prints the end-to-end metrics, measured in
      several fresh perf_suite processes (rounds) sharing T seconds;
      --trace 1 prints the per-layer metrics of one traced process.  The
      last stdout line is {"correct", "attempted", "failed", "metrics"}.
  run.py [--seed S | --held-out] [--out FILE]
      A full set: 10 rounds, each a fresh process per workload in rotated
      order with 3 timed seconds, then one traced process per workload.
      Prints every metric with its unit and sample count and writes FILE.
  run.py --smoke
      One round, one pass per workload, probes at reduced size.  Exits
      non-zero on any failed simulation, fingerprint mismatch, missing
      span, or layer share below -0.10.
  run.py compare A.json B.json
      Judges B against A per (workload, end-to-end metric) by the bounds in
      BENCHMARK.json, prints the reference-loop medians of both, then
      lists fingerprint and per-layer count changes.

--held-out runs the held-out seed, which a claim is re-checked on and which
is never used while the change is written.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BUILD = Path("build-perf")
OUT = BUILD / "out"
SUITE = BUILD / "perf_suite"
HOOK = Path("bench/perf/hook.cmake")
WORKLOADS = ["paper-ww96", "mw-contig", "scale-1024", "read-cache"]
DEFAULT_SEED = 20060627
HELD_OUT_SEED = 8675309
# Rounds per --workload run: setup_s and peak_rss_mb are their medians.
WORKLOAD_ROUNDS = 16
# A full set: rounds per workload, and timed seconds per round.
SET_ROUNDS = 10
SET_SECONDS = 3.0
# Round r runs seed S + ROUND_SEED_STRIDE * r (config i adds i), so a run
# covers several workload draws.
ROUND_SEED_STRIDE = 1000
# Times are scaled by this over the reference loop's measured duration
# (perf_suite.cpp `ReferenceLoop`): host seconds at a fixed host speed.
REFERENCE_NOMINAL_S = 0.016
SHARE_FLOOR = -0.10

E2E_UNITS = {
    "queries_per_host_s": "queries/s",
    "pass_host_s.p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
COUNT_NAMES = [
    "sim.events", "net.transfers", "mpi.messages", "pfs.requests",
    "pfs.pairs", "mpiio.extents", "cache.block_ops", "sieve.windows",
    "core.workload.results",
]


def gated_metrics():
    """The end-to-end metrics BENCHMARK.json bounds, by name."""
    spec = json.loads(Path("BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def layer_unit(name):
    if name in COUNT_NAMES:
        return "count"
    return "ns" if ".ns_per_" in name else "ratio"


def log(message):
    print(message, file=sys.stderr, flush=True)


# ---- Build ------------------------------------------------------------------

def build():
    if not Path("CMakeLists.txt").is_file() or not Path("src").is_dir():
        raise SystemExit("run.py: run from the s3asim repository root "
                         "(no CMakeLists.txt or src/ here)")
    BUILD.mkdir(exist_ok=True)
    OUT.mkdir(exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", ".", "-B", str(BUILD),
                      f"-DCMAKE_PROJECT_INCLUDE={HOOK.resolve()}",
                      "-DS3ASIM_BUILD_TESTS=OFF",
                      "-DS3ASIM_BUILD_EXAMPLES=OFF"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "perf_suite",
                  "-j", jobs])
    with open(BUILD / "build.log", "a") as build_log:
        for step in steps:
            if subprocess.run(step, stdout=build_log,
                              stderr=subprocess.STDOUT).returncode != 0:
                raise SystemExit(f"run.py: build failed ({' '.join(step)}); "
                                 f"see {BUILD / 'build.log'}")


def round_seed(seed, r):
    return seed + ROUND_SEED_STRIDE * r


def suite(workload, seed, seconds, traced=False, probe_scale=1.0,
          trace_out=None):
    args = [str(SUITE), "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds)]
    if traced:
        args += ["--traced", "--probe-scale", repr(probe_scale)]
    if trace_out:
        args += ["--trace-out", str(trace_out)]
    done = subprocess.run(args, stdout=subprocess.PIPE, text=True,
                          timeout=seconds + 150)
    if done.returncode != 0:
        raise SystemExit(f"run.py: {' '.join(args)} exited "
                         f"{done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# ---- Statistics -------------------------------------------------------------

def spread(values):
    """Interquartile range over the median (run-to-run spread)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def scaled(run):
    """One process's pass times and setup time, each scaled to the nominal
    host speed by the reference loop timed next to it."""
    passes = [p * REFERENCE_NOMINAL_S / r
              for p, r in zip(run["pass_host_s"], run["reference_s"])]
    setup = run["setup_s"] * REFERENCE_NOMINAL_S / run["setup_reference_s"]
    return passes, setup


def e2e(runs):
    """The end-to-end metrics of timed processes, with sample counts."""
    passes, setups = [], []
    for run in runs:
        run_passes, setup = scaled(run)
        passes += run_passes
        setups.append(setup)
    values = {
        "queries_per_host_s": runs[0]["queries_per_pass"] * len(passes) /
        sum(passes),
        "pass_host_s.p50": statistics.median(passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    samples = {"queries_per_host_s": len(passes),
               "pass_host_s.p50": len(passes),
               "setup_s": len(runs), "peak_rss_mb": len(runs)}
    raw = [p for run in runs for p in run["pass_host_s"]]
    return values, samples, statistics.median(raw)


def summarize(runs, traced):
    """Folds the timed rounds and the traced run of one workload."""
    summary = {"problems": [], "layer_problems": []}
    everything = runs + ([traced] if traced else [])
    if runs:
        values, samples, raw_p50 = e2e(runs)
        per_round = [e2e([run])[0] for run in runs]
        summary["metrics"] = {
            name: {"value": values[name], "unit": unit, "n": samples[name],
                   "rounds": [r[name] for r in per_round],
                   "spread": spread([r[name] for r in per_round])}
            for name, unit in E2E_UNITS.items()}
        summary["raw_pass_host_s.p50"] = raw_p50
        summary["reference_s"] = statistics.median(
            r for run in runs for r in run["reference_s"])
    summary["attempted"] = sum(run["attempted"] for run in everything)
    summary["failed"] = sum(run["failed"] for run in everything)
    summary["failed_fraction"] = (summary["failed"] /
                                  max(summary["attempted"], 1))
    summary["problems"] += [e for run in everything for e in run["errors"]]
    # Round 0 and the traced run share the seed: their fingerprints must
    # agree across processes and with tracing on.
    prints = everything[0]["fingerprints"]
    summary["fingerprints"] = prints
    if runs and traced:
        for label, value in traced["fingerprints"].items():
            if prints.get(label) != value:
                summary["problems"].append(
                    f"{label}: fingerprint {value} in the traced process, "
                    f"{prints.get(label)} in round 0")
    if traced:
        summary["layer"] = traced["layer"]
        summary["spans"] = traced["spans"]
        summary["layer_problems"] = layer_problems(traced)
    return summary


def layer_problems(traced):
    problems = []
    for name, value in traced["layer"].items():
        if name.endswith(".host_share") and value < SHARE_FLOOR:
            problems.append(f"{name} = {value:.3f} is below {SHARE_FLOOR}")
    if traced["spans"]["run_simulation"] != traced["attempted"]:
        problems.append("a run_simulation call has no span")
    if traced["spans"]["probe"] != 8:
        problems.append("a layer probe has no span")
    return problems


# ---- Modes ------------------------------------------------------------------

def print_e2e(workload, summary):
    for name, metric in summary["metrics"].items():
        print(f"{workload:11s} {name:19s} {metric['value']:12.6g} "
              f"{metric['unit']:9s} n={metric['n']:<5d} "
              f"spread={metric['spread']:.3f}")
    print(f"{workload:11s} {'(unscaled p50)':19s} "
          f"{summary['raw_pass_host_s.p50']:12.6g} s")
    print(f"{workload:11s} {'(reference loop)':19s} "
          f"{summary['reference_s']:12.6g} s")
    print(f"{workload:11s} {'failed_fraction':19s} "
          f"{summary['failed_fraction']:12.6g} {'ratio':9s} "
          f"n={summary['attempted']}")


def run_workload(args):
    build()
    if args.trace:
        trace_out = OUT / f"{args.workload}-{args.seed}.trace.json"
        traced = suite(args.workload, args.seed, args.seconds, traced=True,
                       trace_out=trace_out)
        runs = [traced]
        summary = summarize([], traced)
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in traced["layer"].items()}
        for name, metric in metrics.items():
            print(f"{args.workload:11s} {name:29s} {metric['value']:14.6g} "
                  f"{metric['unit']}")
    else:
        runs = [suite(args.workload, round_seed(args.seed, r),
                      args.seconds / WORKLOAD_ROUNDS)
                for r in range(WORKLOAD_ROUNDS)]
        summary = summarize(runs, None)
        print_e2e(args.workload, summary)
        metrics = {name: {"value": m["value"], "unit": m["unit"]}
                   for name, m in summary["metrics"].items()
                   if name in gated_metrics()}
    OUT.joinpath(f"{args.workload}-{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps({"summary": summary, "runs": runs}) + "\n")
    for problem in summary["problems"] + summary["layer_problems"]:
        log(f"run.py: {problem}")
    correct = summary["failed"] == 0 and not summary["problems"]
    print(json.dumps({"correct": correct,
                      "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


def full_set(rounds, seconds, seed, out, probe_scale):
    """`rounds` timed rounds of `seconds` per workload, then one traced
    process per workload; returns 1 on any problem."""
    build()
    started = time.monotonic()
    runs = {w: [] for w in WORKLOADS}
    for r in range(rounds):
        order = WORKLOADS[r % len(WORKLOADS):] + WORKLOADS[:r % len(WORKLOADS)]
        for workload in order:
            runs[workload].append(
                suite(workload, round_seed(seed, r), seconds))
        log(f"round {r + 1}/{rounds} done")
    report = {"seed": seed, "rounds": rounds, "seconds": seconds,
              "host": host_details(), "workloads": {}}
    problems = []
    for workload in WORKLOADS:
        traced = suite(workload, seed, min(seconds, 3.0), traced=True,
                       probe_scale=probe_scale,
                       trace_out=OUT / f"{workload}-{seed}.trace.json")
        summary = summarize(runs[workload], traced)
        report["workloads"][workload] = summary
        print_e2e(workload, summary)
        problems += [f"{workload}: {p}" for p in
                     summary["problems"] + summary["layer_problems"]]
    report["wall_s"] = time.monotonic() - started
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    Path(out).write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out} ({report['wall_s']:.0f} s)")
    for problem in problems:
        log(f"run.py: {problem}")
    return 1 if problems else 0


def host_details():
    flags = BUILD / "CMakeFiles" / "perf_suite.dir" / "flags.make"
    cxx_flags = ""
    if flags.is_file():
        for line in flags.read_text().splitlines():
            if line.startswith("CXX_FLAGS"):
                cxx_flags = line.split("=", 1)[1].strip()
    compiler = subprocess.run(["c++", "--version"], stdout=subprocess.PIPE,
                              text=True).stdout.splitlines()[:1]
    return {"nproc": os.cpu_count(), "compiler": "".join(compiler),
            "cxx_flags": cxx_flags}


# ---- Compare ----------------------------------------------------------------

def judge(a, b, bound, better):
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (b["value"] - a["value"]) / a["value"]
    width = max(a["spread"], b["spread"])
    beats = (min(b["rounds"]) > max(a["rounds"]) if better == "higher"
             else max(b["rounds"]) < min(a["rounds"]))
    if width > bound:
        verdict = "better" if beats else "unresolved"
    elif gain > bound:
        verdict = "better"
    elif gain < -bound:
        verdict = "worse"
    else:
        verdict = "unchanged"
    return gain, width, verdict


def compare(path_a, path_b):
    bounds = gated_metrics()
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    print(f"{'workload':11s} {'metric':19s} {'A':>12s} {'B':>12s} "
          f"{'change':>8s} {'spread':>7s} {'bound':>6s}  verdict")
    verdicts = []
    for workload in WORKLOADS:
        if workload not in a or workload not in b:
            continue
        for name in E2E_UNITS:
            if name not in bounds:
                continue
            ma, mb = a[workload]["metrics"][name], b[workload]["metrics"][name]
            gain, width, verdict = judge(ma, mb, bounds[name]["bound"],
                                         bounds[name]["better"])
            verdicts.append(verdict)
            print(f"{workload:11s} {name:19s} {ma['value']:12.6g} "
                  f"{mb['value']:12.6g} {gain:+8.3f} {width:7.3f} "
                  f"{bounds[name]['bound']:6.2f}  {verdict}")
        # The scale factor of every time above: a shift here moves them all.
        ra, rb = a[workload]["reference_s"], b[workload]["reference_s"]
        print(f"{workload:11s} {'(reference loop)':19s} {ra:12.6g} "
              f"{rb:12.6g} {rb / ra - 1:+8.3f}{'':15s}  not gated")
        fa, fb = a[workload]["failed_fraction"], b[workload]["failed_fraction"]
        verdicts.append("worse" if fb > fa else "unchanged")
        print(f"{workload:11s} {'failed_fraction':19s} {fa:12.6g} {fb:12.6g}"
              f"{'':24s}  {verdicts[-1]}")
    print("\nfingerprint differences:")
    print_differences(a, b, "fingerprints")
    print("\nper-layer count differences:")
    print_differences(a, b, "layer", COUNT_NAMES)
    return 1 if "worse" in verdicts else 0


def print_differences(a, b, key, names=None):
    found = False
    for workload in WORKLOADS:
        left = a.get(workload, {}).get(key, {})
        right = b.get(workload, {}).get(key, {})
        for name in names or sorted(set(left) | set(right)):
            if left.get(name) != right.get(name):
                found = True
                print(f"  {workload} {name}: {left.get(name)} -> "
                      f"{right.get(name)}")
    if not found:
        print("  none")


# ---- Entry ------------------------------------------------------------------

def main(argv):
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            raise SystemExit("usage: run.py compare A.json B.json")
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--held-out", action="store_true")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.held_out:
        args.seed = HELD_OUT_SEED
    if args.seconds is not None and not args.workload:
        parser.error("--seconds needs --workload")
    if args.smoke:
        out = args.out or OUT / "smoke.json"
        return full_set(1, 0.0, args.seed, out, probe_scale=0.1)
    if args.workload:
        args.seconds = 16.0 if args.seconds is None else args.seconds
        return run_workload(args)
    out = args.out or OUT / f"set-{args.seed}-{int(time.time())}.json"
    return full_set(SET_ROUNDS, SET_SECONDS, args.seed, out, probe_scale=1.0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
