// Shared helpers for the figure-reproduction benches: consistent headers,
// simple table printing, environment knobs for repetition counts, and the
// --json machine-readable output mode for the google-benchmark micros.
#pragma once

#include "common/env.hpp"
#include "common/types.hpp"

#include <cstdio>
#include <string>

// The google-benchmark helpers are compiled only into targets that link
// the library (SIMFS_HAVE_GBENCH set by the build for micro benches);
// including benchmark.h unconditionally would force every figure bench
// to link it.
#if defined(SIMFS_HAVE_GBENCH) && __has_include(<benchmark/benchmark.h>)
#define SIMFS_BENCH_GBENCH_ENABLED 1

#include <benchmark/benchmark.h>

#include <thread>
#include <vector>
#endif

namespace simfs::bench {

/// Prints the standard bench banner.
inline void banner(const char* figure, const char* title) {
  std::printf("==============================================================\n");
  std::printf("SimFS reproduction — %s\n%s\n", figure, title);
  std::printf("==============================================================\n");
}

/// Repetition count, overridable via an environment variable so CI can
/// trade precision for speed (the paper uses 100 repetitions).
inline int reps(const char* envVar, int fallback) {
  const auto v = env::getInt(envVar);
  return v && *v > 0 ? static_cast<int>(*v) : fallback;
}

/// Formats a dollar amount in the paper's "x1000$" unit.
inline std::string kiloDollars(double dollars) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%8.1f", dollars / 1000.0);
  return buf;
}

/// Formats seconds from VTime.
inline std::string seconds(VTime t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%8.1f", vtime::toSeconds(t));
  return buf;
}

#ifdef SIMFS_BENCH_GBENCH_ENABLED
/// Replacement for BENCHMARK_MAIN() in the micro benches adding a
/// machine-readable mode:
///
///   micro_cache --json            # results -> jsonDefaultPath
///   micro_cache --json=out.json   # results -> out.json
///
/// The JSON file is google-benchmark's standard format, so downstream
/// tooling (perf-trajectory dashboards, CI comparisons) can diff runs.
/// All other google-benchmark flags pass through unchanged.
inline int runMicroBenchmarks(int argc, char** argv,
                              const char* jsonDefaultPath) {
  std::vector<std::string> args(argv, argv + argc);
  std::string outFlag;
  for (auto it = args.begin(); it != args.end();) {
    if (*it == "--json") {
      outFlag = std::string("--benchmark_out=") + jsonDefaultPath;
      it = args.erase(it);
    } else if (it->rfind("--json=", 0) == 0) {
      outFlag = "--benchmark_out=" + it->substr(7);
      it = args.erase(it);
    } else {
      ++it;
    }
  }
  if (!outFlag.empty()) {
    args.push_back(outFlag);
    args.push_back("--benchmark_out_format=json");
  }
  std::vector<char*> cargv;
  cargv.reserve(args.size());
  for (auto& a : args) cargv.push_back(a.data());
  int cargc = static_cast<int>(cargv.size());
  benchmark::Initialize(&cargc, cargv.data());
  // Machine context stamped into every BENCH_*.json: perf gates need to
  // know whether the runner could even exhibit parallel speedups.
  benchmark::AddCustomContext(
      "hw_cores", std::to_string(std::thread::hardware_concurrency()));
  if (benchmark::ReportUnrecognizedArguments(cargc, cargv.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
#endif  // SIMFS_BENCH_GBENCH_ENABLED

}  // namespace simfs::bench
