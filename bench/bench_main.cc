// Shared main for every bench binary: the standard console table plus a
// machine-readable JSON sidecar (one object per benchmark case) so
// BENCH_*.json trajectories can be recorded across commits.
//
// Sidecar path: $MMV_BENCH_JSON when set ("0" / "off" / empty disables);
// otherwise BENCH_<binary>.json in the working directory.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/fixpoint.h"

namespace mmv {
namespace bench {
namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

// Console reporter that also appends one JSON object per run to a sidecar
// file: {"name", "real_ms", "cpu_ms", "iterations", "counters": {...}}.
class JsonSidecarReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonSidecarReporter(const std::string& path) : out_(path) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    if (!out_.is_open()) return;
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      double iters = run.iterations > 0
                         ? static_cast<double>(run.iterations)
                         : 1.0;
      out_ << "{\"name\": \"" << JsonEscape(run.benchmark_name())
           << "\", \"real_ms\": " << run.real_accumulated_time / iters * 1e3
           << ", \"cpu_ms\": " << run.cpu_accumulated_time / iters * 1e3
           << ", \"iterations\": " << run.iterations << ", \"counters\": {";
      bool first = true;
      for (const auto& [name, counter] : run.counters) {
        if (!first) out_ << ", ";
        out_ << '"' << JsonEscape(name) << "\": " << counter.value;
        first = false;
      }
      out_ << "}}\n";
    }
    out_.flush();
  }

 private:
  std::ofstream out_;
};

std::string SidecarPath(const char* argv0) {
  if (const char* env = std::getenv("MMV_BENCH_JSON")) {
    std::string v = env;
    if (v.empty() || v == "0" || v == "off") return "";
    return v;
  }
  std::string base = argv0 ? argv0 : "bench";
  size_t slash = base.find_last_of('/');
  if (slash != std::string::npos) base = base.substr(slash + 1);
  return "BENCH_" + base + ".json";
}

}  // namespace
}  // namespace bench
}  // namespace mmv

int main(int argc, char** argv) {
  // Validate the engine-mode environment up front: an unknown value must
  // fail the whole run loudly, not silently benchmark the default engine.
  if (mmv::Result<mmv::JoinMode> mode = mmv::JoinModeFromEnv(); !mode.ok()) {
    std::cerr << mode.status().ToString() << "\n";
    return 1;
  }
  if (mmv::Result<int> threads = mmv::ThreadsFromEnv(); !threads.ok()) {
    std::cerr << threads.status().ToString() << "\n";
    return 1;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  std::string path = mmv::bench::SidecarPath(argc > 0 ? argv[0] : nullptr);
  if (path.empty()) {
    benchmark::RunSpecifiedBenchmarks();
  } else {
    mmv::bench::JsonSidecarReporter reporter(path);
    benchmark::RunSpecifiedBenchmarks(&reporter);
  }
  benchmark::Shutdown();
  return 0;
}
