// Repository benchmark.  One process runs one workload:
//
//   perfbench --workload <sweep_fixed|sweep_hybrid|cluster_overload|
//                         serve_loopback>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]
//
// Prints a configuration record and, as its last line, one JSON object
//   {"correct": ..., "attempted": ..., "failed": ...,
//    "metrics": {name: {"value", "unit", "samples"}, ...}}
// holding what the workload measured: its end-to-end metrics (--trace 0)
// or the per-layer metrics of a traced run (--trace 1).  A failed
// correctness check prints the violations on stderr, reports no metric and
// exits 1.
#include <sys/resource.h>

#include <cpuid.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "pb/common.h"

namespace perfbench {

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB.
}

namespace {

// CPU brand string from CPUID (no file reads outside the checkout).
std::string CpuModel() {
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) {
    return "unknown";
  }
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[i * 4], &regs[i * 4 + 1],
                &regs[i * 4 + 2], &regs[i * 4 + 3]);
  }
  std::string model(reinterpret_cast<const char*>(regs), sizeof(regs));
  model = model.c_str();  // Drop trailing NULs.
  const size_t first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>]\n",
               message);
  return 2;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunParams params;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage(("missing value for " + flag).c_str());
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      params.workload = value;
    } else if (flag == "--seed") {
      params.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      params.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      params.trace = value != "0";
    } else if (flag == "--trace-out") {
      params.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (params.seconds <= 0.0) {
    return Usage("--seconds must be positive");
  }
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  params.threads = std::min(nproc, 4);

  Report report;
  if (params.workload == "sweep_fixed") {
    report = RunSweepFixed(params);
  } else if (params.workload == "sweep_hybrid") {
    report = RunSweepHybrid(params);
  } else if (params.workload == "cluster_overload") {
    report = RunClusterOverload(params);
  } else if (params.workload == "serve_loopback") {
    report = RunServeLoopback(params);
  } else {
    return Usage(("unknown workload '" + params.workload + "'").c_str());
  }

  // Configuration record.
  std::string host = "{\"workload\": " + JsonString(params.workload) +
                     ", \"seed\": " + std::to_string(params.seed) +
                     ", \"seconds\": " + std::to_string(params.seconds) +
                     ", \"trace\": " + (params.trace ? "1" : "0") +
                     ", \"nproc\": " + std::to_string(nproc) +
                     ", \"cpu\": " + JsonString(CpuModel()) +
                     ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
                     ", \"compiler\": " + JsonString("gcc " __VERSION__);
  for (const auto& [key, value] : report.config) {
    host += ", " + JsonString(key) + ": " + JsonString(value);
  }
  std::printf("config: %s}\n", host.c_str());

  for (const std::string& error : report.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", error.c_str());
  }
  // Every metric the workload measured; perfbench/run.py checks names and
  // units against BENCHMARK.json and prints them.  No metric on failure.
  std::string json;
  if (!report.errors.empty()) {
    report.metrics.clear();
  }
  for (const Metric& m : report.metrics) {
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", m.value);
    json += std::string(json.empty() ? "" : ", ") + JsonString(m.name) +
            ": {\"value\": " + number + ", \"unit\": " + JsonString(m.unit) +
            ", \"samples\": " + std::to_string(m.samples) + "}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              report.errors.empty() ? "true" : "false",
              static_cast<long long>(std::max<int64_t>(1, report.attempted)),
              static_cast<long long>(report.failed), json.c_str());
  return report.errors.empty() ? 0 : 1;
}
