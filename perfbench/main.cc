// Cluster benchmark of the networked runtime: one in-process 3-node
// cluster over loopback TCP per workload run, an exactly-once audit of
// every result, and one JSON line of metrics at the end.
//
//   perfbench --workload counter-steady --seed 1 --seconds 12 --trace 0
//
// `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
// metrics of a separately traced run (see README.md).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "net/wire.h"
#include "obs/exporters.h"
#include "workloads.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--state-dir <dir>] [--trace-out <file>]\n"
               "workloads:");
  for (const std::string& name : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
}

std::string Json(const perfbench::RunResult& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const perfbench::Metric& m : r.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += first ? "\"" : ", \"";
    out += rhino::obs::EscapeJson(m.name);
    out += "\": {\"value\": ";
    out += value;
    out += ", \"unit\": \"";
    out += rhino::obs::EscapeJson(m.unit);
    out += "\"}";
    first = false;
  }
  out += "}}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  config.state_dir = ".bench_build/state";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage();
      return 2;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--state-dir") {
      config.state_dir = value;
    } else if (flag == "--trace-out") {
      config.trace_out = value;
    } else {
      Usage();
      return 2;
    }
  }
  if (!have_workload || !(config.seconds > 0)) {
    Usage();
    return 2;
  }
  // The benchmark measures the deployment default: the pipelined plane
  // with continuous replication.
  if (!rhino::net::NetPipelineEnabled()) {
    std::fprintf(stderr,
                 "perfbench: refusing to run with RHINO_NET_PIPELINE=0; the "
                 "benchmark measures the default data plane\n");
    return 2;
  }

  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  perfbench::RunResult result = perfbench::RunWorkload(config);
  for (const perfbench::Metric& m : result.metrics) {
    std::printf("%-40s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const perfbench::Metric& m : result.diagnostics) {
    std::printf("diag %-35s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& problem : result.problems) {
    std::printf("PROBLEM %s\n", problem.c_str());
  }
  std::printf("%s\n", Json(result).c_str());
  std::fflush(stdout);
  // A printed result is a completed run, correct or not; the JSON says
  // which.
  return 0;
}
