#pragma once

#include <cstdint>
#include <string>
#include <vector>

/// \file workloads.h
/// The benchmark's workloads (see README.md for the rationale of each):
///
///  * `counter-steady` — open-loop keyed-counter traffic over a small,
///    bounded state: the per-record data path and the replication stream;
///  * `reconfig-large` — a large preloaded counter state under quiesced
///    burst / checkpoint / handover cycles: state-proportional control
///    plane work.
///
/// Every workload also runs the quiesced control-plane cycle and recovery
/// on fresh clusters at its own state size, so each reports every
/// end-to-end metric.

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Parent directory for cluster state (created as needed).
  std::string state_dir;
  /// Chrome trace output of a traced run ("" = none).
  std::string trace_out;
};

struct RunResult {
  bool correct = true;
  std::vector<std::string> problems;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  /// Printed, never gated.
  std::vector<Metric> diagnostics;
};

/// Names of the workloads, in definition order.
std::vector<std::string> WorkloadNames();

RunResult RunWorkload(const RunConfig& config);

}  // namespace perfbench
