// Reproduces the paper's **§5.3 steady-state overhead** claim: with no
// reconfiguration in flight, Rhino's proactive state replication does not
// increase processing latency over the Flink baseline.
//
// Paper shape: NBQ5/NBQ8 average latency ~75-130 ms on both systems
// (identical processing routines); Rhino uses more network/disk only
// during the checkpoint/replication peaks.
//
// Also measures the observability layer's own cost: the same NBQ8/Rhino
// run is timed (wall clock) with the trace enabled and disabled; the
// difference is the `obs_overhead_pct` artifact key (budget: < 2%).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "artifact.h"
#include "common/logging.h"
#include "harness.h"
#include "metrics/table.h"
#include "timeline_util.h"

namespace rhino::bench {
namespace {

void Run(BenchArtifact* artifact) {
  metrics::TablePrinter table({"Query", "SUT", "mean[ms]", "min[ms]",
                               "p99[ms]", "rec/s", "net util[%]",
                               "disk util[%]"});
  std::vector<std::string> queries = {"NBQ5", "NBQ8"};
  if (SmokeMode()) queries = {"NBQ8"};
  const SimTime run_time = SmokeScaled(5 * kMinute, kMinute);
  for (const std::string& query : queries) {
    for (Sut sut : {Sut::kFlink, Sut::kRhino}) {
      TestbedOptions opts;
      opts.sut = sut;
      opts.query = query;
      opts.checkpoint_interval = kMinute;
      opts.gen_tick = kSecond;
      if (query == "NBQ5") {
        opts.gen_bytes_per_sec = 128e6;
        opts.stateful_records_per_sec = 12e6;
        opts.source_records_per_sec = 16e6;
      }
      Testbed tb(opts);
      tb.SeedState(query == "NBQ5" ? 26 * kMiB
                                   : SmokeScaled<uint64_t>(100 * kGiB,
                                                           8 * kGiB));
      tb.Start();
      tb.Run(run_time);  // several checkpoint/replication cycles
      tb.StopGenerators();

      // Latency and records both come from the engine's own metric
      // registry; records aggregate across the query's stateful operators.
      obs::MetricsRegistry& registry = tb.observability.metrics();
      const obs::Histogram& hist = *registry.GetHistogram(
          "rhino_op_latency_us", {{"op", PrimaryOpOf(query)}});
      uint64_t records = 0;
      for (const std::string& op : tb.stateful_ops) {
        records += registry.GetCounter("rhino_op_records_total", {{"op", op}})
                       ->value();
      }
      double throughput = static_cast<double>(records) / ToSeconds(run_time);
      double net = 0, disk = 0;
      for (const auto& s : tb.monitor->samples()) {
        net += s.net_util;
        disk += s.disk_util;
      }
      auto n = static_cast<double>(tb.monitor->samples().size());

      const double mean_ms = hist.Mean() / kMillisecond;
      const double p99_ms =
          static_cast<double>(hist.Percentile(99)) / kMillisecond;
      std::string prefix = query + "." + SutName(sut);
      artifact->Set("latency_mean_ms." + prefix, mean_ms);
      artifact->Set("latency_p50_ms." + prefix,
                    static_cast<double>(hist.Percentile(50)) / kMillisecond);
      artifact->Set("latency_p99_ms." + prefix, p99_ms);
      artifact->Set("throughput_records_per_s." + prefix, throughput);
      artifact->Set("net_util_pct." + prefix, n > 0 ? net / n * 100 : 0.0);
      artifact->Set("disk_util_pct." + prefix, n > 0 ? disk / n * 100 : 0.0);

      char mean[32], min[32], p99[32], rps[32], nu[32], du[32];
      std::snprintf(mean, sizeof(mean), "%.1f", mean_ms);
      std::snprintf(min, sizeof(min), "%.1f",
                    static_cast<double>(hist.Min()) / kMillisecond);
      std::snprintf(p99, sizeof(p99), "%.1f", p99_ms);
      std::snprintf(rps, sizeof(rps), "%.2e", throughput);
      std::snprintf(nu, sizeof(nu), "%.1f", n > 0 ? net / n * 100 : 0.0);
      std::snprintf(du, sizeof(du), "%.1f", n > 0 ? disk / n * 100 : 0.0);
      table.AddRow({query, SutName(sut), mean, min, p99, rps, nu, du});
    }
  }
  table.Print();
}

/// Wall-clock seconds for one NBQ8/Rhino steady run with the trace toggle
/// in the given position (the metric counters stay on either way — they
/// are part of the claimed <2% budget).
double TimedRun(bool obs_enabled) {
  TestbedOptions opts;
  opts.sut = Sut::kRhino;
  opts.query = "NBQ8";
  opts.checkpoint_interval = kMinute;
  opts.gen_tick = kSecond;
  Testbed tb(opts);
  tb.observability.set_enabled(obs_enabled);
  tb.SeedState(8 * kGiB);
  tb.Start();
  auto start = std::chrono::steady_clock::now();
  tb.Run(SmokeScaled(10 * kMinute, kMinute));
  auto end = std::chrono::steady_clock::now();
  tb.StopGenerators();
  return std::chrono::duration<double>(end - start).count();
}

void MeasureObsOverhead(BenchArtifact* artifact) {
  std::printf("\n--- observability overhead (NBQ8/Rhino, wall clock) ---\n");
  // Machine-wide noise (schedulers, neighbors) swamps any single sample,
  // but it drifts slowly: adjacent runs see similar conditions. So time
  // off/on in adjacent pairs and take the median of the per-pair ratios —
  // robust where ratio-of-mins converges too slowly on a loaded box. The
  // pair order alternates because the second run of a pair is measurably
  // slower than the first regardless of the toggle (cache/boost decay).
  const int pairs = SmokeScaled(8, 2);
  double with_obs = 1e100, without_obs = 1e100;
  std::vector<double> ratios;
  for (int i = 0; i < pairs; ++i) {
    bool off_first = i % 2 == 0;
    double first = TimedRun(/*obs_enabled=*/!off_first);
    double second = TimedRun(/*obs_enabled=*/off_first);
    double off = off_first ? first : second;
    double on = off_first ? second : first;
    without_obs = std::min(without_obs, off);
    with_obs = std::min(with_obs, on);
    ratios.push_back(on / off);
  }
  std::sort(ratios.begin(), ratios.end());
  double median = ratios.size() % 2 == 1
                      ? ratios[ratios.size() / 2]
                      : (ratios[ratios.size() / 2 - 1] +
                         ratios[ratios.size() / 2]) / 2.0;
  double overhead_pct = (median - 1.0) * 100.0;
  std::printf(
      "trace off: %.3f s | trace on: %.3f s (min of %d) | "
      "median paired overhead: %+.2f%%\n",
      without_obs, with_obs, pairs, overhead_pct);
  artifact->Set("obs_wall_s.trace_off", without_obs);
  artifact->Set("obs_wall_s.trace_on", with_obs);
  artifact->Set("obs_overhead_pct", overhead_pct);
  if (SmokeMode()) {
    // An ~0.1 s timed window cannot resolve a <2% effect; the key is
    // emitted for key-parity with full runs, not for its value.
    artifact->SetInfo("obs_overhead_note",
                      "smoke window too short to resolve overhead; "
                      "run without RHINO_BENCH_SMOKE for the real number");
  }
}

}  // namespace
}  // namespace rhino::bench

int main() {
  std::printf(
      "=== §5.3 steady-state overhead: latency without reconfiguration "
      "===\n\n");
  rhino::bench::BenchArtifact artifact("overhead_steady_state");
  rhino::bench::Run(&artifact);
  rhino::bench::MeasureObsOverhead(&artifact);
  RHINO_CHECK_OK(artifact.Write());
  return 0;
}
