// Unit tests for the observability layer: metrics registry handle
// discipline, the fixed-size histogram, trace-log span bookkeeping, and the
// three exporters.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <new>
#include <thread>
#include <vector>

#include "common/random.h"
#include "obs/exporters.h"
#include "obs/metrics_registry.h"
#include "obs/observability.h"
#include "obs/trace_log.h"

namespace {
// Heap allocations made by the calling thread. This binary replaces the
// global operator new to count them, so a test can show that a path
// allocates nothing.
thread_local uint64_t allocations_on_this_thread = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++allocations_on_this_thread;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Not inlined: a caller that sees `free` of what `new` returned warns.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace rhino::obs {
namespace {

// ---------------------------------------------------------------- registry --

TEST(MetricsRegistry, HandlesAreIdempotent) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("rhino_test_total");
  Counter* b = registry.GetCounter("rhino_test_total");
  EXPECT_EQ(a, b);
  a->Increment();
  b->Increment(2);
  EXPECT_EQ(a->value(), 3u);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(MetricsRegistry, LabelsArePartOfIdentity) {
  MetricsRegistry registry;
  Counter* join = registry.GetCounter("rhino_op_records_total", {{"op", "join"}});
  Counter* agg = registry.GetCounter("rhino_op_records_total", {{"op", "agg"}});
  EXPECT_NE(join, agg);
  join->Increment(10);
  EXPECT_EQ(agg->value(), 0u);
  // Same labels in any construction order -> same handle.
  Counter* join2 =
      registry.GetCounter("rhino_op_records_total", {{"op", "join"}});
  EXPECT_EQ(join, join2);
}

TEST(MetricsRegistry, HandlesStayStableAcrossGrowth) {
  MetricsRegistry registry;
  Counter* first = registry.GetCounter("first_total");
  first->Increment();
  for (int i = 0; i < 100; ++i) {
    registry.GetCounter("filler_" + std::to_string(i) + "_total")->Increment();
  }
  EXPECT_EQ(first, registry.GetCounter("first_total"));
  EXPECT_EQ(first->value(), 1u);
}

TEST(MetricsRegistry, KeyOfSerializesSortedLabels) {
  EXPECT_EQ(MetricsRegistry::KeyOf("m", {}), "m");
  EXPECT_EQ(MetricsRegistry::KeyOf("m", {{"b", "2"}, {"a", "1"}}),
            "m{a=\"1\",b=\"2\"}");
}

TEST(MetricsRegistry, GaugeAndHistogram) {
  MetricsRegistry registry;
  Gauge* g = registry.GetGauge("rhino_degraded_groups");
  g->Set(3);
  g->Add(-1);
  EXPECT_DOUBLE_EQ(g->value(), 2.0);

  Histogram* h = registry.GetHistogram("rhino_latency_us");
  for (int i = 1; i <= 100; ++i) h->Observe(i * 1000);
  EXPECT_EQ(h->count(), 100u);
  EXPECT_GE(h->Percentile(99), h->Percentile(50));
}

// --------------------------------------------------------------- histogram --

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0);
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Min(), 0);
  EXPECT_EQ(h.Max(), 0);
  for (double p : {0.0, 50.0, 99.0, 100.0}) EXPECT_EQ(h.Percentile(p), 0);
}

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Observe(i);
  EXPECT_DOUBLE_EQ(h.Mean(), 50.5);
  EXPECT_EQ(h.Min(), 1);
  EXPECT_EQ(h.Max(), 100);
  EXPECT_EQ(h.Percentile(50), 50);
  EXPECT_EQ(h.Percentile(99), 99);
  EXPECT_EQ(h.Percentile(100), 100);
  // Below 128 every value has a bucket of its own: the median of
  // {0, v, 127} is v itself, not a bucket midpoint.
  for (int64_t v = 0; v < 128; ++v) {
    Histogram three;
    three.Observe(0);
    three.Observe(v);
    three.Observe(127);
    EXPECT_EQ(three.Percentile(50), v);
  }
}

TEST(HistogramTest, AddAfterPercentileQuery) {
  Histogram h;
  h.Observe(5);
  EXPECT_EQ(h.Percentile(99), 5);
  h.Observe(10);
  EXPECT_EQ(h.Percentile(99), 10);
}

TEST(HistogramTest, PercentilesAreWithinOnePercentUpToTheCap) {
  // Log-uniform samples from 1 to just below the cap, plus its edges.
  Random rng(7);
  std::vector<int64_t> samples = {1, Histogram::kCap - 1};
  for (int i = 0; i < 20000; ++i) {
    samples.push_back(static_cast<int64_t>(
        std::exp2(rng.NextDouble() *
                  std::log2(static_cast<double>(Histogram::kCap - 1)))));
  }
  Histogram h;
  for (int64_t v : samples) h.Observe(v);
  std::sort(samples.begin(), samples.end());
  for (int tenths = 1; tenths <= 1000; ++tenths) {
    const double p = tenths / 10.0;
    auto rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(samples.size())));
    const int64_t truth = samples[std::max<size_t>(rank, 1) - 1];
    const int64_t got = h.Percentile(p);
    EXPECT_LE(std::abs(static_cast<double>(got - truth)),
              0.01 * static_cast<double>(truth))
        << "p" << p << ": " << got << " vs " << truth;
  }
}

TEST(HistogramTest, CountSumMinAndMaxAreExact) {
  // Values at and above the cap share the top bucket; the max stays exact.
  const std::vector<int64_t> values = {977, 3, 1000003, 123456789011, 0,
                                       Histogram::kCap,
                                       3 * Histogram::kCap + 1};
  Histogram h;
  int64_t sum = 0;
  for (int64_t v : values) {
    h.Observe(v);
    sum += v;
  }
  EXPECT_EQ(h.count(), values.size());
  EXPECT_EQ(h.sum(), sum);
  EXPECT_DOUBLE_EQ(h.Mean(), static_cast<double>(sum) / values.size());
  EXPECT_EQ(h.Min(), 0);
  EXPECT_EQ(h.Max(), 3 * Histogram::kCap + 1);
  EXPECT_EQ(h.Percentile(0), 0);
  EXPECT_EQ(h.Percentile(100), 3 * Histogram::kCap + 1);
}

TEST(HistogramTest, ObservingAllocatesNothing) {
  MetricsRegistry registry;
  auto* h = registry.GetHistogram("rhino_test_latency_us");
  const uint64_t before = allocations_on_this_thread;
  for (int64_t i = 0; i < 1000000; ++i) h->Observe(i * 7919 % 5000000);
  EXPECT_EQ(allocations_on_this_thread - before, 0u);
}

TEST(HistogramTest, ReadersRunBesideObservers) {
  constexpr int kObservers = 4;
  constexpr int64_t kPerObserver = 100000;
  Histogram h;
  std::atomic<bool> observing{true};
  int bad_reads = 0;
  std::thread reader([&] {
    uint64_t last = 0;
    do {
      const uint64_t n = h.count();
      const int64_t p50 = h.Percentile(50), p99 = h.Percentile(99);
      // Every value observed lies in [1, kPerObserver], and so does any
      // percentile of them, whatever moment it reads.
      const bool in_range = n == 0 || (p50 >= 1 && p50 <= kPerObserver &&
                                       p99 >= 1 && p99 <= kPerObserver);
      if (n < last || !in_range) ++bad_reads;
      last = n;
    } while (observing.load());
  });
  std::vector<std::thread> observers;
  for (int t = 0; t < kObservers; ++t) {
    observers.emplace_back([&h] {
      for (int64_t v = 1; v <= kPerObserver; ++v) h.Observe(v);
    });
  }
  for (std::thread& t : observers) t.join();
  observing.store(false);
  reader.join();
  EXPECT_EQ(bad_reads, 0);
  EXPECT_EQ(h.count(), static_cast<uint64_t>(kObservers * kPerObserver));
  EXPECT_EQ(h.sum(), kObservers * kPerObserver * (kPerObserver + 1) / 2);
  EXPECT_EQ(h.Min(), 1);
  EXPECT_EQ(h.Max(), kPerObserver);
}

// --------------------------------------------------------------- trace log --

TEST(TraceLog, StampsEventsWithTheInstalledClock) {
  TraceLog trace;
  SimTime now = 0;
  trace.SetClock([&now] { return now; });
  now = 42;
  trace.Emit("checkpoint", "trigger", "engine", 7);
  ASSERT_EQ(trace.size(), 1u);
  const TraceEvent& ev = trace.events().front();
  EXPECT_EQ(ev.time_us, 42);
  EXPECT_EQ(ev.id, 7u);
  EXPECT_FALSE(ev.is_span());
}

TEST(TraceLog, SpanDurationIsEndMinusBegin) {
  TraceLog trace;
  SimTime now = 100;
  trace.SetClock([&now] { return now; });
  uint64_t span = trace.BeginSpan("handover", "buffering_hold", "join#3", 1,
                                  {{"pending_moves", 2}});
  ASSERT_NE(span, 0u);
  EXPECT_TRUE(trace.events().front().is_open());
  now = 350;
  trace.EndSpan(span, {{"released", 1}});
  const TraceEvent& ev = trace.events().front();
  EXPECT_FALSE(ev.is_open());
  EXPECT_EQ(ev.time_us, 100);
  EXPECT_EQ(ev.duration_us, 250);
  EXPECT_EQ(ev.end_us(), 350);
  EXPECT_EQ(ev.args.at("pending_moves"), 2);
  EXPECT_EQ(ev.args.at("released"), 1);  // merged at EndSpan
}

TEST(TraceLog, EndSpanIgnoresUnknownHandles) {
  TraceLog trace;
  trace.EndSpan(0);
  trace.EndSpan(12345);
  EXPECT_EQ(trace.size(), 0u);
}

TEST(TraceLog, SelectFiltersByCategoryAndName) {
  TraceLog trace;
  trace.Emit("handover", "rewire", "join#0", 1);
  trace.Emit("handover", "marker_injected", "engine", 1);
  trace.Emit("replication", "catchup", "join#0", 2);
  EXPECT_EQ(trace.Count("handover"), 2u);
  EXPECT_EQ(trace.Count("handover", "rewire"), 1u);
  EXPECT_EQ(trace.Count("replication"), 1u);
  EXPECT_EQ(trace.Count("fault"), 0u);
  auto spans = trace.Spans("handover");
  EXPECT_TRUE(spans.empty());  // instants are not spans
}

TEST(TraceLog, DisabledLogRecordsNothing) {
  TraceLog trace;
  trace.set_enabled(false);
  trace.Emit("checkpoint", "trigger", "engine");
  uint64_t span = trace.BeginSpan("handover", "state_transfer", "join#0");
  EXPECT_EQ(span, 0u);
  trace.EndSpan(span);
  EXPECT_EQ(trace.size(), 0u);

  trace.set_enabled(true);
  trace.Emit("checkpoint", "trigger", "engine");
  EXPECT_EQ(trace.size(), 1u);
}

TEST(TraceLog, DataEventsAreOptIn) {
  TraceLog trace;
  EXPECT_FALSE(trace.data_events());
  trace.set_data_events(true);
  EXPECT_TRUE(trace.data_events());
  // The firehose is off whenever the whole log is off.
  trace.set_enabled(false);
  EXPECT_FALSE(trace.data_events());
}

TEST(TraceLog, ClearDropsOpenSpans) {
  TraceLog trace;
  uint64_t span = trace.BeginSpan("handover", "state_transfer", "join#0");
  trace.Clear();
  EXPECT_EQ(trace.size(), 0u);
  trace.EndSpan(span);  // must not crash or resurrect the span
  EXPECT_EQ(trace.size(), 0u);
}

// --------------------------------------------------------------- exporters --

TEST(Exporters, PrometheusTextListsEveryFamily) {
  MetricsRegistry registry;
  registry.GetCounter("rhino_checkpoint_completed_total")->Increment(4);
  registry.GetGauge("rhino_replication_degraded_groups")->Set(1.5);
  Histogram* h = registry.GetHistogram("rhino_op_latency_us", {{"op", "join"}});
  h->Observe(1000);
  h->Observe(3000);

  std::string text = ToPrometheusText(registry);
  EXPECT_NE(text.find("rhino_checkpoint_completed_total 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("rhino_replication_degraded_groups 1.5\n"),
            std::string::npos);
  EXPECT_NE(text.find("rhino_op_latency_us_count{op=\"join\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("rhino_op_latency_us_sum{op=\"join\"} 4000\n"),
            std::string::npos);
  EXPECT_NE(text.find("rhino_op_latency_us{op=\"join\",quantile=\"0.99\"}"),
            std::string::npos);
}

TEST(Exporters, MetricsJsonIsFlatAndComplete) {
  MetricsRegistry registry;
  registry.GetCounter("rhino_handover_bytes_total")->Increment(123);
  registry.GetHistogram("rhino_handover_duration_us")->Observe(500);
  std::string json = MetricsToJson(registry);
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"rhino_handover_bytes_total\": 123"),
            std::string::npos);
  EXPECT_NE(json.find("\"rhino_handover_duration_us_count\": 1"),
            std::string::npos);
  EXPECT_NE(json.find("\"rhino_handover_duration_us_sum\": 500"),
            std::string::npos);
  // Inner quotes around the quantile label are escaped in the JSON key.
  EXPECT_NE(
      json.find("\"rhino_handover_duration_us{quantile=\\\"0.5\\\"}\": 500"),
      std::string::npos);
}

TEST(Exporters, ChromeTraceHasThreadNamesSpansAndInstants) {
  TraceLog trace;
  SimTime now = 10;
  trace.SetClock([&now] { return now; });
  uint64_t span = trace.BeginSpan("handover", "state_transfer", "join#1", 9);
  now = 60;
  trace.EndSpan(span);
  trace.Emit("fault", "crash", "node3", 1, {{"halted_instances", 4}});
  uint64_t open = trace.BeginSpan("handover", "buffering_hold", "join#1");
  (void)open;  // left open: aborted protocols render with zero duration

  std::string json = TraceToChromeJson(trace);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"join#1\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\",\"dur\":50"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\",\"s\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"halted_instances\":4"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\",\"dur\":0"), std::string::npos);
}

TEST(Exporters, WriteTextFileRoundTrips) {
  std::string path = ::testing::TempDir() + "/obs_test_export.json";
  ASSERT_TRUE(WriteTextFile(path, "{\"ok\":1}\n").ok());
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "{\"ok\":1}\n");
}

// ----------------------------------------------------------- observability --

TEST(Observability, DefaultInstanceIsProcessWide) {
  EXPECT_EQ(Observability::Default(), Observability::Default());
}

TEST(Observability, ToggleGatesTheTraceOnly) {
  Observability obs;
  obs.set_enabled(false);
  obs.trace().Emit("checkpoint", "trigger", "engine");
  EXPECT_EQ(obs.trace().size(), 0u);
  // Metric handles keep counting regardless of the trace toggle.
  obs.metrics().GetCounter("rhino_test_total")->Increment();
  EXPECT_EQ(obs.metrics().GetCounter("rhino_test_total")->value(), 1u);
}

}  // namespace
}  // namespace rhino::obs
