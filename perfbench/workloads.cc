#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>
#include <utility>

#include "cluster.h"
#include "obs/observability.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

using rhino::Result;
using rhino::Status;
using rhino::dataflow::Batch;
using rhino::dataflow::Record;
namespace net = rhino::net;

namespace {

constexpr uint32_t kNodes = 3;
constexpr uint32_t kVnodes = 48;  // 16 per node
constexpr uint32_t kRecordBytes = 32;
constexpr uint32_t kVictim = 2;
constexpr uint64_t kPreloadBatch = 4096;
/// Open-loop traffic before the measured window.
constexpr double kWarmupS = 2.0;
/// Clusters that each run an equal share of the measured phase (the
/// open-loop window and the cycles). A cluster settles into a CPU-per-record
/// level that holds for its lifetime but differs between clusters by up to
/// ~20%, so figures pooled over several clusters are steadier than one's.
constexpr int kMeasuredClusters = 4;
/// Fresh clusters that each take one recovery, after each measured
/// cluster.
constexpr int kRecoveriesPerCluster = 3;
/// Sampled audits read every key touched since the last audit plus about
/// 4096 (at least every 16th) of the rest.
constexpr uint64_t kAuditSampleKeys = 4096;
/// Key spaces up to this size are read in full at the end of each
/// measured cluster.
constexpr uint64_t kFullAuditKeys = 16'384;
const char* const kCounterOp = "counter";

struct Spec {
  std::string name;
  /// Key space of the generated records.
  uint64_t keys = 0;
  /// Open-loop offered rate; 0 = no open-loop window.
  double rate_rps = 0;
  uint32_t batch_records = 250;
  uint32_t burst_batches = 16;
  uint32_t recovery_batches = 16;
  /// Handover laps per measured cluster: the moving vnode set goes around
  /// the ring once per lap; every fourth lap runs backwards, to a cold
  /// target.
  int laps = 0;
  /// Times every key is preloaded (counter workloads). 25 passes make the
  /// counter's set-up throughput-bound instead of a few milliseconds of
  /// thread starts, whose wall swings with the host.
  int preload_passes = 1;
  /// Single-node baseline and closed-loop peak diagnostics.
  bool baseline = false;
};

std::vector<Spec> AllSpecs() {
  Spec counter;
  counter.name = "counter-steady";
  counter.keys = 4096;
  counter.rate_rps = 50'000;
  counter.batch_records = 1000;
  counter.burst_batches = 4;
  counter.recovery_batches = 4;
  counter.baseline = true;
  counter.laps = 10;
  counter.preload_passes = 25;

  Spec large;
  large.name = "reconfig-large";
  large.keys = 262'144;
  large.batch_records = 4000;
  large.burst_batches = 1;
  large.recovery_batches = 1;
  large.laps = 5;
  return {counter, large};
}

/// Seeded record source with per-key tallies (the audit's expectation).
class Feed {
 public:
  Feed(uint64_t seed, uint64_t keys)
      : rng_(seed), tally_(keys, 0), touched_flag_(keys, 0) {}

  /// `n` records with uniform keys.
  Batch Uniform(uint32_t n) {
    Batch batch;
    batch.records.reserve(n);
    for (uint32_t i = 0; i < n; ++i) Add(&batch, rng_.Below(tally_.size()));
    return batch;
  }

  /// Keys `first` .. `first + n - 1`, once each.
  Batch Sequential(uint64_t first, uint64_t n) {
    Batch batch;
    batch.records.reserve(n);
    for (uint64_t key = first; key < first + n; ++key) Add(&batch, key);
    return batch;
  }

  uint64_t expected(uint64_t key) const { return tally_[key]; }
  uint64_t records() const { return records_; }

  /// Forgets which keys were touched (the preload need not be re-read key
  /// by key).
  void ClearTouched() {
    for (uint64_t key : touched_) touched_flag_[key] = 0;
    touched_.clear();
  }

  /// Keys touched since the last call, plus every `stride`-th key.
  std::vector<uint64_t> TakeAuditKeys(uint64_t stride) {
    for (uint64_t key = 0; key < tally_.size(); key += stride) Touch(key);
    std::vector<uint64_t> keys = std::move(touched_);
    touched_.clear();
    for (uint64_t key : keys) touched_flag_[key] = 0;
    std::sort(keys.begin(), keys.end());
    return keys;
  }

 private:
  void Touch(uint64_t key) {
    if (touched_flag_[key] == 0) {
      touched_flag_[key] = 1;
      touched_.push_back(key);
    }
  }
  void Add(Batch* batch, uint64_t key) {
    Record rec;
    rec.key = key;
    rec.size = kRecordBytes;
    batch->records.push_back(rec);
    batch->count += 1;
    batch->bytes += kRecordBytes;
    ++tally_[key];
    ++records_;
    Touch(key);
  }

  Rng rng_;
  std::vector<uint64_t> tally_;
  std::vector<uint8_t> touched_flag_;
  std::vector<uint64_t> touched_;
  uint64_t records_ = 0;
};

/// The `rhino_lsm_*` counters (process-wide, summed over every store).
struct LsmCounters {
  uint64_t wal_bytes = 0;
  uint64_t flush_bytes = 0;
  uint64_t compaction_out = 0;
  uint64_t user_write_bytes = 0;

  static LsmCounters Read() {
    auto& m = rhino::obs::Observability::Default()->metrics();
    LsmCounters c;
    c.wal_bytes = m.GetCounter("rhino_lsm_wal_bytes_total")->value();
    c.flush_bytes = m.GetCounter("rhino_lsm_flush_bytes_total")->value();
    c.compaction_out =
        m.GetCounter("rhino_lsm_compaction_bytes_out_total")->value();
    c.user_write_bytes =
        m.GetCounter("rhino_lsm_user_write_bytes_total")->value();
    return c;
  }
  void Add(const LsmCounters& d) {
    wal_bytes += d.wal_bytes;
    flush_bytes += d.flush_bytes;
    compaction_out += d.compaction_out;
    user_write_bytes += d.user_write_bytes;
  }
  LsmCounters Since(const LsmCounters& base) const {
    LsmCounters d;
    d.wal_bytes = wal_bytes - base.wal_bytes;
    d.flush_bytes = flush_bytes - base.flush_bytes;
    d.compaction_out = compaction_out - base.compaction_out;
    d.user_write_bytes = user_write_bytes - base.user_write_bytes;
    return d;
  }
};

/// One slice of open-loop traffic.
struct Slice {
  double wall_s = 0;
  uint64_t records = 0;
  /// Process CPU over the slice minus the generator's batch construction.
  int64_t cpu_ns = 0;
  int64_t process_cpu_ns = 0;
  std::vector<double> latency_ms;
  std::vector<double> late_ms;
  /// Batches due and not yet completed when the slice's time ran out.
  size_t backlog_end = 0;
};

/// Open-loop generator on the coordinating thread: batches arrive on a
/// seeded Poisson schedule whatever the cluster does, each is stamped
/// with its due time, and one `Pump()` completes everything queued.
class OpenLoop {
 public:
  OpenLoop(Cluster* cluster, rhino::broker::Partition* partition, Feed* feed,
           double rate_rps, uint32_t batch_records, uint64_t seed)
      : cluster_(cluster),
        partition_(partition),
        feed_(feed),
        batch_records_(batch_records),
        schedule_(seed, rate_rps / batch_records),
        origin_ns_(WallNs()) {
    next_due_ns_ = origin_ns_ + schedule_.NextDueNs();
  }

  /// Runs the next `seconds` of the schedule. Slices tile the schedule
  /// exactly, so a window of whole seconds is offered a fixed load. A
  /// slice generates only the batches due before its end and returns once
  /// all of them completed, so every generated record is pumped.
  Result<Slice> Run(double seconds) {
    Slice slice;
    const int64_t start = WallNs();
    elapsed_ns_ += static_cast<int64_t>(seconds * 1e9);
    const int64_t end = origin_ns_ + elapsed_ns_;
    const int64_t cpu0 = ProcessCpuNs();
    int64_t gen_cpu = 0;
    bool past_end = false;
    while (true) {
      const int64_t now = WallNs();
      while (next_due_ns_ <= now && next_due_ns_ < end) {
        const int64_t g0 = ThreadCpuNs();
        partition_->Append(feed_->Uniform(batch_records_));
        gen_cpu += ThreadCpuNs() - g0;
        ledger_.Enqueue(next_due_ns_, batch_records_);
        queued_records_ += batch_records_;
        slice.late_ms.push_back(static_cast<double>(now - next_due_ns_) / 1e6);
        next_due_ns_ = origin_ns_ + schedule_.NextDueNs();
      }
      if (now >= end && !past_end) {
        past_end = true;
        slice.backlog_end = ledger_.backlog();
      }
      if (ledger_.backlog() > 0) {
        RHINO_RETURN_NOT_OK(cluster_->Pump(queued_records_).status());
        slice.records += ledger_.CompleteAll(WallNs());
        queued_records_ = 0;
        continue;
      }
      if (past_end) break;
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(std::min(next_due_ns_, end) - now));
    }
    slice.process_cpu_ns = ProcessCpuNs() - cpu0;
    slice.cpu_ns = slice.process_cpu_ns - gen_cpu;
    slice.wall_s = static_cast<double>(WallNs() - start) / 1e9;
    slice.latency_ms = ledger_.latencies_ms();
    ledger_.ClearLatencies();
    return slice;
  }

 private:
  Cluster* cluster_;
  rhino::broker::Partition* partition_;
  Feed* feed_;
  uint32_t batch_records_;
  PoissonSchedule schedule_;
  int64_t origin_ns_;
  int64_t next_due_ns_ = 0;
  int64_t elapsed_ns_ = 0;
  LatencyLedger ledger_;
  uint64_t queued_records_ = 0;
};

/// Sums of several slices.
struct Window {
  double wall_s = 0;
  uint64_t records = 0;
  int64_t cpu_ns = 0;
  int64_t process_cpu_ns = 0;
  std::vector<double> latency_ms;

  void Add(const Slice& s) {
    wall_s += s.wall_s;
    records += s.records;
    cpu_ns += s.cpu_ns;
    process_cpu_ns += s.process_cpu_ns;
    latency_ms.insert(latency_ms.end(), s.latency_ms.begin(),
                      s.latency_ms.end());
  }
  double cpu_us_per_record() const {
    return records == 0 ? 0 : static_cast<double>(cpu_ns) / 1e3 / records;
  }
};

using Interval = std::pair<int64_t, int64_t>;

/// Share of each interval covered by the union of node spans inside it;
/// the median over intervals.
double NodeShare(const std::vector<Span>& spans,
                 const std::vector<Interval>& intervals) {
  std::vector<double> shares;
  for (const auto& [a, b] : intervals) {
    if (b <= a) continue;
    std::vector<Interval> parts;
    for (const Span& s : spans) {
      if (s.layer != Layer::kNode || s.end_ns <= a || s.start_ns >= b) continue;
      parts.emplace_back(std::max(s.start_ns, a), std::min(s.end_ns, b));
    }
    std::sort(parts.begin(), parts.end());
    int64_t covered = 0;
    int64_t reach = a;
    for (const auto& [s, e] : parts) {
      if (e <= reach) continue;
      covered += e - std::max(s, reach);
      reach = e;
    }
    shares.push_back(static_cast<double>(covered) / static_cast<double>(b - a));
  }
  return Median(shares);
}

class Run {
 public:
  Run(const RunConfig& config, const Spec& spec)
      : config_(config), spec_(spec) {
    uint64_t state = config.seed;
    for (auto* stream : {&feed_seed_, &schedule_seed_, &baseline_seed_}) {
      *stream = SplitMix64(&state);
    }
  }

  RunResult Execute() {
    Status st = Body();
    if (!st.ok()) Problem("run aborted: " + st.ToString());
    result_.attempted = ledger_.attempted;
    result_.failed = ledger_.failed;
    if (result_.correct) {
      result_.metrics = config_.trace ? PerLayer() : EndToEnd();
    }
    Diagnostics();
    if (config_.trace && !config_.trace_out.empty()) {
      Status written = tracer_.WriteChromeTrace(config_.trace_out);
      if (!written.ok()) Problem("trace export: " + written.ToString());
    }
    return std::move(result_);
  }

 private:
  // ------------------------------------------------------------ phases --

  Status Body() {
    // An unsampled cluster first, preloaded and (open-loop workloads) given
    // the warm-up's traffic: the first cluster in a process that carries
    // traffic runs ~20% more CPU per record than later ones.
    {
      Feed feed(feed_seed_, spec_.keys);
      std::unique_ptr<Cluster> cluster;
      rhino::broker::Partition* left = nullptr;
      RHINO_RETURN_NOT_OK(
          Build(&feed, kNodes, &cluster, &left, /*sample=*/false));
      if (open_loop()) {
        OpenLoop loop(cluster.get(), left, &feed, spec_.rate_rps,
                      spec_.batch_records, schedule_seed_);
        RHINO_RETURN_NOT_OK(loop.Run(kWarmupS).status());
      }
    }
    // The measured clusters, each followed by its recoveries. Interleaving
    // them spreads the set-up samples over the whole run instead of
    // bunching them at its end, where one slow streak of the host would
    // hit most of them.
    for (int k = 0; k < kMeasuredClusters; ++k) {
      RHINO_RETURN_NOT_OK(MeasuredCluster(k));
      for (int r = 0; r < kRecoveriesPerCluster; ++r) {
        RHINO_RETURN_NOT_OK(RecoveryRound(k * kRecoveriesPerCluster + r));
      }
    }
    if (spec_.baseline) RHINO_RETURN_NOT_OK(SingleNodeBaseline());
    peak_rss_mb_ = PeakRssMb();
    return Status::OK();
  }

  /// Measured cluster `k`: its share of the open-loop window (if any),
  /// then its laps of the cycles, then a full or sampled audit.
  Status MeasuredCluster(int k) {
    uint64_t state = feed_seed_ + 100 + static_cast<uint64_t>(k);
    Feed feed(SplitMix64(&state), spec_.keys);
    std::unique_ptr<Cluster> cluster;
    rhino::broker::Partition* left = nullptr;
    RHINO_RETURN_NOT_OK(Build(&feed, kNodes, &cluster, &left, true));
    if (open_loop()) {
      RHINO_RETURN_NOT_OK(
          OpenLoopPhase(cluster.get(), left, &feed, SplitMix64(&state)));
    }
    RHINO_RETURN_NOT_OK(Cycles(cluster.get(), left, &feed));
    if (spec_.baseline && k + 1 == kMeasuredClusters) {
      RHINO_RETURN_NOT_OK(ClosedLoopPeak(cluster.get(), left, &feed));
    }
    const std::string what = "end of cluster " + std::to_string(k);
    RHINO_RETURN_NOT_OK(spec_.keys <= kFullAuditKeys
                            ? AuditAll(cluster.get(), &feed, what)
                            : AuditSample(cluster.get(), &feed, what));
    retained_mb_ = std::max(
        retained_mb_, static_cast<double>(feed.records() * sizeof(Record)) /
                          (1024.0 * 1024.0));
    return Status::OK();
  }

  /// Starts a cluster, wires the graph, preloads it and waits for the
  /// replication streams to go idle. When `sample` is set, the wall time
  /// is one `setup_s` sample and the cluster's poll cost is calibrated
  /// afterwards (outside the sample).
  Status Build(Feed* feed, uint32_t nodes, std::unique_ptr<Cluster>* out,
               rhino::broker::Partition** left, bool sample) {
    tracer_.set_phase(Phase::kSetup);
    const int64_t t0 = WallNs();
    Cluster::Options options;
    options.root = config_.state_dir;
    options.nodes = nodes;
    options.tracer = config_.trace ? &tracer_ : nullptr;
    options.ledger = &ledger_;
    options.wire = &wire_;
    RHINO_ASSIGN_OR_RETURN(*out, Cluster::Start(options));
    Cluster* c = out->get();
    *left = c->AddPartition();
    RHINO_RETURN_NOT_OK(c->Wire([&]() -> Status {
      net::ClusterDriver& d = c->driver();
      RHINO_RETURN_NOT_OK(d.ConnectAll());
      RHINO_RETURN_NOT_OK(d.AddOperator(kCounterOp, kVnodes));
      return d.ConnectPartition(kCounterOp, 0);
    }));
    // Preload in batches of consecutive keys; the last batch reaches every
    // vnode, so all replay watermarks sit at the end of the preload. Each
    // pass is replicated before the next: a stream that ships while the
    // pump runs either keeps up (one delta per applied batch, contending
    // for the node lock) or falls behind and coalesces, and which one
    // happens follows the host.
    for (int pass = 0; pass < spec_.preload_passes; ++pass) {
      for (uint64_t first = 0; first < spec_.keys; first += kPreloadBatch) {
        const uint64_t n = std::min(kPreloadBatch, spec_.keys - first);
        (*left)->Append(feed->Sequential(first, n));
      }
      RHINO_RETURN_NOT_OK(c->Pump(spec_.keys).status());
      RHINO_RETURN_NOT_OK(c->WaitReplicationIdle().status());
    }
    feed->ClearTouched();
    if (sample) {
      setup_s_.push_back(static_cast<double>(WallNs() - t0) / 1e9);
      RHINO_RETURN_NOT_OK(c->CalibratePolls());
      poll_cpu_us_.push_back(static_cast<double>(c->poll_cpu_ns()) / 1e3);
    }
    tracer_.set_phase(Phase::kOther);
    return Status::OK();
  }

  /// Warm-up, then this cluster's share of the measured window.
  Status OpenLoopPhase(Cluster* c, rhino::broker::Partition* left, Feed* feed,
                       uint64_t schedule_seed) {
    OpenLoop loop(c, left, feed, spec_.rate_rps, spec_.batch_records,
                  schedule_seed);
    // Warm-up. The counter's memtable overwrites keys in place, so its
    // 4096 keys never fill a memtable and nothing flushes; a fixed warm-up
    // lets connections, caches and the replication stream settle instead.
    RHINO_RETURN_NOT_OK(loop.Run(kWarmupS).status());

    tracer_.set_phase(Phase::kWindow);
    const LsmCounters lsm0 = LsmCounters::Read();
    const WireCounter::Totals wire0 = wire_.Read();
    // Untraced runs measure one window per cluster. Traced runs alternate
    // one-second slices with recording off and on, so the tracing overhead
    // compares neighbouring traffic at the same state size.
    const double share_s = config_.seconds / kMeasuredClusters;
    const double slice_s = config_.trace ? 1.0 : share_s;
    int slices = std::max(1, static_cast<int>(share_s / slice_s + 0.5));
    if (config_.trace) slices += slices % 2;
    Window phase;
    for (int i = 0; i < slices; ++i) {
      const bool traced = config_.trace && i % 2 == 1;
      tracer_.set_on(traced);
      RHINO_ASSIGN_OR_RETURN(Slice slice, loop.Run(slice_s));
      tracer_.set_on(false);
      (traced ? traced_window_ : window_).Add(slice);
      phase.Add(slice);
      late_ms_.insert(late_ms_.end(), slice.late_ms.begin(),
                      slice.late_ms.end());
      backlog_end_ = std::max(backlog_end_, slice.backlog_end);
    }
    data_lsm_.Add(LsmCounters::Read().Since(lsm0));
    window_bytes_ += RuntimeBytes(wire0, wire_.Read());
    data_records_ += phase.records;
    data_wall_s_ += phase.wall_s;
    data_process_cpu_ns_ += phase.process_cpu_ns;
    tracer_.set_phase(Phase::kOther);

    // Valid only if the offered load was sustained: a growing backlog
    // shows as completions falling behind the (exact) offered count.
    const double offered = spec_.rate_rps * phase.wall_s;
    if (static_cast<double>(phase.records) < 0.98 * offered) {
      Problem("load not sustained: " + std::to_string(phase.records) +
              " records completed of " + std::to_string(offered) + " offered");
    }
    return Status::OK();
  }

  /// Quiesced control-plane cycles: burst, wait for replication, checkpoint,
  /// hand a fixed quarter of the owner's vnodes to the next node, wait for
  /// re-protection. The vnode set travels the ring; every fourth lap
  /// backwards, to a node that holds no replica of it.
  Status Cycles(Cluster* c, rhino::broker::Partition* left, Feed* feed) {
    std::vector<uint32_t> owned = c->driver().VnodesOwnedBy(kCounterOp, 0);
    std::vector<uint32_t> moving(owned.begin(),
                                 owned.begin() + owned.size() / 4);
    const uint32_t burst_records = spec_.burst_batches * spec_.batch_records;
    uint32_t owner = 0;
    const LsmCounters lsm0 = LsmCounters::Read();
    const int64_t wall0 = WallNs();
    const int64_t cpu_start = ProcessCpuNs();
    int cycle = 0;
    for (int lap = 0; lap < spec_.laps; ++lap) {
      const bool backward = lap % 4 == 3;
      for (int step = 0; step < 3; ++step, ++cycle) {
        const bool traced = config_.trace && cycle % 2 == 1;
        tracer_.set_phase(Phase::kCycle);
        tracer_.set_on(traced);

        // 1. Burst, then 2. wait until every stream is idle again.
        for (uint32_t b = 0; b < spec_.burst_batches; ++b) {
          left->Append(feed->Uniform(spec_.batch_records));
        }
        const WireCounter::Totals w0 = wire_.Read();
        const int64_t c0 = ProcessCpuNs();
        const int64_t t0 = WallNs();
        RHINO_RETURN_NOT_OK(c->Pump(burst_records).status());
        const int64_t t1 = WallNs();
        RHINO_ASSIGN_OR_RETURN(IdleStats idle, c->WaitReplicationIdle());
        const int64_t c2 = ProcessCpuNs() - idle.poll_cpu_ns;
        burst_s_.push_back(static_cast<double>(t1 - t0) / 1e9);
        replica_lag_s_.push_back(idle.wait_s);
        burst_polls_.push_back(static_cast<double>(idle.polls));
        burst_bytes_per_record_.push_back(
            static_cast<double>(RuntimeBytes(w0, wire_.Read())) /
            burst_records);
        (traced ? traced_burst_cpu_us_ : burst_cpu_us_)
            .push_back(static_cast<double>(c2 - c0) / 1e3 / burst_records);
        if (traced) cycle_traced_s_ += static_cast<double>(t1 - t0) / 1e9;

        // 3. Checkpoint.
        int64_t cpu0 = ProcessCpuNs();
        int64_t h0 = WallNs();
        RHINO_ASSIGN_OR_RETURN(net::CheckpointStats ckpt, c->Checkpoint());
        int64_t h1 = WallNs();
        checkpoint_cpu_ms_.push_back(
            static_cast<double>(ProcessCpuNs() - cpu0) / 1e6);
        checkpoint_s_.push_back(static_cast<double>(h1 - h0) / 1e9);
        checkpoint_kb_.push_back(static_cast<double>(ckpt.bytes) / 1024);
        ckpt_bytes_ += ckpt.bytes;
        ckpt_state_bytes_ += idle.total_state_bytes;
        if (traced) ckpt_iv_.emplace_back(h0, h1);

        // 4. Handover, then wait for re-protection. Its CPU cost runs to
        // the end of re-protection, which overlaps the call itself, less
        // the wait's polling.
        const uint32_t target = (owner + (backward ? 2 : 1)) % kNodes;
        const WireCounter::Totals hw0 = wire_.Read();
        cpu0 = ProcessCpuNs();
        h0 = WallNs();
        RHINO_RETURN_NOT_OK(c->Handover(kCounterOp, owner, target, moving));
        h1 = WallNs();
        (backward ? cold_handover_s_ : handover_s_)
            .push_back(static_cast<double>(h1 - h0) / 1e9);
        if (traced && !backward) handover_iv_.emplace_back(h0, h1);
        RHINO_ASSIGN_OR_RETURN(IdleStats after, c->WaitReplicationIdle());
        if (!backward) {
          handover_cpu_ms_.push_back(
              static_cast<double>(ProcessCpuNs() - cpu0 - after.poll_cpu_ns) /
              1e6);
          handover_polls_.push_back(static_cast<double>(after.polls));
          handover_kb_.push_back(
              static_cast<double>(RuntimeBytes(hw0, wire_.Read())) / 1024);
        }
        handover_reprotect_s_.push_back(after.wait_s);
        if (traced && idle.state_bytes[owner] > after.state_bytes[owner]) {
          moved_bytes_ += idle.state_bytes[owner] - after.state_bytes[owner];
        }
        owner = target;
        tracer_.set_on(false);
        tracer_.set_phase(Phase::kOther);
      }
      RHINO_RETURN_NOT_OK(AuditSample(c, feed, "after handover lap " +
                                                   std::to_string(lap)));
    }
    if (!open_loop()) {
      data_lsm_.Add(LsmCounters::Read().Since(lsm0));
      data_records_ += static_cast<uint64_t>(cycle) * burst_records;
      data_wall_s_ += static_cast<double>(WallNs() - wall0) / 1e9;
      data_process_cpu_ns_ += ProcessCpuNs() - cpu_start;
    }
    RHINO_ASSIGN_OR_RETURN(IdleStats idle, c->WaitReplicationIdle());
    state_bytes_end_ = idle.total_state_bytes;
    disk_bytes_end_ = c->DiskBytes();
    return Status::OK();
  }

  /// Diagnostic: how fast a closed loop (append 16 batches, pump, repeat)
  /// pushes a fixed number of records.
  Status ClosedLoopPeak(Cluster* c, rhino::broker::Partition* left,
                        Feed* feed) {
    constexpr uint64_t kRecords = 200'000;
    uint64_t done = 0;
    const int64_t t0 = WallNs();
    while (done < kRecords) {
      for (int b = 0; b < 16; ++b) {
        left->Append(feed->Uniform(spec_.batch_records));
        done += spec_.batch_records;
      }
      RHINO_RETURN_NOT_OK(c->Pump(16 * spec_.batch_records).status());
    }
    closed_loop_rps_ =
        static_cast<double>(done) / (static_cast<double>(WallNs() - t0) / 1e9);
    return c->WaitReplicationIdle().status();
  }

  /// Diagnostic: the same open-loop load on one node, which has no ring
  /// and therefore replicates nothing.
  Status SingleNodeBaseline() {
    Feed feed(baseline_seed_, spec_.keys);
    std::unique_ptr<Cluster> cluster;
    rhino::broker::Partition* left = nullptr;
    RHINO_RETURN_NOT_OK(Build(&feed, 1, &cluster, &left, false));
    OpenLoop loop(cluster.get(), left, &feed, spec_.rate_rps,
                  spec_.batch_records, baseline_seed_);
    RHINO_RETURN_NOT_OK(loop.Run(1.0).status());
    RHINO_ASSIGN_OR_RETURN(Slice slice,
                           loop.Run(std::max(2.0, config_.seconds / 4)));
    baseline_cpu_us_ = slice.records == 0
                           ? 0
                           : static_cast<double>(slice.cpu_ns) / 1e3 /
                                 static_cast<double>(slice.records);
    return AuditAll(cluster.get(), &feed, "single-node baseline");
  }

  /// A fresh cluster: stop the victim's stream, pump a fixed window,
  /// fail-stop the victim, then time RecoverNode plus the replay pump.
  Status RecoveryRound(int round) {
    uint64_t state = feed_seed_ + 1000 + static_cast<uint64_t>(round);
    Feed feed(SplitMix64(&state), spec_.keys);
    std::unique_ptr<Cluster> cluster;
    rhino::broker::Partition* left = nullptr;
    RHINO_RETURN_NOT_OK(Build(&feed, kNodes, &cluster, &left, true));
    Cluster* c = cluster.get();

    c->StopStream(kVictim);
    const uint64_t window = static_cast<uint64_t>(spec_.recovery_batches) *
                            spec_.batch_records;
    for (uint32_t b = 0; b < spec_.recovery_batches; ++b) {
      left->Append(feed.Uniform(spec_.batch_records));
    }
    RHINO_RETURN_NOT_OK(c->Pump(window).status());
    // The victim fails once the survivors' streams are idle. A predecessor
    // still shipping to it would sit out the RPC client's retry backoff
    // before it re-ships to its new successor.
    RHINO_RETURN_NOT_OK(c->WaitReplicationIdle(kVictim).status());
    c->FailStop(kVictim);

    tracer_.set_phase(Phase::kRecovery);
    tracer_.set_on(config_.trace);
    if (round == 0) {
      // Diagnostic: detection by probing is bounded below by the RPC
      // client's retry backoff, not by anything recovery does.
      const int64_t p0 = WallNs();
      std::vector<uint32_t> dead = c->Probe();
      detect_s_ = static_cast<double>(WallNs() - p0) / 1e9;
      if (dead != std::vector<uint32_t>{kVictim}) {
        return Status::Aborted("probe did not find exactly the victim");
      }
    }
    const WireCounter::Totals w0 = wire_.Read();
    const int64_t cpu0 = ProcessCpuNs();
    const int64_t t0 = WallNs();
    RHINO_RETURN_NOT_OK(c->Recover(kVictim));
    RHINO_ASSIGN_OR_RETURN(net::PumpStats replay, c->Pump(0));
    const int64_t t1 = WallNs();
    recovery_s_.push_back(static_cast<double>(t1 - t0) / 1e9);
    if (config_.trace) recovery_iv_.emplace_back(t0, t1);
    replay_records_.push_back(static_cast<double>(replay.records_sent));
    if (replay.records_sent != window) {
      Problem("replay resent " + std::to_string(replay.records_sent) +
              " records, the window holds " + std::to_string(window));
    }
    RHINO_ASSIGN_OR_RETURN(IdleStats idle, c->WaitReplicationIdle());
    // Recovery's CPU cost runs to the end of re-protection, less the
    // wait's polling: the re-formed ring re-ships every survivor's state
    // while the replay runs.
    recovery_cpu_ms_.push_back(
        static_cast<double>(ProcessCpuNs() - cpu0 - idle.poll_cpu_ns) / 1e6);
    recovery_polls_.push_back(static_cast<double>(idle.polls));
    recovery_kb_.push_back(static_cast<double>(RuntimeBytes(w0, wire_.Read())) /
                           1024);
    recovery_reprotect_s_.push_back(idle.wait_s);
    tracer_.set_on(false);
    tracer_.set_phase(Phase::kOther);

    return AuditSample(c, &feed, "after recovery " + std::to_string(round));
  }

  // ------------------------------------------------------------- audit --

  Status AuditKeys(Cluster* c, const Feed& feed,
                   const std::vector<uint64_t>& keys, const std::string& what) {
    Audit audit;
    RHINO_ASSIGN_OR_RETURN(auto counts, c->QueryMany(kCounterOp, keys));
    for (size_t i = 0; i < keys.size(); ++i) {
      audit.Check(feed.expected(keys[i]), counts[i].count);
    }
    audit_.Merge(audit);
    if (!audit.ok()) Problem("audit " + what + ": " + audit.ToString());
    return Status::OK();
  }

  Status AuditSample(Cluster* c, Feed* feed, const std::string& what) {
    const uint64_t stride = std::max<uint64_t>(16, spec_.keys / kAuditSampleKeys);
    return AuditKeys(c, *feed, feed->TakeAuditKeys(stride), what);
  }

  Status AuditAll(Cluster* c, Feed* feed, const std::string& what) {
    return AuditKeys(c, *feed, feed->TakeAuditKeys(1), what);
  }

  void Problem(std::string what) {
    result_.correct = false;
    result_.problems.push_back(std::move(what));
  }

  // ----------------------------------------------------------- metrics --

  /// Open-loop workloads measure the data path in the window; the large
  /// state workload has none and measures its bursts.
  bool open_loop() const { return spec_.rate_rps > 0; }

  /// The gated metrics: the set-up time, and the bytes and memory each
  /// part of the work costs, which stay steady on a shared host whose CPU
  /// clocks and walls do not (see README.md). CPU and walls are
  /// diagnostics.
  std::vector<Metric> EndToEnd() const {
    return {
        {"setup_s", Median(setup_s_), "s"},
        {"network_bytes_per_record", network_bytes_per_record(), "B"},
        {"checkpoint_kb", Median(checkpoint_kb_), "KB"},
        {"handover_kb", Median(handover_kb_), "KB"},
        {"recovery_kb", Median(recovery_kb_), "KB"},
        {"peak_rss_mb", peak_rss_mb_, "MB"},
    };
  }

  /// Bytes on the wire per record of the data path: the open-loop window,
  /// or for the large-state workload the bursts until replication is idle
  /// (median over cycles).
  double network_bytes_per_record() const {
    if (!open_loop()) return Median(burst_bytes_per_record_);
    return window_.records == 0 ? 0
                                : static_cast<double>(window_bytes_) /
                                      static_cast<double>(window_.records);
  }

  /// Open-loop workloads: process CPU over the window (less the
  /// generator) per record completed. The large-state workload: process
  /// CPU from a burst's pump until replication is idle, per burst record.
  double cpu_us_per_record() const {
    return open_loop() ? window_.cpu_us_per_record() : Median(burst_cpu_us_);
  }

  std::vector<Metric> PerLayer() const {
    const std::vector<Span> spans = tracer_.spans();
    const Phase data = open_loop() ? Phase::kWindow : Phase::kCycle;
    auto select = [&](Layer layer, uint8_t verb, Phase phase) {
      std::vector<const Span*> out;
      for (const Span& s : spans) {
        if (s.layer == layer && s.verb == verb && s.phase == phase) {
          out.push_back(&s);
        }
      }
      return out;
    };
    auto ms = [](const std::vector<const Span*>& v) {
      std::vector<double> out;
      for (const Span* s : v) out.push_back(s->ms());
      return out;
    };
    auto verb = [](net::MessageType t) { return static_cast<uint8_t>(t); };
    auto ratio = [](double num, double den) { return den == 0 ? 0 : num / den; };

    const auto pumps =
        select(Layer::kDriver, static_cast<uint8_t>(DriverOp::kPump), data);
    double src = 0, cpu = 0, batches = 0, stalls = 0;
    for (const Span* s : pumps) {
      src += static_cast<double>(s->source_records);
      cpu += static_cast<double>(s->cpu_ns);
      batches += static_cast<double>(s->batches_sent);
      stalls += static_cast<double>(s->credit_stalls);
    }
    std::vector<const Span*> batch_calls;
    for (const Span* s :
         select(Layer::kClient, verb(net::MessageType::kProcessBatch), data)) {
      if (s->from < 0) batch_calls.push_back(s);
    }
    double req_bytes = 0, reply_bytes = 0;
    for (const Span* s : batch_calls) {
      req_bytes += static_cast<double>(s->req_bytes);
      reply_bytes += static_cast<double>(s->reply_bytes);
    }
    const auto node_batches =
        select(Layer::kNode, verb(net::MessageType::kProcessBatch), data);
    const std::vector<double> node_batch_ms = ms(node_batches);
    double node_batch_total_ms = 0;
    for (double v : node_batch_ms) node_batch_total_ms += v;

    double applied = 0, deduped = 0;
    for (const Span* s : select(Layer::kDriver,
                                static_cast<uint8_t>(DriverOp::kPump),
                                Phase::kRecovery)) {
      applied += static_cast<double>(s->applied);
      deduped += static_cast<double>(s->deduped);
    }
    double repl_bytes = 0;
    const auto deltas =
        select(Layer::kClient, verb(net::MessageType::kReplicateState), data);
    for (const Span* s : deltas) repl_bytes += static_cast<double>(s->req_bytes);
    const double traced_data_s =
        open_loop() ? traced_window_.wall_s : cycle_traced_s_;

    double handover_bytes = 0;
    for (const Span* s : select(Layer::kClient,
                                verb(net::MessageType::kExtractVnodes),
                                Phase::kCycle)) {
      handover_bytes += static_cast<double>(s->reply_bytes);
    }
    for (const Span* s : select(Layer::kClient,
                                verb(net::MessageType::kIngestVnodes),
                                Phase::kCycle)) {
      handover_bytes += static_cast<double>(s->req_bytes);
    }

    const double untraced_cpu =
        open_loop() ? window_.cpu_us_per_record() : Median(burst_cpu_us_);
    const double traced_cpu = open_loop() ? traced_window_.cpu_us_per_record()
                                          : Median(traced_burst_cpu_us_);
    const double lsm_wa =
        ratio(static_cast<double>(data_lsm_.wal_bytes + data_lsm_.flush_bytes +
                                  data_lsm_.compaction_out),
              static_cast<double>(data_lsm_.user_write_bytes));

    std::vector<Metric> m;
    m.push_back({"driver.cpu_ns_per_record", ratio(cpu, src), "ns"});
    m.push_back({"driver.pump_ms_p50", Median(ms(pumps)), "ms"});
    m.push_back({"driver.credit_stalls_per_1k_batches",
                 1000 * ratio(stalls, batches), "count"});
    m.push_back({"wire.batch_request_bytes_per_record",
                 ratio(req_bytes, src), "B/rec"});
    m.push_back({"wire.batch_reply_bytes_per_record", ratio(reply_bytes, src),
                 "B/rec"});
    m.push_back({"wire.batch_rtt_ms_p50", Median(ms(batch_calls)), "ms"});
    m.push_back({"wire.batch_wait_ms_mean",
                 Mean(ms(batch_calls)) - Mean(node_batch_ms), "ms"});
    m.push_back({"node.batch_us_per_record",
                 ratio(node_batch_total_ms * 1e3, src), "us"});
    m.push_back({"node.dedup_ratio", ratio(deduped, applied + deduped),
                 "ratio"});
    m.push_back({"repl.bytes_per_user_byte",
                 ratio(repl_bytes, src * kRecordBytes), "B/B"});
    m.push_back({"repl.deltas_per_s",
                 ratio(static_cast<double>(deltas.size()), traced_data_s),
                 "1/s"});
    m.push_back({"repl.apply_us_p50",
                 Median(ms(select(Layer::kNode,
                                  verb(net::MessageType::kReplicateState),
                                  Phase::kCycle))) *
                     1e3,
                 "us"});
    m.push_back({"ckpt.node_ms_p50",
                 Median(ms(select(Layer::kNode,
                                  verb(net::MessageType::kCheckpoint),
                                  Phase::kCycle))),
                 "ms"});
    m.push_back({"ckpt.bytes_per_state_byte",
                 ratio(static_cast<double>(ckpt_bytes_),
                       static_cast<double>(ckpt_state_bytes_)),
                 "B/B"});
    m.push_back({"ckpt.node_share", NodeShare(spans, ckpt_iv_), "ratio"});
    for (auto [name, type] :
         {std::pair{"handover.extract_ms_p50", net::MessageType::kExtractVnodes},
          std::pair{"handover.ingest_ms_p50", net::MessageType::kIngestVnodes},
          std::pair{"handover.drop_ms_p50", net::MessageType::kDropVnodes}}) {
      m.push_back(
          {name, Median(ms(select(Layer::kNode, verb(type), Phase::kCycle))),
           "ms"});
    }
    m.push_back({"handover.bytes_per_moved_byte",
                 ratio(handover_bytes, static_cast<double>(moved_bytes_)),
                 "B/B"});
    m.push_back({"handover.reprotect_s", Median(handover_reprotect_s_), "s"});
    m.push_back({"handover.node_share", NodeShare(spans, handover_iv_),
                 "ratio"});
    m.push_back({"recovery.promote_ms",
                 Median(ms(select(Layer::kNode,
                                  verb(net::MessageType::kPromoteReplica),
                                  Phase::kRecovery))),
                 "ms"});
    m.push_back({"recovery.replay_records", Median(replay_records_), "rec"});
    m.push_back({"recovery.reprotect_s", Median(recovery_reprotect_s_), "s"});
    m.push_back({"recovery.node_share", NodeShare(spans, recovery_iv_),
                 "ratio"});
    m.push_back({"lsm.write_amplification", lsm_wa, "B/B"});
    m.push_back({"lsm.disk_bytes_per_state_byte",
                 ratio(static_cast<double>(disk_bytes_end_),
                       static_cast<double>(state_bytes_end_)),
                 "B/B"});
    m.push_back({"gen.late_ms_p99", PercentileOf(late_ms_, 0.99).value, "ms"});
    m.push_back({"gen.backlog_batches_end", static_cast<double>(backlog_end_),
                 "count"});
    m.push_back({"broker.retained_mb", retained_mb_, "MB"});
    m.push_back({"proc.cores",
                 ratio(static_cast<double>(data_process_cpu_ns_) / 1e9,
                       data_wall_s_),
                 "cores"});
    m.push_back({"trace.overhead_pct",
                 100 * (ratio(traced_cpu, untraced_cpu) - 1), "%"});
    return m;
  }

  /// Printed, never gated: walls (which swing with the host), tails,
  /// and the figures that only make sense as context.
  void Diagnostics() {
    auto& d = result_.diagnostics;
    d.push_back({"error_rate",
                 ledger_.attempted == 0
                     ? 0
                     : static_cast<double>(ledger_.failed) /
                           static_cast<double>(ledger_.attempted),
                 "ratio"});
    if (open_loop()) {
      const Window& w = config_.trace ? traced_window_ : window_;
      d.push_back({"throughput_rps",
                   static_cast<double>(w.records) / w.wall_s, "rec/s"});
      d.push_back({"latency_p50_ms", PercentileOf(w.latency_ms, 0.5).value,
                   "ms"});
      d.push_back({"latency.samples", static_cast<double>(w.latency_ms.size()),
                   "count"});
      double q = 0;
      Percentile tail = HighestSupported(w.latency_ms, &q);
      d.push_back({"gen.late_ms_p99", PercentileOf(late_ms_, 0.99).value,
                   "ms"});
      d.push_back({"gen.backlog_batches_end",
                   static_cast<double>(backlog_end_), "count"});
      d.push_back({"tail.latency_p" +
                       std::to_string(static_cast<int>(q * 1000 + 0.5) / 10) +
                       "_ms",
                   tail.value, "ms"});
    } else {
      // No open loop: the bursts are the data path.
      std::vector<double> rps;
      for (double s : burst_s_) {
        rps.push_back(spec_.burst_batches * spec_.batch_records / s);
      }
      d.push_back({"throughput_rps", Median(rps), "rec/s"});
      d.push_back({"latency_p50_ms", Median(burst_s_) * 1e3, "ms"});
    }
    // CPU figures: process CPU, less the generator and the waits' polling.
    d.push_back({"cpu_us_per_record", cpu_us_per_record(), "us"});
    d.push_back({"checkpoint_cpu_ms", Median(checkpoint_cpu_ms_), "ms"});
    d.push_back({"handover_cpu_ms", Median(handover_cpu_ms_), "ms"});
    d.push_back({"recovery_cpu_ms", Median(recovery_cpu_ms_), "ms"});
    d.push_back({"replica_lag_s", Median(replica_lag_s_), "s"});
    d.push_back({"checkpoint_s", Median(checkpoint_s_), "s"});
    d.push_back({"handover_s", Median(handover_s_), "s"});
    d.push_back({"recovery_s", Median(recovery_s_), "s"});
    if (!cold_handover_s_.empty()) {
      d.push_back({"handover.cold_target_s", Median(cold_handover_s_), "s"});
    }
    d.push_back({"recovery.detect_s", detect_s_, "s"});
    // Polling the CPU figures leave out: the calibrated cost of one kStats
    // call and the calls of each wait (medians).
    d.push_back({"poll.call_cpu_us", Median(poll_cpu_us_), "us"});
    d.push_back({"poll.calls_per_burst", Median(burst_polls_), "count"});
    d.push_back({"poll.calls_per_handover", Median(handover_polls_), "count"});
    d.push_back({"poll.calls_per_recovery", Median(recovery_polls_), "count"});
    if (spec_.baseline) {
      d.push_back({"closed_loop.peak_rps", closed_loop_rps_, "rec/s"});
      d.push_back({"baseline.single_node_cpu_us_per_record", baseline_cpu_us_,
                   "us"});
    }
    d.push_back({"samples.checkpoint", static_cast<double>(checkpoint_s_.size()),
                 "count"});
    d.push_back({"samples.handover", static_cast<double>(handover_s_.size()),
                 "count"});
    d.push_back({"samples.recovery", static_cast<double>(recovery_s_.size()),
                 "count"});
    d.push_back({"samples.setup", static_cast<double>(setup_s_.size()),
                 "count"});
    d.push_back({"audit.keys_checked", static_cast<double>(audit_.checked),
                 "count"});
  }

  const RunConfig config_;
  const Spec spec_;
  uint64_t feed_seed_ = 0;
  uint64_t schedule_seed_ = 0;
  uint64_t baseline_seed_ = 0;
  Tracer tracer_;
  WireCounter wire_;
  CallLedger ledger_;
  RunResult result_;
  Audit audit_;

  std::vector<double> setup_s_;
  std::vector<double> poll_cpu_us_;
  Window window_;
  Window traced_window_;
  /// Bytes the runtime moved during the measured windows.
  uint64_t window_bytes_ = 0;
  std::vector<double> late_ms_;
  size_t backlog_end_ = 0;
  LsmCounters data_lsm_;
  uint64_t data_records_ = 0;
  double data_wall_s_ = 0;
  int64_t data_process_cpu_ns_ = 0;

  std::vector<double> burst_s_;
  std::vector<double> burst_cpu_us_;
  std::vector<double> burst_polls_;
  std::vector<double> burst_bytes_per_record_;
  std::vector<double> traced_burst_cpu_us_;
  std::vector<double> replica_lag_s_;
  std::vector<double> checkpoint_s_;
  std::vector<double> handover_s_;
  std::vector<double> cold_handover_s_;
  std::vector<double> handover_reprotect_s_;
  double cycle_traced_s_ = 0;
  uint64_t ckpt_bytes_ = 0;
  uint64_t ckpt_state_bytes_ = 0;
  uint64_t moved_bytes_ = 0;
  uint64_t state_bytes_end_ = 0;
  uint64_t disk_bytes_end_ = 0;
  std::vector<Interval> ckpt_iv_;
  std::vector<Interval> handover_iv_;
  std::vector<Interval> recovery_iv_;

  std::vector<double> checkpoint_kb_;
  std::vector<double> handover_kb_;
  std::vector<double> recovery_kb_;
  std::vector<double> recovery_s_;
  std::vector<double> recovery_cpu_ms_;
  std::vector<double> checkpoint_cpu_ms_;
  std::vector<double> handover_cpu_ms_;
  std::vector<double> handover_polls_;
  std::vector<double> recovery_reprotect_s_;
  std::vector<double> recovery_polls_;
  std::vector<double> replay_records_;
  double detect_s_ = 0;

  double closed_loop_rps_ = 0;
  double baseline_cpu_us_ = 0;
  double retained_mb_ = 0;
  double peak_rss_mb_ = 0;
};

}  // namespace

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const Spec& spec : AllSpecs()) names.push_back(spec.name);
  return names;
}

RunResult RunWorkload(const RunConfig& config) {
  for (const Spec& spec : AllSpecs()) {
    if (spec.name == config.workload) return Run(config, spec).Execute();
  }
  RunResult result;
  result.correct = false;
  result.problems.push_back("unknown workload " + config.workload);
  return result;
}

}  // namespace perfbench
