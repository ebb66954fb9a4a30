#include "sim/fault_injector.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"

namespace rhino::sim {

std::string FaultScheduleRecipe(uint64_t seed,
                                const std::vector<CrashEvent>& crashes,
                                const std::vector<TransientFault>& transients) {
  std::ostringstream out;
  out << "seed=" << seed << " schedule=[";
  bool first = true;
  for (const CrashEvent& ev : crashes) {
    if (!first) out << "; ";
    first = false;
    out << "crash node" << ev.node << " @" << ev.time << "us (" << ev.cause
        << (ev.fired ? "" : ", pending") << ")";
  }
  for (const TransientFault& f : transients) {
    if (!first) out << "; ";
    first = false;
    switch (f.type) {
      case TransientFault::Type::kPartition:
        out << "partition node" << f.a;
        if (f.b >= 0) {
          out << "<->node" << f.b;
        } else {
          out << "<->*";
        }
        break;
      case TransientFault::Type::kLinkDelay:
        out << "delay ";
        if (f.a >= 0) {
          out << "node" << f.a;
        } else {
          out << "*";
        }
        out << " +" << f.extra_us << "us";
        break;
      case TransientFault::Type::kSlowDisk:
        out << "slowdisk node" << f.a << " +" << f.extra_us << "us";
        break;
    }
    out << " @[" << f.start << "," << (f.start + f.duration) << ")us";
  }
  out << "]";
  return out.str();
}

void FaultInjector::CrashAt(SimTime when, int node, std::string cause) {
  cluster_->sim()->ScheduleAt(when, [this, node, cause = std::move(cause)] {
    Fire(node, cause);
  });
}

void FaultInjector::CrashOnEvent(const std::string& event, uint64_t nth,
                                 int node, SimTime delay) {
  RHINO_CHECK_GE(nth, 1u) << "event occurrences are 1-based";
  event_triggers_[event].push_back(EventTrigger{nth, node, delay});
}

void FaultInjector::Notify(const std::string& event) {
  struct Pending {
    int node;
    SimTime delay;
    std::string cause;
  };
  std::vector<Pending> to_fire;
  uint64_t count = ++event_counts_[event];
  auto it = event_triggers_.find(event);
  if (it == event_triggers_.end()) return;
  std::vector<EventTrigger>& armed = it->second;
  for (auto t = armed.begin(); t != armed.end();) {
    if (t->nth != count) {
      ++t;
      continue;
    }
    to_fire.push_back(Pending{
        t->node, t->delay, "event:" + event + "#" + std::to_string(count)});
    t = armed.erase(t);
  }
  // Always bounce through the event queue, even at delay 0: firing
  // synchronously would re-enter the protocol code that called the probe.
  for (Pending& p : to_fire) {
    cluster_->sim()->Schedule(
        p.delay, [this, node = p.node, cause = std::move(p.cause)] {
          Fire(node, cause);
        });
  }
}

std::vector<CrashEvent> FaultInjector::ScheduleRandomCrashes(
    int count, std::vector<int> candidates, SimTime window_start,
    SimTime window_end, SimTime min_gap) {
  RHINO_CHECK_GE(window_end, window_start);
  std::vector<CrashEvent> schedule;
  for (int i = 0; i < count && !candidates.empty(); ++i) {
    size_t pick = static_cast<size_t>(rng_.Uniform(candidates.size()));
    CrashEvent ev;
    ev.node = candidates[pick];
    candidates.erase(candidates.begin() + static_cast<long>(pick));
    ev.time = window_start +
              static_cast<SimTime>(rng_.Uniform(
                  static_cast<uint64_t>(window_end - window_start) + 1));
    ev.cause = "random";
    schedule.push_back(ev);
  }
  std::sort(schedule.begin(), schedule.end(),
            [](const CrashEvent& a, const CrashEvent& b) {
              return a.time != b.time ? a.time < b.time : a.node < b.node;
            });
  for (size_t i = 1; i < schedule.size(); ++i) {
    if (schedule[i].time < schedule[i - 1].time + min_gap) {
      schedule[i].time = schedule[i - 1].time + min_gap;
    }
  }
  for (const CrashEvent& ev : schedule) CrashAt(ev.time, ev.node, ev.cause);
  return schedule;
}

void FaultInjector::AddTransient(const TransientFault& fault) {
  transients_.push_back(fault);
  if (fault.type != TransientFault::Type::kSlowDisk) {
    link_windows_.push_back(LinkWindow{fault});
  }
  obs_->metrics().GetCounter("rhino_fault_transients_total")->Increment();
  obs_->trace().Emit("fault", "transient", "scheduler",
                     static_cast<uint64_t>(fault.start));
}

void FaultInjector::PartitionNodes(int a, int b, SimTime start,
                                   SimTime duration) {
  TransientFault f;
  f.type = TransientFault::Type::kPartition;
  f.a = a;
  f.b = b;
  f.start = start;
  f.duration = duration;
  AddTransient(f);
}

void FaultInjector::IsolateNode(int node, SimTime start, SimTime duration) {
  TransientFault f;
  f.type = TransientFault::Type::kPartition;
  f.a = node;
  f.b = -1;
  f.start = start;
  f.duration = duration;
  AddTransient(f);
}

void FaultInjector::DelayLinks(int node, SimTime extra_us, SimTime start,
                               SimTime duration) {
  TransientFault f;
  f.type = TransientFault::Type::kLinkDelay;
  f.a = node;
  f.b = -1;
  f.start = start;
  f.duration = duration;
  f.extra_us = extra_us;
  AddTransient(f);
}

void FaultInjector::SlowDisk(int node, SimTime extra_us, SimTime start,
                             SimTime duration) {
  TransientFault f;
  f.type = TransientFault::Type::kSlowDisk;
  f.a = node;
  f.start = start;
  f.duration = duration;
  f.extra_us = extra_us;
  AddTransient(f);
  // Overlapping windows accumulate on the node's disk penalty.
  cluster_->sim()->ScheduleAt(start, [this, node, extra_us] {
    Node& n = cluster_->node(node);
    n.set_disk_penalty_us(n.disk_penalty_us() + extra_us);
    RHINO_LOG(Info) << "fault-injector: slow disk on node " << node << " (+"
                    << extra_us << "us) at t=" << cluster_->sim()->Now()
                    << "us";
  });
  cluster_->sim()->ScheduleAt(start + duration, [this, node, extra_us] {
    Node& n = cluster_->node(node);
    SimTime cur = n.disk_penalty_us();
    n.set_disk_penalty_us(cur > extra_us ? cur - extra_us : 0);
  });
}

std::vector<TransientFault> FaultInjector::ScheduleRandomTransients(
    int count, std::vector<int> candidates, SimTime window_start,
    SimTime window_end, SimTime min_duration, SimTime max_duration) {
  RHINO_CHECK_GE(window_end, window_start);
  RHINO_CHECK_GE(max_duration, min_duration);
  RHINO_CHECK_GE(candidates.size(), 1u);
  std::vector<TransientFault> schedule;
  for (int i = 0; i < count; ++i) {
    TransientFault f;
    f.start = window_start +
              static_cast<SimTime>(rng_.Uniform(
                  static_cast<uint64_t>(window_end - window_start) + 1));
    f.duration = min_duration +
                 static_cast<SimTime>(rng_.Uniform(
                     static_cast<uint64_t>(max_duration - min_duration) + 1));
    f.a = candidates[rng_.Uniform(candidates.size())];
    switch (rng_.Uniform(3)) {
      case 0: {
        f.type = TransientFault::Type::kPartition;
        if (candidates.size() < 2) {
          f.b = -1;  // lone candidate: isolate it instead
          break;
        }
        do {
          f.b = candidates[rng_.Uniform(candidates.size())];
        } while (f.b == f.a);
        break;
      }
      case 1:
        f.type = TransientFault::Type::kLinkDelay;
        f.extra_us = 500 + static_cast<SimTime>(rng_.Uniform(2000));
        break;
      default:
        f.type = TransientFault::Type::kSlowDisk;
        f.extra_us = 500 + static_cast<SimTime>(rng_.Uniform(2000));
        break;
    }
    schedule.push_back(f);
  }
  std::sort(schedule.begin(), schedule.end(),
            [](const TransientFault& a, const TransientFault& b) {
              return a.start < b.start;
            });
  for (const TransientFault& f : schedule) {
    switch (f.type) {
      case TransientFault::Type::kPartition:
        if (f.b >= 0) {
          PartitionNodes(f.a, f.b, f.start, f.duration);
        } else {
          IsolateNode(f.a, f.start, f.duration);
        }
        break;
      case TransientFault::Type::kLinkDelay:
        DelayLinks(f.a, f.extra_us, f.start, f.duration);
        break;
      case TransientFault::Type::kSlowDisk:
        SlowDisk(f.a, f.extra_us, f.start, f.duration);
        break;
    }
  }
  return schedule;
}

LinkFault FaultInjector::OnTransfer(int src, int dst, uint64_t /*bytes*/,
                                    TransferKind kind) {
  LinkFault verdict;
  SimTime now = cluster_->sim()->Now();
  bool dropped = false;
  for (const LinkWindow& w : link_windows_) {
    const TransientFault& f = w.fault;
    if (now < f.start || now >= f.start + f.duration) continue;
    if (!w.Matches(src, dst)) continue;
    if (f.type == TransientFault::Type::kPartition) {
      if (kind == TransferKind::kState) {
        dropped = true;
        verdict.drop = true;
      } else {
        // Reliable-transport semantics for the data plane: delivery is
        // deferred until just after the partition heals, never lost.
        SimTime until_heal = f.start + f.duration - now + 1000;
        verdict.extra_latency = std::max(verdict.extra_latency, until_heal);
      }
    } else {  // kLinkDelay
      verdict.extra_latency += f.extra_us;
    }
  }
  if (dropped) {
    obs_->metrics().GetCounter("rhino_fault_dropped_transfers_total")
        ->Increment();
  }
  return verdict;
}

void FaultInjector::Fire(int node, const std::string& cause) {
  size_t crash_index;
  if (crashed_.count(node)) return;  // at most one fail-stop per node
  crashed_.insert(node);
  if (!cluster_->node(node).alive()) {
    return;  // someone else already killed it
  }
  CrashEvent ev;
  ev.time = cluster_->sim()->Now();
  ev.node = node;
  ev.cause = cause;
  ev.fired = true;
  crashes_.push_back(ev);
  crash_index = crashes_.size();
  obs_->metrics().GetCounter("rhino_fault_crashes_total")->Increment();
  obs_->trace().Emit("fault", "crash", "node" + std::to_string(node),
                     static_cast<uint64_t>(crash_index));
  RHINO_LOG(Info) << "fault-injector: crashing node " << node << " at t="
                  << cluster_->sim()->Now() << "us (" << cause << ")";
  // The handler re-enters the engine's failure path.
  if (crash_handler_) {
    crash_handler_(node);
  } else {
    cluster_->FailNode(node);
  }
}

}  // namespace rhino::sim
